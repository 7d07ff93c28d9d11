(** The hosted-language VM surface, written once.

    [Make (L)] wires a {!Driver.LANG} into a runnable VM: a fresh
    runtime context, globals with the language's builtins installed,
    and the generic JIT driver.  Every language VM ([Mtj_pylite.Vm],
    [Mtj_rklite.Kvm]) is an instance, so the harness drives both
    through one first-class module of signature {!S}. *)

open Mtj_core
open Mtj_rt

module type S = sig
  type t
  type code

  type bundle
  (** Everything one source string compiles to — the entry code object,
      every registered code object and the id watermark.  Immutable
      bytecode with scalar constants only, so a bundle is context-free:
      it may be published to {!Sharedcache} and imported by a VM on any
      domain, and a warm (imported) run's simulated counters are
      byte-identical to a cold (compiled) run's. *)

  type Sharedcache.entry += Bundle of bundle
  (** this language's bundles in the shared cache *)

  val lang_name : string
  (** the language's short name ("py", "rk") *)

  val create : ?config:Config.t -> ?profile:Profile.t -> unit -> t
  (** Fresh VM: its own machine engine, GC, globals (with the language's
      builtins bound) and JIT driver.  [profile] sets the interpreter's
      cost model (default {!Mtj_core.Profile.rpython_interp}).  Resets
      this domain's code table. *)

  val compile : string -> code
  (** Compile source to bytecode, raising the language's syntax or
      compile error on invalid programs.  Code objects live in the
      domain's code table, keyed by [code_ref]. *)

  val run_code : t -> code -> Driver.outcome
  val run_source : t -> string -> Driver.outcome

  val compile_bundle : string -> bundle
  (** Compile source and snapshot the resulting code-table state.  Call
      on a freshly created VM's domain (the table must hold exactly this
      program). *)

  val import_bundle : t -> bundle -> unit
  (** Re-register a bundle's code objects into this domain's table,
      replacing its contents.  Must run right after {!create} (which
      reset the table), before the VM executes anything. *)

  val run_bundle : t -> bundle -> Driver.outcome
  (** Run a bundle's entry code ({!import_bundle} first on warm VMs). *)

  val bundle_size : bundle -> int
  (** Number of code objects in the bundle (what a warm request records
      as shared-cache code hits). *)

  val export_profile : t -> Traceprofile.t
  (** Snapshot this VM's learned trace profile — compiled loop sites
      (with their converged tier) and translated code refs — as a
      context-free artifact for {!Sharedcache}.  Call after an unseeded
      run so the profile is deterministic per program and config. *)

  val seed_profile : t -> Traceprofile.t -> unit
  (** Seed a fresh VM from a publisher's profile: hot loop sites start
      one header visit short of the tracing threshold (carrying the
      publisher's promotion decision as a hint) and profiled code
      objects are translated to step arrays up front.  Must run after
      {!import_bundle}, before the VM executes anything.  Changes only
      when the simulated machine traces, never program output. *)

  val run :
    ?config:Config.t -> ?profile:Profile.t -> string -> Driver.outcome * t
  (** Convenience: fresh VM, compile and run, return the outcome and the
      VM for inspection. *)

  val output : t -> string
  (** Everything the program printed (kept off stdout for the harness). *)

  val rtc : t -> Ctx.t
  val engine : t -> Mtj_machine.Engine.t
  val jitlog : t -> Jitlog.t
  val globals : t -> Globals.t
end

module Make (L : Driver.LANG) : S with type code = L.code = struct
  module D = Driver.Make (L)

  type code = L.code
  type t = { rtc : Ctx.t; driver : D.t }

  type bundle = {
    b_entry : code;
    b_codes : code list;  (* sorted by id; includes [b_entry] *)
    b_next_id : int;
  }

  type Sharedcache.entry += Bundle of bundle

  let lang_name = L.Table.lang_name

  let create ?(config = Config.default) ?(profile = Profile.rpython_interp) () =
    (* fresh per-VM code-id sequence: simulated behaviour must not depend
       on what compiled before us on this domain (see Code_table) *)
    L.Table.reset ();
    let rtc = Ctx.create ~config () in
    (* before [install_globals]: its set-up work is charged at this width *)
    Mtj_machine.Engine.set_interp_width (Ctx.engine rtc)
      profile.Profile.interp_width;
    let globals = Globals.create () in
    L.install_globals rtc globals;
    { rtc; driver = D.create ~profile rtc globals }

  let rtc t = t.rtc
  let engine t = Ctx.engine t.rtc
  let jitlog t = D.jitlog t.driver
  let globals t = D.globals t.driver
  let output t = Buffer.contents (Ctx.out t.rtc)
  let compile = L.compile
  let run_code t code : Driver.outcome = D.run t.driver code
  let run_source t src = run_code t (compile src)

  (* Importing reproduces exactly the code-table state a fresh compile
     would have built (ids restart per VM), so a warm request's
     simulated behaviour is byte-identical to a cold one's: compilation
     itself charges nothing to the simulated machine, only host wall
     time. *)

  let bundle_size b = List.length b.b_codes

  let compile_bundle src =
    let entry = compile src in
    let codes, next_id = L.Table.export_bundle () in
    { b_entry = entry; b_codes = codes; b_next_id = next_id }

  let import_bundle (_ : t) b =
    L.Table.import_bundle b.b_codes ~next_id:b.b_next_id

  let run_bundle t b = run_code t b.b_entry

  (* trace-profile seeding (DESIGN.md §3m) *)
  let export_profile t = D.export_profile t.driver
  let seed_profile t p = D.seed_profile t.driver p

  let run ?config ?profile src =
    let t = create ?config ?profile () in
    let outcome = run_source t src in
    (outcome, t)
end
