(* The two language VMs behind one signature, so each traced path is
   written once.  Everything here calls the VMs' public surface only. *)

open Mtj_core
module B = Mtj_benchmarks.Registry
module Engine = Mtj_machine.Engine
module Driver = Mtj_rjit.Driver
module Jitlog = Mtj_rjit.Jitlog
module Sharedcache = Mtj_rjit.Sharedcache
module Pintool = Mtj_pintool

module type VM = sig
  type t
  type code
  type bundle

  val lang : B.lang
  val create : ?config:Config.t -> ?profile:Profile.t -> unit -> t
  val compile : string -> code
  val run_code : t -> code -> Driver.outcome
  val compile_bundle : string -> bundle
  val import_bundle : t -> bundle -> unit
  val run_bundle : t -> bundle -> Driver.outcome
  val bundle_size : bundle -> int
  val export_profile : t -> Mtj_rjit.Traceprofile.t
  val seed_profile : t -> Mtj_rjit.Traceprofile.t -> unit
  val output : t -> string
  val rtc : t -> Mtj_rt.Ctx.t
  val engine : t -> Engine.t
  val jitlog : t -> Jitlog.t
end

module Py_vm : VM = struct
  include Mtj_pylite.Vm

  type code = Mtj_pylite.Bytecode.code

  let lang = B.Py
end

module Rk_vm : VM = struct
  include Mtj_rklite.Kvm

  type code = Mtj_rklite.Kbytecode.code

  let lang = B.Rk
end

(* the serving harness's status strings and output digest: a replayed
   request must reproduce the session's [r_out_digest] exactly *)
let status_of = function
  | Driver.Completed _ -> "ok"
  | Driver.Budget_exceeded -> "budget"
  | Driver.Runtime_error e -> "failed:" ^ e

let out_digest ~status ~output = Digest.to_hex (Digest.string (status ^ "|" ^ output))

let lang_name = function B.Py -> "py" | B.Rk -> "rk"

(* what one simulated run left behind *)
type run = {
  status : string;
  output : string;
  insns : int;
  cycles : float;
}

module Ops (V : VM) = struct
  type Sharedcache.entry += Bundle of V.bundle

  let source name = (B.find_exn ~lang:V.lang name).B.source

  let result vm outcome =
    let eng = V.engine vm in
    {
      status = status_of outcome;
      output = V.output vm;
      insns = Engine.total_insns eng;
      cycles = Engine.total_cycles eng;
    }

  (* One matrix row exactly as [Runner.run] simulates it — same config,
     profile and pintool listeners — with the probe attached as well
     and the front end timed on its own. *)
  let matrix_row (p : Probe.t) ~config ~profile name =
    let vm = V.create ~config ~profile () in
    let eng = V.engine vm in
    let tracker = Pintool.Phase_tracker.attach eng in
    let sampler = Pintool.Rate_sampler.attach eng in
    ignore (Pintool.Aot_attrib.attach eng : Pintool.Aot_attrib.t);
    let code = Probe.timed p.Probe.frontend (fun () -> V.compile (source name)) in
    Probe.attach p eng;
    let outcome = V.run_code vm code in
    Probe.finish p eng;
    Pintool.Phase_tracker.finalize tracker;
    Pintool.Rate_sampler.finalize sampler;
    result vm outcome

  (* a fresh VM parses and compiles the program: the matrices' set-up *)
  let front_end name = ignore (V.create () : V.t); ignore (V.compile (source name) : V.code)

  (* the raw tier-1 recordings a baseline-tier run leaves in its log *)
  let recordings ~config name =
    let vm = V.create ~config ~profile:Profile.rpython_interp () in
    ignore (V.run_code vm (V.compile (source name)) : Driver.outcome);
    Jitlog.traces (V.jitlog vm)

  (* simulated work of a cold request (compile, run, publish the
     profile) and of a warm, profile-seeded one, for one program *)
  let cold_and_warm ~config name =
    let cold = V.create ~config () in
    let bu = V.compile_bundle (source name) in
    let c = result cold (V.run_bundle cold bu) in
    let prof = V.export_profile cold in
    let warm = V.create ~config () in
    V.import_bundle warm bu;
    V.seed_profile warm prof;
    (c, result warm (V.run_bundle warm bu))

  (* One serving request, replaying [Serve]'s request path stage by
     stage with a timer around each public call. *)
  let serve_request (p : Probe.t) ~cache ~config ~cfg_digest name =
    let vm = Probe.timed p.Probe.create (fun () -> V.create ~config ()) in
    let key = Sharedcache.key ~lang:(lang_name V.lang) ~program:name ~config_digest:cfg_digest in
    let uid = Mtj_rt.Ctx.uid (V.rtc vm) in
    let found = Probe.timed p.Probe.find (fun () -> Sharedcache.find_with_profile cache ~ctx_uid:uid key) in
    let run st bu =
      Probe.attach p (V.engine vm);
      let o = Probe.timed st (fun () -> V.run_bundle vm bu) in
      Probe.finish p (V.engine vm);
      o
    in
    let warm, seeded, published, outcome =
      match found with
      | Some (Bundle bu, prof) ->
          Probe.timed p.Probe.import (fun () -> V.import_bundle vm bu);
          Jitlog.record_shared_code_hits (V.jitlog vm) ~n:(V.bundle_size bu);
          let seeded =
            match prof with
            | Some pr ->
                Probe.timed p.Probe.seed (fun () -> V.seed_profile vm pr);
                true
            | None -> false
          in
          (true, seeded, false, run p.Probe.run_warm bu)
      | Some _ | None ->
          let bu = Probe.timed p.Probe.frontend (fun () -> V.compile_bundle (source name)) in
          let tenant = lang_name V.lang ^ ":" ^ name in
          let pr =
            Probe.timed p.Probe.publish (fun () ->
                Sharedcache.publish cache ~ctx_uid:uid ~tenant key (Bundle bu))
          in
          (false, false, pr = Sharedcache.Published, run p.Probe.run_cold bu)
    in
    (* [Probe.finish] flushed the staged counters, so these are final *)
    let eng = V.engine vm and rtc = V.rtc vm in
    let hs = Mtj_rt.Ctx.hstats rtc in
    Probe.count p ~charge_flushes:(Engine.charge_flushes eng)
      ~fast_path_bundles:(Engine.fast_path_bundles eng)
      ~imm_fast:hs.Mtj_rt.Hstats.imm_fast_path_hits ~typed_ops:hs.Mtj_rt.Hstats.typed_ops_total
      ~minor_collections:(Mtj_rt.Gc_sim.stats (Mtj_rt.Ctx.gc rtc)).Mtj_rt.Gc_sim.minor_collections;
    (match outcome with
    | Driver.Runtime_error _ -> Sharedcache.invalidate cache key
    | _ ->
        if published then
          let prof = Probe.timed p.Probe.export_profile (fun () -> V.export_profile vm) in
          ignore (Sharedcache.attach_profile cache key prof : bool));
    (warm, seeded, result vm outcome)
end

module Py = Ops (Py_vm)
module Rk = Ops (Rk_vm)
