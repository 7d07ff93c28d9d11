(* The traced run's view of the layers, measured from outside the
   program: a listener on the engine's public annotation stream plus
   timers around calls into public functions.

   On each [Phase_push]/[Phase_pop] the listener charges the host time
   and minor words elapsed since the previous phase change to the phase
   on top of its own stack, so every phase gets its self time.
   [Aot_enter]..[Aot_exit] spans (outermost only) time the runtime
   library wherever it is called from.  Floats the listener updates
   live in float arrays, which OCaml stores unboxed, so the listener
   itself allocates nothing and does not pollute the words it counts. *)

open Mtj_core
module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters

(* a timed stage: total host ns and number of calls *)
type stage = { mutable ns : int; mutable calls : int }

let stage () = { ns = 0; calls = 0 }

let timed st f =
  let t0 = Util.now_ns () in
  let v = f () in
  st.ns <- st.ns + (Util.now_ns () - t0);
  st.calls <- st.calls + 1;
  v

let stage_us st = if st.calls = 0 then 0.0 else float_of_int st.ns /. 1e3 /. float_of_int st.calls
let stage_s st = float_of_int st.ns *. 1e-9

type t = {
  (* phase listener *)
  phase_ns : int array;        (* self host ns per [Phase.index] *)
  phase_words : float array;   (* minor words allocated per phase *)
  phase_insns : int array;     (* simulated insns per phase *)
  mutable stack : int array;
  mutable depth : int;
  mutable last_ns : int;
  last_words : float array;    (* one cell *)
  mutable aot_depth : int;
  mutable aot_t0 : int;
  mutable aot_ns : int;
  mutable aot_calls : int;
  mutable compiles : int;
  mutable aborts : int;
  mutable guard_fails : int;
  mutable enters : int;
  (* counters read from the public results after each run *)
  mutable charge_flushes : int;
  mutable fast_path_bundles : int;
  mutable imm_fast : int;
  mutable typed_ops : int;
  mutable minor_collections : int;
  (* timers around public calls *)
  frontend : stage;            (* source -> bytecode *)
  opt : stage;                 (* Opt.optimize replay *)
  backend : stage;             (* Backend.compile replay *)
  translate : stage;           (* Executor.precompile replay *)
  mutable ops_in : int;
  mutable ops_out : int;
  create : stage;              (* serve stages *)
  find : stage;
  publish : stage;
  import : stage;
  seed : stage;
  run_cold : stage;
  run_warm : stage;
  export_profile : stage;
}

let create () =
  {
    phase_ns = Array.make Phase.count 0;
    phase_words = Array.make Phase.count 0.0;
    phase_insns = Array.make Phase.count 0;
    stack = Array.make 64 0;
    depth = 0;
    last_ns = 0;
    last_words = [| 0.0 |];
    aot_depth = 0;
    aot_t0 = 0;
    aot_ns = 0;
    aot_calls = 0;
    compiles = 0;
    aborts = 0;
    guard_fails = 0;
    enters = 0;
    charge_flushes = 0;
    fast_path_bundles = 0;
    imm_fast = 0;
    typed_ops = 0;
    minor_collections = 0;
    frontend = stage ();
    opt = stage ();
    backend = stage ();
    translate = stage ();
    ops_in = 0;
    ops_out = 0;
    create = stage ();
    find = stage ();
    publish = stage ();
    import = stage ();
    seed = stage ();
    run_cold = stage ();
    run_warm = stage ();
    export_profile = stage ();
  }

let charge t =
  let now = Util.now_ns () and words = Gc.minor_words () in
  let ph = t.stack.(t.depth - 1) in
  t.phase_ns.(ph) <- t.phase_ns.(ph) + (now - t.last_ns);
  t.phase_words.(ph) <- t.phase_words.(ph) +. (words -. t.last_words.(0));
  t.last_ns <- now;
  t.last_words.(0) <- words

let push t ph =
  if t.depth = Array.length t.stack then begin
    let grown = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 grown 0 t.depth;
    t.stack <- grown
  end;
  t.stack.(t.depth) <- ph;
  t.depth <- t.depth + 1

let listener t ~insns:_ (a : Annot.t) =
  match a with
  | Annot.Phase_push p ->
      charge t;
      push t (Phase.index p)
  | Annot.Phase_pop _ ->
      charge t;
      if t.depth > 1 then t.depth <- t.depth - 1
  | Annot.Aot_enter _ ->
      t.aot_calls <- t.aot_calls + 1;
      if t.aot_depth = 0 then t.aot_t0 <- Util.now_ns ();
      t.aot_depth <- t.aot_depth + 1
  | Annot.Aot_exit _ ->
      t.aot_depth <- t.aot_depth - 1;
      if t.aot_depth = 0 then t.aot_ns <- t.aot_ns + (Util.now_ns () - t.aot_t0)
  | Annot.Trace_compile _ -> t.compiles <- t.compiles + 1
  | Annot.Trace_abort _ -> t.aborts <- t.aborts + 1
  | Annot.Guard_fail _ -> t.guard_fails <- t.guard_fails + 1
  | Annot.Trace_enter _ -> t.enters <- t.enters + 1
  | _ -> ()

(* start timing a fresh engine, right before it runs the program *)
let attach t eng =
  t.depth <- 0;
  push t (Phase.index (Engine.current_phase eng));
  t.aot_depth <- 0;
  t.last_ns <- Util.now_ns ();
  t.last_words.(0) <- Gc.minor_words ();
  Engine.add_listener eng (listener t)

(* close the last segment and add the engine's per-phase insns *)
let finish t eng =
  charge t;
  let c = Engine.counters eng in
  List.iter
    (fun p ->
      let i = Phase.index p in
      t.phase_insns.(i) <- t.phase_insns.(i) + (Counters.phase c p).Counters.insns)
    Phase.all

(* counters a run's public results expose, summed over runs *)
let count t ~charge_flushes ~fast_path_bundles ~imm_fast ~typed_ops ~minor_collections =
  t.charge_flushes <- t.charge_flushes + charge_flushes;
  t.fast_path_bundles <- t.fast_path_bundles + fast_path_bundles;
  t.imm_fast <- t.imm_fast + imm_fast;
  t.typed_ops <- t.typed_ops + typed_ops;
  t.minor_collections <- t.minor_collections + minor_collections

(* --- optimizer and backend replay ---

   Replays raw tier-1 recordings through the optimizing tier's
   pipeline into a scratch context, timing each public entry point.
   Each call gets a deep copy ([Ir.copy_ops]), as the driver's own
   recompiles do: the recorded guards still carry the fail counts and
   bridges of the run that recorded them. *)
let replay t ~(config : Config.t) (traces : Mtj_rjit.Ir.trace list) =
  let module Ir = Mtj_rjit.Ir in
  (* unbounded, so the backend's simulated assembling cost never stops
     the replay at the workload's budget *)
  let rtc = Mtj_rt.Ctx.create ~config:(Config.with_budget max_int config) () in
  let jl = Mtj_rjit.Jitlog.create () in
  List.iter
    (fun (tr : Ir.trace) ->
      let ops = Ir.copy_ops tr.Ir.ops in
      let kind = match tr.Ir.kind with Ir.Loop _ -> `Loop | Ir.Bridge _ -> `Bridge in
      let entry_slots = tr.Ir.entry_slots in
      let ops', loop_base, loop_start =
        timed t.opt (fun () -> Mtj_rjit.Opt.optimize config ~kind ops ~entry_slots)
      in
      t.ops_in <- t.ops_in + Array.length ops;
      t.ops_out <- t.ops_out + Array.length ops';
      let compiled =
        timed t.backend (fun () ->
            Mtj_rjit.Backend.compile jl rtc ~kind:tr.Ir.kind ~entry_slots
              ~loop_base ~loop_start ops')
      in
      (* [Backend.compile] already translated once; invalidating forces
         a fresh translation to time on its own *)
      Ir.invalidate_code compiled;
      timed t.translate (fun () -> Mtj_rjit.Executor.precompile rtc jl compiled))
    traces

(* --- the per-layer metrics --- *)

let phase_s t ps =
  Util.sum (List.map (fun p -> float_of_int t.phase_ns.(Phase.index p) *. 1e-9) ps)

let per_op st n = if n = 0 then 0.0 else float_of_int st.ns /. 1e3 /. float_of_int n

(* every per-layer metric of the benchmark, in BENCHMARK.json order;
   layers a workload never reaches read 0 *)
let metrics t ~cache ~seeded_share ~overhead_s ~overhead_share ~drift =
  let open Util in
  let f = float_of_int in
  let interp = Phase.index Phase.Interpreter and jit = Phase.index Phase.Jit in
  let per_insn num i = if t.phase_insns.(i) = 0 then 0.0 else num /. f t.phase_insns.(i) in
  let module S = Mtj_rjit.Sharedcache in
  let hits = f (cache.S.shared_hits + cache.S.local_hits) in
  [
    m "frontend.compile_us" "us" (stage_us t.frontend);
    m "frontend.compiles" "count" (f t.frontend.calls);
    m "interp.host_s" "s" (phase_s t [ Phase.Interpreter ]);
    m "interp.ns_per_insn" "ns/insn" (per_insn (f t.phase_ns.(interp)) interp);
    m "interp.words_per_insn" "words/insn" (per_insn t.phase_words.(interp) interp);
    m "tracing.host_s" "s" (phase_s t [ Phase.Tracing ]);
    m "tracing.traces" "count" (f t.compiles);
    m "tracing.aborts" "count" (f t.aborts);
    m "opt.host_s" "s" (stage_s t.opt);
    m "opt.us_per_op" "us/op" (per_op t.opt t.ops_in);
    m "opt.ops_in" "count" (f t.ops_in);
    m "opt.ops_out" "count" (f t.ops_out);
    m "backend.host_s" "s" (stage_s t.backend);
    m "backend.us_per_op" "us/op" (per_op t.backend t.ops_out);
    m "executor.host_s" "s" (phase_s t [ Phase.Jit ]);
    m "executor.ns_per_insn" "ns/insn" (per_insn (f t.phase_ns.(jit)) jit);
    m "executor.words_per_insn" "words/insn" (per_insn t.phase_words.(jit) jit);
    m "executor.enters" "count" (f t.enters);
    m "executor.translate_us" "us" (stage_us t.translate);
    m "blackhole.host_s" "s" (phase_s t [ Phase.Blackhole ]);
    m "blackhole.guard_fails" "count" (f t.guard_fails);
    m "aot.host_s" "s" (f t.aot_ns *. 1e-9);
    m "aot.calls" "count" (f t.aot_calls);
    m "rt.imm_fast_share" "ratio" (ratio (f t.imm_fast) (f t.typed_ops));
    m "gc.host_s" "s" (phase_s t [ Phase.Gc_minor; Phase.Gc_major ]);
    m "gc.minor_collections" "count" (f t.minor_collections);
    m "machine.charge_flushes" "count" (f t.charge_flushes);
    m "machine.fast_path_bundles" "count" (f t.fast_path_bundles);
    m "cache.find_us" "us" (stage_us t.find);
    m "cache.publish_us" "us" (stage_us t.publish);
    m "cache.hit_ratio" "ratio" (ratio hits (hits +. f cache.S.misses));
    m "cache.evictions" "count" (f cache.S.evictions);
    m "cache.requeues" "count" (f cache.S.requeues);
    m "cache.contention" "count" (f cache.S.contention);
    m "serve.create_us" "us" (stage_us t.create);
    m "serve.import_us" "us" (stage_us t.import);
    m "serve.seed_us" "us" (stage_us t.seed);
    m "serve.run_cold_us" "us" (stage_us t.run_cold);
    m "serve.run_warm_us" "us" (stage_us t.run_warm);
    m "serve.export_profile_us" "us" (stage_us t.export_profile);
    m "serve.seeded_share" "ratio" seeded_share;
    m "trace.overhead_s" "s" overhead_s;
    m "trace.overhead_share" "ratio" overhead_share;
    m "sim.drift_rows" "count" (f drift);
  ]
