(** Differential test of the threaded-dispatch interpreter (translate-
    once handler-closure arrays with fused superinstructions) against
    the decode-and-match oracle ({!Ref_dispatch}: the reference handler
    [Step.step_ref] bound at every pc).

    Whole programs run twice — production VM and oracle, both built by
    [Vm.Make] — with a {!Mtj_obs.Sink} attached, for both languages.
    Everything observable must be BYTE-IDENTICAL: program output,
    outcome status (including budget-exhaustion points landed mid-run),
    per-phase counters (float cycles compared exactly via [%.17g]),
    engine totals, the sink's event stream (phase crossings interpreter
    → trace → blackhole included) and counter samples, and the jitlog's
    compilation statistics.  The translation-cache counters
    ([interp_translations]/[threaded_code_hits]) are excluded; instead
    the oracle's liveness is asserted: it called [step_ref] once per
    interpreter dispatch tick, so a reference side that silently ran the
    production translator would fail.

    Programs come from a deterministic pool plus a QCheck generator of
    random (terminating-by-construction) pylite sources and randomly
    parameterized rklite templates, swept across JIT modes and
    budgets. *)

module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters
module Sink = Mtj_obs.Sink
module Phase = Mtj_core.Phase
module Config = Mtj_core.Config
module Jitlog = Mtj_rjit.Jitlog
module Driver = Mtj_rjit.Driver

type lang = Mtj_benchmarks.Registry.lang = Py | Rk

(* ---------- digesting a run ---------- *)

let snap_str (s : Counters.snapshot) =
  Printf.sprintf "i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" s.Counters.insns
    s.Counters.cycles s.Counters.branches s.Counters.branch_misses
    s.Counters.loads s.Counters.stores s.Counters.cache_misses

let counters_digest eng =
  let c = Engine.counters eng in
  String.concat "\n"
    (List.map
       (fun p -> Phase.name p ^ ": " ^ snap_str (Counters.phase c p))
       Phase.all
    @ [
        "total " ^ snap_str (Counters.total c);
        Printf.sprintf "eng i=%d cy=%.17g" (Engine.total_insns eng)
          (Engine.total_cycles eng);
      ])

let events_digest sink =
  let buf = Buffer.create 1024 in
  Sink.iter_events sink (fun e ->
      let name =
        match e.Sink.kind with
        | Sink.Phase_begin p -> "push:" ^ Phase.name p
        | Sink.Phase_end p -> "pop:" ^ Phase.name p
        | Sink.Trace_enter id -> Printf.sprintf "trace_enter:%d" id
        | Sink.Trace_exit id -> Printf.sprintf "trace_exit:%d" id
        | Sink.Guard_fail id -> Printf.sprintf "guard_fail:%d" id
        | Sink.Trace_compile id -> Printf.sprintf "trace_compile:%d" id
        | Sink.Trace_abort cr -> Printf.sprintf "trace_abort:%d" cr
        | Sink.Marker n -> Printf.sprintf "marker:%d" n
      in
      Buffer.add_string buf
        (Printf.sprintf "%s@%d cy=%.17g\n" name e.Sink.at_insns e.Sink.at_cycles));
  Buffer.contents buf

let samples_digest sink =
  String.concat "\n"
    (List.map
       (fun (s : Sink.sample) ->
         Printf.sprintf "@%d cy=%.17g ticks=%d %s" s.Sink.s_insns
           s.Sink.s_cycles s.Sink.s_ticks (snap_str s.Sink.s_counters))
       (Sink.samples sink))

(* compile/run statistics that must agree between dispatch modes; the
   translation-cache counters are deliberately excluded *)
let jitlog_digest (jl : Jitlog.t) =
  Printf.sprintf
    "traces=%d aborts=%d deopts=%d bridges=%d blacklisted=%d retiers=%d \
     translations=%d cache_hits=%d ir=%d dyn_ir=%d"
    (Jitlog.num_traces jl) jl.Jitlog.aborts jl.Jitlog.deopts
    jl.Jitlog.bridges_attached jl.Jitlog.blacklisted jl.Jitlog.retiers
    jl.Jitlog.translations jl.Jitlog.code_cache_hits
    (Jitlog.snapshot jl).Jitlog.total_ir_compiled
    (Jitlog.snapshot jl).Jitlog.total_dynamic_ir

let outcome_str = function
  | Driver.Completed _ -> "ok"
  | Driver.Budget_exceeded -> "budget"
  | Driver.Runtime_error e -> "error: " ^ e

type run = { digest : string; jitlog : Jitlog.t; interp_ticks : int }

(* dispatch ticks annotated while the interpreter phase is current: one
   per bytecode the interpreter dispatched (the recorder and the trace
   executor tick under their own phases) *)
let count_interp_ticks eng =
  let n = ref 0 in
  Engine.add_listener eng (fun ~insns:_ a ->
      match a with
      | Mtj_core.Annot.Dispatch_tick
        when Engine.current_phase eng = Phase.Interpreter ->
          incr n
      | _ -> ());
  n

let observe (module V : Mtj_rjit.Vm.S) ~config src : run =
  let vm = V.create ~config () in
  let eng = V.engine vm in
  let sink = Sink.attach ~capacity:(1 lsl 16) ~counter_window:256 eng in
  let ticks = count_interp_ticks eng in
  let outcome = V.run_source vm src in
  Sink.finalize sink;
  {
    digest =
      String.concat "\n---\n"
        [
          outcome_str outcome;
          V.output vm;
          counters_digest eng;
          events_digest sink;
          samples_digest sink;
          jitlog_digest (V.jitlog vm);
        ];
    jitlog = V.jitlog vm;
    interp_ticks = !ticks;
  }

(* run the production VM and the decode-and-match oracle and require
   byte-identical digests; the production run translated code, and the
   oracle really ran its reference handler — once per interpreter
   dispatch tick *)
let check_diff name ~lang ~config src =
  let (module O) = Ref_dispatch.of_lang lang in
  let t = observe (Mtj_harness.Runner.vm_of lang) ~config src in
  let calls0 = O.step_ref_calls () in
  let r = observe (module O) ~config src in
  let calls = O.step_ref_calls () - calls0 in
  Alcotest.(check string) name r.digest t.digest;
  Alcotest.(check bool)
    (name ^ ": threaded run translated code")
    true
    (t.jitlog.Jitlog.interp_translations > 0);
  Alcotest.(check bool) (name ^ ": oracle ran step_ref") true (calls > 0);
  Alcotest.(check int)
    (name ^ ": oracle step_ref calls = interpreter dispatch ticks")
    r.interp_ticks calls

(* ---------- deterministic programs ---------- *)

(* hot loop, compiled trace, then a guard that starts failing: exercises
   interpreter → tracing → jit → blackhole → interpreter crossings *)
let py_deopt =
  "def f(n):\n\
  \    s = 0\n\
  \    for i in range(n):\n\
  \        if i < 1500:\n\
  \            s = s + i\n\
  \        else:\n\
  \            s = s + i * 2\n\
  \    return s\n\
   print(f(3000))\n"

let py_calls =
  "def sq(x):\n\
  \    return x * x\n\
   def f(n):\n\
  \    s = 0\n\
  \    for i in range(n):\n\
  \        s = (s + sq(i)) % 9973\n\
  \    return s\n\
   print(f(2500))\n"

let py_nested =
  "def f(n):\n\
  \    s = 0\n\
  \    for i in range(n):\n\
  \        for j in range(10):\n\
  \            s = s + i - j\n\
  \    return s\n\
   print(f(400))\n"

let py_datatypes =
  "xs = []\n\
   for i in range(300):\n\
  \    xs = xs + [i * i]\n\
   d = {}\n\
   d[1] = len(xs)\n\
   print(d[1])\n\
   print(xs[299])\n"

let rk_tail =
  "(define (loop i acc)\n\
  \  (if (< i 6000) (loop (+ i 1) (+ acc i)) acc))\n\
   (display (loop 0 0))\n\
   (newline)\n"

let rk_deopt =
  "(define (step i acc)\n\
  \  (if (< i 1500) (+ acc i) (+ acc (* i 2))))\n\
   (define (loop i acc)\n\
  \  (if (< i 3000) (loop (+ i 1) (step i acc)) acc))\n\
   (display (loop 0 0))\n\
   (newline)\n"

let rk_lists =
  "(define (build i acc)\n\
  \  (if (< i 400) (build (+ i 1) (cons i acc)) acc))\n\
   (define (sum xs acc)\n\
  \  (if (null? xs) acc (sum (cdr xs) (+ acc (car xs)))))\n\
   (display (sum (build 0 '()) 0))\n\
   (newline)\n"

let deterministic_pool =
  [
    ("py deopt crossing", Py, py_deopt);
    ("py calls", Py, py_calls);
    ("py nested loops", Py, py_nested);
    ("py datatypes", Py, py_datatypes);
    ("rk tailcall loop", Rk, rk_tail);
    ("rk deopt crossing", Rk, rk_deopt);
    ("rk lists", Rk, rk_lists);
  ]

let configs =
  [
    ("jit", Config.default);
    ("nojit", Config.no_jit);
    ("2tier", Config.two_tier);
  ]

let test_deterministic () =
  List.iter
    (fun (name, lang, src) ->
      List.iter
        (fun (cname, base) ->
          check_diff
            (Printf.sprintf "%s [%s]" name cname)
            ~lang
            ~config:(Config.with_budget 30_000_000 base)
            src)
        configs)
    deterministic_pool

let test_budget_exhaustion () =
  (* small budgets land the exhaustion point mid-run — inside the
     threaded loop, inside compiled traces, inside the JIT portal — and
     the stop point must be identical in both modes *)
  List.iter
    (fun budget ->
      List.iter
        (fun (name, lang, src) ->
          check_diff
            (Printf.sprintf "%s [budget %d]" name budget)
            ~lang
            ~config:(Config.with_budget budget Config.default)
            src)
        deterministic_pool)
    [ 1_000; 10_000; 100_000 ]

(* ---------- random programs ---------- *)

(* pylite: terminating by construction (for-range over constants only);
   division-free arithmetic plus [%] by positive constants *)
let gen_py_program rng =
  let buf = Buffer.create 256 in
  let vars = [| "a"; "b"; "c" |] in
  let var () = vars.(Random.State.int rng 3) in
  let rec expr depth =
    if depth = 0 then
      if Random.State.bool rng then var ()
      else string_of_int (Random.State.int rng 20)
    else
      match Random.State.int rng 5 with
      | 0 -> Printf.sprintf "(%s + %s)" (expr (depth - 1)) (expr (depth - 1))
      | 1 -> Printf.sprintf "(%s - %s)" (expr (depth - 1)) (expr (depth - 1))
      | 2 -> Printf.sprintf "(%s * %s)" (expr (depth - 1)) (expr (depth - 1))
      | 3 ->
          Printf.sprintf "(%s %% %d)" (expr (depth - 1))
            (1 + Random.State.int rng 97)
      | _ -> Printf.sprintf "sq(%s)" (expr (depth - 1))
  in
  Buffer.add_string buf "def sq(x):\n    return x * x\n";
  Buffer.add_string buf "a = 1\nb = 2\nc = 3\n";
  let stmt indent =
    let pad = String.make indent ' ' in
    match Random.State.int rng 3 with
    | 0 -> Printf.sprintf "%s%s = %s\n" pad (var ()) (expr 2)
    | 1 ->
        Printf.sprintf "%sif %s < %s:\n%s    %s = %s\n%selse:\n%s    %s = %s\n"
          pad (var ()) (expr 1) pad (var ()) (expr 2) pad pad (var ()) (expr 2)
    | _ ->
        Printf.sprintf "%sfor i%d in range(%d):\n%s    %s = %s + i%d\n" pad
          indent
          (2 + Random.State.int rng 30)
          pad (var ()) (var ()) indent
  in
  let n_top = 2 + Random.State.int rng 4 in
  for _ = 1 to n_top do
    if Random.State.int rng 3 = 0 then begin
      (* a loop wrapping further statements, long enough to go hot *)
      Buffer.add_string buf
        (Printf.sprintf "for k in range(%d):\n" (50 + Random.State.int rng 400));
      let body = 1 + Random.State.int rng 2 in
      for _ = 1 to body do
        Buffer.add_string buf (stmt 4)
      done
    end
    else Buffer.add_string buf (stmt 0)
  done;
  Buffer.add_string buf "print(a + b + c)\n";
  Buffer.contents buf

(* rklite: a tail-recursive loop template with random constants and a
   random accumulator expression *)
let gen_rk_program rng =
  let iters = 100 + Random.State.int rng 4000 in
  let flip = Random.State.int rng iters in
  let m = 1 + Random.State.int rng 97 in
  Printf.sprintf
    "(define (loop i acc)\n\
    \  (if (< i %d)\n\
    \      (loop (+ i 1)\n\
    \            (if (< i %d) (+ acc (* i %d)) (remainder (+ acc i) %d)))\n\
    \      acc))\n\
     (display (loop 0 0))\n\
     (newline)\n"
    iters flip
    (1 + Random.State.int rng 5)
    m

let prop_random_programs =
  QCheck.Test.make ~count:40
    ~name:"threaded dispatch is byte-identical on random programs"
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed; 0xD15C |] in
      let lang, src =
        if Random.State.bool rng then (Py, gen_py_program rng)
        else (Rk, gen_rk_program rng)
      in
      let base =
        [| Config.default; Config.no_jit; Config.two_tier |].(Random.State.int
                                                                rng 3)
      in
      let budget =
        match Random.State.int rng 3 with
        | 0 -> 2_000 + Random.State.int rng 50_000
        | _ -> 10_000_000
      in
      let config = Config.with_budget budget base in
      let t = observe (Mtj_harness.Runner.vm_of lang) ~config src in
      let r = observe (Ref_dispatch.vm_of lang) ~config src in
      if t.digest <> r.digest then
        QCheck.Test.fail_reportf
          "seed %d diverged on:\n%s\n--- reference:\n%s\n--- threaded:\n%s"
          seed src r.digest t.digest
      else true)

(* ---------- satellite checks ---------- *)

let test_builtin_of_tag_bounds () =
  let module Builtin = Mtj_rjit.Builtin in
  let raises i =
    match Builtin.of_tag i with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative tag raises" true (raises (-1));
  Alcotest.(check bool) "huge tag raises" true (raises 100_000);
  (* every valid builtin round-trips through its tag *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Builtin.name b ^ " round-trips")
        true
        (Builtin.of_tag (Builtin.tag b) == b))
    Builtin.all

module type PY_VM = Mtj_rjit.Vm.S with type code = Mtj_pylite.Bytecode.code

let test_stale_code_ref_fails_at_translation () =
  (* hand-patch a compiled program so an unreachable MAKE_FUNCTION
     carries a dangling code_ref.  The oracle never executes the
     instruction and completes; the threaded translator validates every
     code_ref up front and must fail at translation, not mid-run. *)
  let patched (module V : PY_VM) =
    (* each VM compiles its own copy: create resets the code table *)
    let vm = V.create ~config:Config.default () in
    let code =
      V.compile
        "def g():\n\
        \    return 1\n\
         if 1 < 0:\n\
        \    def h():\n\
        \        return 2\n\
         print(g())\n"
    in
    (* retarget the MAKE_FUNCTION for h (on the dead branch) at a code
       id that was never registered *)
    let seen = ref 0 in
    Array.iteri
      (fun i instr ->
        match instr with
        | Mtj_pylite.Bytecode.MAKE_FUNCTION { fname = "h"; arity; _ } ->
            incr seen;
            code.Mtj_pylite.Bytecode.instrs.(i) <-
              Mtj_pylite.Bytecode.MAKE_FUNCTION
                { code_ref = 987_654; fname = "h"; arity }
        | _ -> ())
      code.Mtj_pylite.Bytecode.instrs;
    Alcotest.(check int) "patched the dead MAKE_FUNCTION" 1 !seen;
    match V.run_code vm code with
    | o -> Ok (o, V.output vm)
    | exception Invalid_argument msg -> Error (msg, V.output vm)
  in
  (* oracle: the dangling ref is never reached, the run completes *)
  (match patched (module Ref_dispatch.Py) with
  | Ok (Driver.Completed _, out) ->
      Alcotest.(check string) "program ran" "1\n" out
  | Ok (o, _) ->
      Alcotest.failf "oracle run should complete, got %s" (outcome_str o)
  | Error (msg, _) -> Alcotest.failf "oracle run raised %s" msg);
  (* threaded loop: translating the toplevel code validates every ref *)
  match patched (module Mtj_pylite.Vm) with
  | Error (msg, out) ->
      Alcotest.(check bool)
        "translation error names the code_ref" true
        (String.length msg > 0);
      Alcotest.(check string) "nothing executed before the failure" "" out
  | Ok (o, _) ->
      Alcotest.failf "threaded run should fail at translation, got %s"
        (outcome_str o)

let suite =
  [
    Alcotest.test_case "deterministic programs x configs" `Quick
      test_deterministic;
    Alcotest.test_case "budget exhaustion points" `Quick
      test_budget_exhaustion;
    Alcotest.test_case "Builtin.of_tag bounds" `Quick
      test_builtin_of_tag_bounds;
    Alcotest.test_case "stale code_ref fails at translation" `Quick
      test_stale_code_ref_fails_at_translation;
    QCheck_alcotest.to_alcotest prop_random_programs;
  ]
