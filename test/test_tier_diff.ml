(** Tier-differential test layer for the multi-tier JIT
    ([Config.tier_policy]: Optimizing / Baseline / Adaptive).

    The multi-tier machinery is held correct by running whole programs
    through real VMs and comparing everything observable:

    - {b per policy}, the threaded-dispatch interpreter and the
      decode-and-match oracle ({!Ref_dispatch}) must be BYTE-IDENTICAL —
      program output, outcome status (budget-exhaustion points landed
      mid-run included), per-phase counters (float cycles via [%.17g]), the
      sink's event stream and samples, and the jitlog's tier accounting
      (tier compiles, promotions, demotions, per-tier residency,
      first-entry warmup point);
    - {b across policies}, program output and completion status must
      agree — the tier policy moves compile costs and trace tiers, never
      semantics;
    - {b within every run}, the tier accounting must reconcile: each
      compile is exactly one tier-1 or tier-2 compile, promotions are
      bounded by tier-1 compiles, demotions by tier-2 compiles, per-tier
      entry/dynamic-IR residency equals the per-trace sums, and the
      single-tier policies never touch the other tier.

    Programs come from a deterministic pool tuned to exercise
    promotion, bridge growth and demotion, plus a QCheck generator of
    random terminating programs swept across policies and budgets. *)

module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters
module Sink = Mtj_obs.Sink
module Phase = Mtj_core.Phase
module Config = Mtj_core.Config
module Jitlog = Mtj_rjit.Jitlog
module Ir = Mtj_rjit.Ir
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

(* tier accounting that must agree between dispatch modes: compiles per
   tier, promotions, demotions, the warmup latch, and per-tier
   residency (the translation-cache counters are excluded, as in the
   dispatch-differential suite) *)
let jitlog_digest (jl : Jitlog.t) =
  let { Jitlog.tier1_entries = t1e; tier2_entries = t2e;
        tier1_dynamic_ir = t1d; tier2_dynamic_ir = t2d; _ } =
    Jitlog.snapshot jl
  in
  Printf.sprintf
    "traces=%d aborts=%d deopts=%d bridges=%d blacklisted=%d retiers=%d \
     translations=%d cache_hits=%d ir=%d dyn_ir=%d t1c=%d t2c=%d dem=%d \
     first=%d res=%d,%d,%d,%d"
    (Jitlog.num_traces jl) jl.Jitlog.aborts jl.Jitlog.deopts
    jl.Jitlog.bridges_attached jl.Jitlog.blacklisted jl.Jitlog.retiers
    jl.Jitlog.translations jl.Jitlog.code_cache_hits
    (Jitlog.snapshot jl).Jitlog.total_ir_compiled
    (Jitlog.snapshot jl).Jitlog.total_dynamic_ir
    jl.Jitlog.tier1_compiles jl.Jitlog.tier2_compiles jl.Jitlog.demotions
    jl.Jitlog.first_entry_insns t1e t2e t1d t2d

let outcome_str = function
  | Driver.Completed _ -> "ok"
  | Driver.Budget_exceeded -> "budget"
  | Driver.Runtime_error e -> "error: " ^ e

type run = {
  digest : string;
  output : string;
  outcome : string;
  insns : int;
  jitlog : Jitlog.t;
}

let observe (module V : Mtj_rjit.Vm.S) ~config src : run =
  let vm = V.create ~config () in
  let eng = V.engine vm in
  let sink = Sink.attach ~capacity:(1 lsl 16) ~counter_window:256 eng in
  let outcome = V.run_source vm src in
  Sink.finalize sink;
  let output = V.output vm and jitlog = V.jitlog vm in
  {
    digest =
      String.concat "\n---\n"
        [
          outcome_str outcome;
          output;
          counters_digest eng;
          events_digest sink;
          jitlog_digest jitlog;
        ];
    output;
    outcome = outcome_str outcome;
    insns = Engine.total_insns eng;
    jitlog;
  }

(* ---------- tier accounting invariants ---------- *)

let check_accounting name policy (r : run) =
  let jl = r.jitlog in
  let t1c = jl.Jitlog.tier1_compiles and t2c = jl.Jitlog.tier2_compiles in
  Alcotest.(check int)
    (name ^ ": tier compiles partition the traces")
    (Jitlog.num_traces jl) (t1c + t2c);
  Alcotest.(check bool)
    (name ^ ": promotions bounded by tier-1 compiles")
    true
    (jl.Jitlog.retiers <= t1c);
  Alcotest.(check bool)
    (name ^ ": demotions bounded by tier-2 compiles")
    true
    (jl.Jitlog.demotions <= t2c);
  Alcotest.(check bool)
    (name ^ ": first_entry_insns within the run")
    true
    (jl.Jitlog.first_entry_insns >= -1 && jl.Jitlog.first_entry_insns <= r.insns);
  (* the warmup latch fired iff some trace actually ran *)
  let entered =
    List.exists (fun (tr : Ir.trace) -> tr.Ir.exec_count > 0) (Jitlog.traces jl)
  in
  Alcotest.(check bool)
    (name ^ ": first-entry latch agrees with trace entries")
    entered
    (jl.Jitlog.first_entry_insns >= 0);
  (* per-tier residency reconciles exactly with the per-trace rows *)
  let { Jitlog.tier1_entries = t1e; tier2_entries = t2e;
        tier1_dynamic_ir = t1d; tier2_dynamic_ir = t2d; _ } =
    Jitlog.snapshot jl
  in
  let s1e = ref 0 and s2e = ref 0 and s1d = ref 0 and s2d = ref 0 in
  List.iter
    (fun (tr : Ir.trace) ->
      let dyn = Array.fold_left ( + ) 0 tr.Ir.op_exec in
      if tr.Ir.tier <= 1 then begin
        s1e := !s1e + tr.Ir.exec_count;
        s1d := !s1d + dyn
      end
      else begin
        s2e := !s2e + tr.Ir.exec_count;
        s2d := !s2d + dyn
      end)
    (Jitlog.traces jl);
  Alcotest.(check (list int))
    (name ^ ": tier residency = trace-row sums")
    [ !s1e; !s2e; !s1d; !s2d ] [ t1e; t2e; t1d; t2d ];
  (* the single-tier policies never touch the other tier *)
  match policy with
  | Config.Optimizing ->
      Alcotest.(check int) (name ^ ": optimizing has no tier-1 compiles") 0 t1c;
      Alcotest.(check int) (name ^ ": optimizing never promotes") 0
        jl.Jitlog.retiers;
      Alcotest.(check int) (name ^ ": optimizing never demotes") 0
        jl.Jitlog.demotions
  | Config.Baseline ->
      Alcotest.(check int) (name ^ ": baseline has no tier-2 compiles") 0 t2c;
      Alcotest.(check int) (name ^ ": baseline never promotes") 0
        jl.Jitlog.retiers;
      List.iter
        (fun (tr : Ir.trace) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: baseline trace %d stays tier 1" name
               tr.Ir.trace_id)
            1 tr.Ir.tier)
        (Jitlog.traces jl)
  | Config.Adaptive -> ()

let policies =
  [
    ("optimizing", Config.Optimizing);
    ("baseline", Config.Baseline);
    ("adaptive", Config.Adaptive);
  ]

let with_policy p (c : Config.t) = { c with Config.tier_policy = p }
let production = Mtj_harness.Runner.vm_of

(* run one (program, policy) under both dispatch modes: byte-identical
   digests, and the accounting invariants hold; returns the reference
   run for cross-policy comparison *)
let check_policy_diff name ~lang ~config ~policy src =
  let config = with_policy policy config in
  let t = observe (production lang) ~config src in
  let r = observe (Ref_dispatch.vm_of lang) ~config src in
  Alcotest.(check string) (name ^ ": threaded = reference") r.digest t.digest;
  check_accounting name policy r;
  check_accounting (name ^ " [threaded]") policy t;
  r

(* sweep all three policies over one program: per-policy dispatch
   equivalence, plus output/outcome invariance across policies *)
let check_all_policies name ~lang ~config src =
  let runs =
    List.map
      (fun (pname, policy) ->
        ( pname,
          check_policy_diff
            (Printf.sprintf "%s [%s]" name pname)
            ~lang ~config ~policy src ))
      policies
  in
  match runs with
  | [] | [ _ ] -> assert false
  | (p0, r0) :: rest ->
      List.iter
        (fun (p, r) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s output = %s output" name p p0)
            r0.output r.output;
          Alcotest.(check string)
            (Printf.sprintf "%s: %s outcome = %s outcome" name p p0)
            r0.outcome r.outcome)
        rest

(* ---------- deterministic programs ---------- *)

(* a simple hot loop: compiles at the baseline threshold and promotes
   cleanly under Adaptive (no guard instability) *)
let py_promote =
  "def f(n):\n\
  \    s = 0\n\
  \    for i in range(n):\n\
  \        s = s + i * 2\n\
  \    return s\n\
   print(f(3000))\n"

(* three independent biased branches in one loop body: several guards of
   the loop trace fail persistently, so bridges keep attaching — under
   Adaptive the promoted loop accumulates bridges and demotes *)
let py_phases =
  "a = 0\n\
   b = 0\n\
   c = 0\n\
   for i in range(3000):\n\
  \    if i % 2 == 0:\n\
  \        a = a + 1\n\
  \    else:\n\
  \        a = a + 2\n\
  \    if i % 3 == 0:\n\
  \        b = b + 1\n\
  \    else:\n\
  \        b = b + 2\n\
  \    if i % 5 == 0:\n\
  \        c = c + 1\n\
  \    else:\n\
  \        c = c + 2\n\
   print(a + b + c)\n"

let py_calls =
  "def sq(x):\n\
  \    return x * x\n\
   def f(n):\n\
  \    s = 0\n\
  \    for i in range(n):\n\
  \        s = (s + sq(i)) % 9973\n\
  \    return s\n\
   print(f(2500))\n"

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

let deterministic_pool =
  [
    ("py promote", Py, py_promote);
    ("py phased branches", Py, py_phases);
    ("py calls", Py, py_calls);
    ("rk tailcall loop", Rk, rk_tail);
    ("rk deopt crossing", Rk, rk_deopt);
  ]

let test_deterministic () =
  List.iter
    (fun (name, lang, src) ->
      check_all_policies name ~lang
        ~config:(Config.with_budget 30_000_000 Config.default)
        src)
    deterministic_pool

let test_budget_exhaustion () =
  (* small budgets land the exhaustion point mid-run — inside the
     baseline tier, mid-promotion, inside bridges — and the stop point
     must be identical in both dispatch modes for every policy *)
  List.iter
    (fun budget ->
      List.iter
        (fun (name, lang, src) ->
          List.iter
            (fun (pname, policy) ->
              ignore
                (check_policy_diff
                   (Printf.sprintf "%s [%s, budget %d]" name pname budget)
                   ~lang
                   ~config:(Config.with_budget budget Config.default)
                   ~policy src))
            policies)
        deterministic_pool)
    [ 1_000; 10_000; 100_000 ]

(* the full adaptive lifecycle — promote, grow bridges, demote, re-promote
   at a doubled threshold, pin at tier 1 once max_demotions is exhausted —
   held byte-identical across dispatch modes *)
let adaptive_lifecycle_config =
  {
    Config.default with
    Config.jit_threshold = 7;
    bridge_threshold = 30;
    insn_budget = 100_000_000;
    tier_policy = Config.Adaptive;
    tier2_threshold = 8;
    tier_stable_every = 0;
    demote_bridges = 2;
    max_demotions = 2;
  }

let test_adaptive_lifecycle_diff () =
  let r =
    check_policy_diff "adaptive lifecycle" ~lang:Py
      ~config:adaptive_lifecycle_config ~policy:Config.Adaptive py_phases
  in
  let jl = r.jitlog in
  Alcotest.(check string) "output" "14900\n" r.output;
  Alcotest.(check bool) "promotions happened" true (jl.Jitlog.retiers >= 1);
  Alcotest.(check bool) "demotions happened" true (jl.Jitlog.demotions >= 1);
  (* oscillation is damped: each demotion needs a fresh promotion, and
     the site stops demoting once max_demotions is exhausted *)
  Alcotest.(check bool) "demotions bounded by max_demotions + 1" true
    (jl.Jitlog.demotions <= adaptive_lifecycle_config.Config.max_demotions + 1)

(* warmup: the baseline tier's lower threshold reaches compiled code
   strictly earlier than the one-shot optimizing tier *)
let test_warmup_first_entry () =
  let config = Config.with_budget 30_000_000 Config.default in
  let first policy =
    let r =
      observe (production Py) ~config:(with_policy policy config) py_promote
    in
    r.jitlog.Jitlog.first_entry_insns
  in
  let opt = first Config.Optimizing in
  let base = first Config.Baseline in
  let adapt = first Config.Adaptive in
  Alcotest.(check bool) "optimizing entered a trace" true (opt > 0);
  Alcotest.(check bool)
    (Printf.sprintf "baseline warms up earlier (%d < %d)" base opt)
    true (base < opt);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive warms up earlier (%d < %d)" adapt opt)
    true (adapt < opt);
  Alcotest.(check int) "adaptive first entry = baseline first entry" base adapt

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
  QCheck.Test.make ~count:30
    ~name:"tier policies are dispatch-identical on random programs"
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed; 0x71E2 |] in
      let lang, src =
        if Random.State.bool rng then (Py, gen_py_program rng)
        else (Rk, gen_rk_program rng)
      in
      let _, policy = List.nth policies (Random.State.int rng 3) in
      let budget =
        match Random.State.int rng 3 with
        | 0 -> 2_000 + Random.State.int rng 50_000
        | _ -> 10_000_000
      in
      (* occasionally squeeze the tier knobs so promotion and demotion
         fire inside the random program too *)
      let base =
        if Random.State.int rng 2 = 0 then Config.default
        else
          {
            Config.default with
            Config.jit_threshold = 7;
            tier1_threshold = 5;
            tier2_threshold = 6;
            tier_stable_every = Random.State.int rng 3;
            demote_bridges = 2;
          }
      in
      let config =
        with_policy policy (Config.with_budget budget base)
      in
      let t = observe (production lang) ~config src in
      let r = observe (Ref_dispatch.vm_of lang) ~config src in
      if t.digest <> r.digest then
        QCheck.Test.fail_reportf
          "seed %d diverged on:\n%s\n--- reference:\n%s\n--- threaded:\n%s"
          seed src r.digest t.digest
      else begin
        check_accounting (Printf.sprintf "seed %d" seed) policy r;
        true
      end)

let suite =
  [
    Alcotest.test_case "deterministic programs x policies" `Quick
      test_deterministic;
    Alcotest.test_case "budget exhaustion points x policies" `Quick
      test_budget_exhaustion;
    Alcotest.test_case "adaptive lifecycle is dispatch-identical" `Quick
      test_adaptive_lifecycle_diff;
    Alcotest.test_case "warmup: first compiled entry per policy" `Quick
      test_warmup_first_entry;
    QCheck_alcotest.to_alcotest prop_random_programs;
  ]
