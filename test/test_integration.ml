(** Integration tests: every registered benchmark runs to completion and
    prints identical output under the interpreter and the JIT (both
    languages); native kernels agree with the hosted programs; the
    experiment runner produces sane results. *)

module B = Mtj_benchmarks.Registry
module C = Mtj_core.Config
module R = Mtj_harness.Runner

let budget = 250_000_000

let run lang config src =
  let (module V) = R.vm_of lang in
  let outcome, vm = V.run ~config src in
  (outcome, V.output vm)

let completed = function
  | Mtj_rjit.Driver.Completed _ -> true
  | _ -> false

let bench_case (b : B.bench) =
  let name =
    let (module V) = R.vm_of b.B.lang in
    Printf.sprintf "%s (%s)" b.B.name V.lang_name
  in
  Alcotest.test_case name `Slow (fun () ->
      let runner = run b.B.lang in
      let o1, out1 = runner (C.with_budget budget C.no_jit) b.B.source in
      let o2, out2 = runner (C.with_budget budget C.default) b.B.source in
      Alcotest.(check bool) (name ^ " interp completes") true (completed o1);
      Alcotest.(check bool) (name ^ " jit completes") true (completed o2);
      Alcotest.(check string) (name ^ " outputs agree") out1 out2;
      Alcotest.(check bool) (name ^ " output nonempty") true
        (String.length out1 > 0))

(* native kernels must print what the hosted versions print *)
let native_agreement (kname : string) =
  Alcotest.test_case ("native " ^ kname) `Slow (fun () ->
      let kernel = Option.get (Mtj_baselines.Native.find kname) in
      let rtc = Mtj_rt.Ctx.create ~config:(C.with_budget budget C.no_jit) () in
      let native_out = Mtj_baselines.Native.run rtc kernel in
      let b = B.find_exn ~lang:B.Py kname in
      let _, hosted = run B.Py (C.with_budget budget C.default) b.B.source in
      Alcotest.(check string) (kname ^ ": native = hosted") hosted native_out)

let native_kernels_to_check =
  (* kernels whose float evaluation order matches the hosted source
     exactly; nbody is checked for shape instead *)
  [ "binarytrees"; "fasta"; "mandelbrot"; "fannkuchredux"; "pidigits";
    "revcomp"; "knucleotide"; "chameneosredux"; "spectralnorm" ]

let test_runner_speedup_ordering () =
  (* the runner's three Python configurations must order as the paper's:
     nojit slowest, cpython middle, jit fastest (on a JIT-friendly
     benchmark) *)
  let c = R.run "crypto_pyaes" R.Cpython in
  let nj = R.run "crypto_pyaes" R.Pypy_nojit in
  let j = R.run "crypto_pyaes" R.Pypy_jit in
  Alcotest.(check bool) "nojit slower than cpython" true
    (nj.R.cycles > c.R.cycles);
  Alcotest.(check bool) "jit faster than cpython" true (j.R.cycles < c.R.cycles);
  Alcotest.(check string) "outputs equal" c.R.output j.R.output;
  Alcotest.(check string) "outputs equal 2" c.R.output nj.R.output

let test_runner_phase_fractions_sum () =
  let r = R.run "django" R.Pypy_jit in
  let total =
    List.fold_left
      (fun acc p -> acc +. R.phase_fraction r p)
      0.0 Mtj_core.Phase.all
  in
  Alcotest.(check bool) "fractions sum to 1" true (Float.abs (total -. 1.0) < 1e-6)

let test_runner_native () =
  let r = R.run "mandelbrot" R.Native_c in
  Alcotest.(check bool) "completed" true (r.R.status = R.Ok_run);
  Alcotest.(check bool) "cheap" true (r.R.insns < 10_000_000)

let test_pidigits_is_jit_call_bound () =
  (* the paper's flagship AOT-call benchmark: under the JIT, most time is
     in the Jit_call phase *)
  let r = R.run "pidigits" R.Pypy_jit in
  Alcotest.(check bool) "jit_call dominates" true
    (R.phase_fraction r Mtj_core.Phase.Jit_call > 0.4)

let test_sympy_str_stays_interpreted () =
  let r = R.run "sympy_str" R.Pypy_jit in
  Alcotest.(check bool) "interpreter dominates" true
    (R.phase_fraction r Mtj_core.Phase.Interpreter > 0.8)

let test_binarytrees_gc_pressure () =
  let r = R.run "binarytrees" R.Pypy_jit in
  Alcotest.(check bool) "allocates a lot" true
    (r.R.gc.Mtj_rt.Gc_sim.allocated_objects > 5_000);
  Alcotest.(check bool) "minor collections happened" true
    (r.R.gc.Mtj_rt.Gc_sim.minor_collections > 0)

(* the whole stack is a deterministic simulation: two identical runs must
   agree to the cycle, not just on output *)
let test_deterministic_simulation () =
  let once () =
    let config = C.with_budget 50_000_000 C.default in
    let b = B.find_exn ~lang:B.Py "richards" in
    let vm = Mtj_pylite.Vm.create ~config () in
    (match Mtj_pylite.Vm.run_source vm b.B.source with
    | Mtj_rjit.Driver.Completed _ -> ()
    | _ -> Alcotest.fail "run failed");
    let eng = Mtj_pylite.Vm.engine vm in
    ( Mtj_pylite.Vm.output vm,
      Mtj_machine.Engine.total_insns eng,
      Mtj_machine.Engine.total_cycles eng,
      Mtj_rjit.Jitlog.num_traces (Mtj_pylite.Vm.jitlog vm) )
  in
  let o1, i1, c1, t1 = once () in
  let o2, i2, c2, t2 = once () in
  Alcotest.(check string) "same output" o1 o2;
  Alcotest.(check int) "same instruction count" i1 i2;
  Alcotest.(check int) "same trace count" t1 t2;
  (* cycles are layout-sensitive: the second VM's code objects get
     different global code ids, which index the predictor/BTB/cache
     differently — exactly like re-running a real binary at a different
     load address. Counts above are exact; timing agrees to ~1%. *)
  Alcotest.(check bool) "cycle counts within 1%" true
    (Float.abs (c1 -. c2) /. c1 < 0.01)

let suite =
  List.map bench_case B.all
  @ List.map native_agreement native_kernels_to_check
  @ [
      Alcotest.test_case "runner speedup ordering" `Slow
        test_runner_speedup_ordering;
      Alcotest.test_case "phase fractions sum to 1" `Slow
        test_runner_phase_fractions_sum;
      Alcotest.test_case "native kernel runs" `Quick test_runner_native;
      Alcotest.test_case "pidigits is jit_call bound" `Slow
        test_pidigits_is_jit_call_bound;
      Alcotest.test_case "sympy_str stays interpreted" `Slow
        test_sympy_str_stays_interpreted;
      Alcotest.test_case "binarytrees GC pressure" `Slow
        test_binarytrees_gc_pressure;
      Alcotest.test_case "simulation is deterministic" `Quick
        test_deterministic_simulation;
    ]
