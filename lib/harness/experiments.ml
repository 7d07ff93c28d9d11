(** The paper's evaluation, experiment by experiment.

    Each function regenerates one table or figure of Ilbeyi et al.
    (IISWC 2017) from live runs on the simulated machine.  Absolute
    numbers are in simulated megacycles, not seconds; the claims under
    test are the {e shapes}: orderings, ratios, crossovers, and the
    per-phase microarchitectural contrasts. *)

open Mtj_core
module R = Runner
module B = Mtj_benchmarks.Registry
module Counters = Mtj_machine.Counters

let pr = Render.pr

(* PyPy-suite benchmarks, in registry order *)
let suite_names () = List.map (fun b -> b.B.name) B.pypy_suite

(* CLBG benchmarks present in a given language *)
let clbg_py_names () = List.map (fun b -> b.B.name) B.clbg_py
let clbg_rk_names () = List.map (fun b -> b.B.name) B.clbg_rk

let clbg_common () =
  List.filter (fun n -> List.mem n (clbg_rk_names ())) (clbg_py_names ())

(* sort by PyPy-with-JIT speedup over CPython, descending (the paper's
   row order for Table I and Figures 2/5/6/7) *)
let suite_by_speedup () =
  suite_names ()
  |> List.map (fun n ->
         let c = R.run n R.Cpython and j = R.run n R.Pypy_jit in
         (n, R.speedup ~baseline:c j))
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.map fst

let status_mark (r : R.result) =
  match r.R.status with
  | R.Ok_run -> ""
  | R.Hit_budget -> "*"
  | R.Failed e -> "!" ^ e

(* ---------------- Table I ---------------- *)

let table1 () =
  Render.heading
    "TABLE I: PyPy Benchmark Suite Performance (simulated Mcycles)";
  pr "vC = speedup vs CPython; IPC = instructions/cycle; M = branch MPKI\n";
  pr "(* = stopped at the instruction budget)\n\n";
  let rows =
    List.map
      (fun name ->
        let c = R.run name R.Cpython in
        let nj = R.run name R.Pypy_nojit in
        let j = R.run name R.Pypy_jit in
        [
          name;
          Render.f1 (R.mcycles c) ^ status_mark c;
          Render.f2 (R.ipc c);
          Render.f1 (R.mpki c);
          Render.f1 (R.mcycles nj) ^ status_mark nj;
          Render.f2 (R.speedup ~baseline:c nj);
          Render.f2 (R.ipc nj);
          Render.f1 (R.mpki nj);
          Render.f1 (R.mcycles j) ^ status_mark j;
          Render.f2 (R.speedup ~baseline:c j);
          Render.f2 (R.ipc j);
          Render.f1 (R.mpki j);
        ])
      (suite_by_speedup ())
  in
  Render.table
    ~header:
      [ "benchmark"; "Cpy-t"; "IPC"; "M"; "noJIT-t"; "vC"; "IPC"; "M";
        "JIT-t"; "vC"; "IPC"; "M" ]
    ~rows

(* ---------------- Table II ---------------- *)

let table2 () =
  Render.heading "TABLE II: CLBG Performance (simulated Mcycles)";
  pr "xC = slowdown relative to the statically-compiled C kernel\n\n";
  let native_names =
    List.map (fun k -> k.Mtj_baselines.Native.kname) Mtj_baselines.Native.kernels
  in
  let rows =
    List.map
      (fun name ->
        let cell config =
          R.run name config |> fun r ->
          Render.f1 (R.mcycles r) ^ status_mark r
        in
        let nat =
          if List.mem name native_names then Some (R.run name R.Native_c)
          else None
        in
        let vs_c r =
          match nat with
          | Some n when n.R.cycles > 0.0 ->
              Printf.sprintf "%.1fx" (r.R.cycles /. n.R.cycles)
          | _ -> "-"
        in
        let has_rk = List.mem name (clbg_rk_names ()) in
        [
          name;
          (match nat with Some n -> Render.f1 (R.mcycles n) | None -> "-");
          cell R.Cpython;
          vs_c (R.run name R.Cpython);
          cell R.Pypy_jit;
          vs_c (R.run name R.Pypy_jit);
          (if has_rk then cell R.Racket else "-");
          (if has_rk then vs_c (R.run name R.Racket) else "-");
          (if has_rk then cell R.Pycket_jit else "-");
          (if has_rk then vs_c (R.run name R.Pycket_jit) else "-");
        ])
      (clbg_py_names ())
  in
  Render.table
    ~header:
      [ "benchmark"; "C"; "CPython"; "xC"; "PyPy"; "xC"; "Racket"; "xC";
        "Pycket"; "xC" ]
    ~rows

(* ---------------- Table III ---------------- *)

let table3 () =
  Render.heading
    "TABLE III: Significant AOT-Compiled Functions Called from Meta-Traces";
  pr "functions with >=%d%% of total execution; src: R=RPython intrinsics,\n" 8;
  pr "L=RPython stdlib, C=external C, I=interpreter, M=module\n\n";
  let rows = ref [] in
  List.iter
    (fun name ->
      let r = R.run name R.Pypy_jit in
      let total = max 1 r.R.insns in
      List.iter
        (fun (src, fname, insns) ->
          let pct = 100.0 *. float_of_int insns /. float_of_int total in
          if pct >= 8.0 then
            rows := [ name; Render.f1 pct; src; fname ] :: !rows)
        r.R.aot_top)
    (suite_by_speedup ());
  Render.table ~header:[ "benchmark"; "%"; "src"; "function" ]
    ~rows:(List.rev !rows)

(* ---------------- Table IV ---------------- *)

let table4 () =
  Render.heading
    "TABLE IV: Microarchitectural Statistics by Phase (mean +/- std)";
  pr "across the PyPy suite under the meta-tracing JIT; phases with\n";
  pr "fewer than 50k instructions in a run are excluded from that mean\n\n";
  let interesting =
    [ Phase.Interpreter; Phase.Tracing; Phase.Jit; Phase.Jit_call;
      Phase.Gc_minor; Phase.Blackhole ]
  in
  let per_phase =
    List.map
      (fun p ->
        let snaps =
          List.filter_map
            (fun name ->
              let r = R.run name R.Pypy_jit in
              let s = List.assoc p r.R.per_phase in
              if s.Counters.insns > 50_000 then Some s else None)
            (suite_names ())
        in
        (p, snaps))
      interesting
  in
  let rows =
    List.map
      (fun (p, snaps) ->
        let stat f = Render.mean_std (List.map f snaps) in
        let ipc_m, ipc_s = stat Counters.ipc in
        let bpi_m, bpi_s = stat Counters.branch_per_insn in
        let mr_m, mr_s = stat Counters.branch_miss_rate in
        [
          Phase.name p;
          string_of_int (List.length snaps);
          Printf.sprintf "%.2f +/- %.2f" ipc_m ipc_s;
          Printf.sprintf "%.3f +/- %.3f" bpi_m bpi_s;
          Printf.sprintf "%.3f +/- %.3f" mr_m mr_s;
        ])
      per_phase
  in
  Render.table
    ~header:[ "phase"; "n"; "IPC"; "branches/insn"; "miss rate" ]
    ~rows

(* ---------------- Figure 2 ---------------- *)

let phase_parts (r : R.result) =
  List.filter_map
    (fun (p, n) ->
      let total =
        List.fold_left (fun acc (_, m) -> acc + m) 0 r.R.phase_insns
      in
      if n = 0 || total = 0 then None
      else Some (p, float_of_int n /. float_of_int total))
    r.R.phase_insns

let fig2 () =
  Render.heading
    "FIGURE 2: Time Spent in Each Phase (PyPy suite, JIT enabled)";
  pr "%s\n\n" Render.phase_legend;
  List.iter
    (fun name ->
      let r = R.run name R.Pypy_jit in
      let parts = phase_parts r in
      pr "%-20s |%s|" name (Render.stacked_bar parts);
      List.iter
        (fun (p, f) ->
          if f >= 0.005 then pr " %c=%.0f%%" (Render.phase_letter p) (100. *. f))
        parts;
      pr "\n")
    (suite_by_speedup ())

(* ---------------- Figure 3 ---------------- *)

let fig3 () =
  Render.heading
    "FIGURE 3: Phase Timeline During Warmup (best vs worst benchmark)";
  pr "each column is one instruction-count bucket; letter = dominant phase\n";
  pr "%s\n" Render.phase_legend;
  let names = suite_by_speedup () in
  let best = List.hd names in
  let worst = List.nth names (List.length names - 1) in
  List.iter
    (fun name ->
      let r = R.run name R.Pypy_jit in
      Render.subheading
        (Printf.sprintf "%s (bucket = %dk instructions)" name
           (r.R.timeline_bucket / 1000));
      let cols = Array.length r.R.timeline in
      let step = max 1 (cols / 100) in
      let line = Buffer.create 100 in
      let i = ref 0 in
      while !i < cols do
        let bucket = r.R.timeline.(!i) in
        let dominant =
          Array.fold_left
            (fun (bp, bf) (p, f) -> if f > bf then (p, f) else (bp, bf))
            (Phase.Interpreter, 0.0) bucket
        in
        Buffer.add_char line (Render.phase_letter (fst dominant));
        i := !i + step
      done;
      pr "%s\n" (Buffer.contents line);
      (* GC before/after JIT warmup, the Fig. 3 observation *)
      let halves =
        let mid = cols / 2 in
        let frac lo hi p =
          let num = ref 0.0 and den = ref 0.0 in
          for k = lo to hi - 1 do
            Array.iter
              (fun (q, f) ->
                if q = p then num := !num +. f;
                ignore f)
              r.R.timeline.(k);
            den := !den +. 1.0
          done;
          if !den = 0.0 then 0.0 else !num /. !den
        in
        ( frac 0 mid Phase.Gc_minor +. frac 0 mid Phase.Gc_major,
          frac mid cols Phase.Gc_minor +. frac mid cols Phase.Gc_major )
      in
      pr "gc share: first half %.1f%%, second half %.1f%%\n"
        (100. *. fst halves) (100. *. snd halves))
    [ best; worst ]

(* ---------------- Figure 4 ---------------- *)

let fig4 () =
  Render.heading
    "FIGURE 4: Phase Breakdown, PyPy vs Pycket on CLBG benchmarks";
  pr "%s\n\n" Render.phase_legend;
  List.iter
    (fun name ->
      let py = R.run name R.Pypy_jit in
      let rk = R.run name R.Pycket_jit in
      pr "%-16s pypy   |%s|\n" name (Render.stacked_bar (phase_parts py));
      pr "%-16s pycket |%s|\n" "" (Render.stacked_bar (phase_parts rk)))
    (clbg_common ())

(* ---------------- Figure 5 ---------------- *)

(* bytecode rate of [r] normalized to CPython at the same instruction
   count, sampled over the run *)
let warmup_curve (r : R.result) (cpython : R.result) npoints =
  let span = min r.R.insns cpython.R.insns in
  Array.init npoints (fun i ->
      let x = span * (i + 1) / npoints in
      let window = max 1 (span / npoints) in
      let rate run =
        let sampler_ticks_at insns =
          (* interpolate over the recorded samples *)
          let s = run.R.samples in
          let n = Array.length s in
          if n = 0 then 0
          else begin
            let rec find i =
              if i >= n then snd s.(n - 1)
              else if fst s.(i) >= insns then
                if i = 0 then
                  if fst s.(0) = 0 then snd s.(0)
                  else insns * snd s.(0) / fst s.(0)
                else
                  let x0, y0 = s.(i - 1) and x1, y1 = s.(i) in
                  if x1 = x0 then y0
                  else y0 + ((insns - x0) * (y1 - y0) / (x1 - x0))
              else find (i + 1)
            in
            find 0
          end
        in
        float_of_int (sampler_ticks_at x - sampler_ticks_at (x - window))
      in
      let c = rate cpython in
      if c <= 0.0 then 0.0 else rate r /. c)

let break_even (fast : R.result) (slow : R.result) =
  (* first instruction count where fast's cumulative ticks catch up *)
  let ticks_at (run : R.result) insns =
    let s = run.R.samples in
    let n = Array.length s in
    let rec find i =
      if i >= n then (if n = 0 then 0 else snd s.(n - 1))
      else if fst s.(i) >= insns then
        if i = 0 then snd s.(0)
        else
          let x0, y0 = s.(i - 1) and x1, y1 = s.(i) in
          if x1 = x0 then y0 else y0 + ((insns - x0) * (y1 - y0) / (x1 - x0))
      else find (i + 1)
    in
    find 0
  in
  let span = min fast.R.insns slow.R.insns in
  let rec scan x =
    if x > span then None
    else if ticks_at fast x >= ticks_at slow x && ticks_at fast x > 0 then
      Some x
    else scan (x + max 1 (span / 200))
  in
  scan (max 1 (span / 200))

let fig5 () =
  Render.heading
    "FIGURE 5: PyPy Warmup - bytecode rate normalized to CPython";
  pr "sparkline: execution-rate ratio over the run (peak in brackets);\n";
  pr "BE-C / BE-noJIT: break-even instruction counts (work caught up)\n\n";
  List.iter
    (fun name ->
      let c = R.run name R.Cpython in
      let nj = R.run name R.Pypy_nojit in
      let j = R.run name R.Pypy_jit in
      let curve = warmup_curve j c 60 in
      let peak = Array.fold_left Float.max 0.0 curve in
      let be_c = break_even j c in
      let be_nj = break_even j nj in
      let fmt_be = function
        | Some x -> Printf.sprintf "%.1fM" (float_of_int x /. 1e6)
        | None -> "never"
      in
      pr "%-20s [x%4.1f] %s  BE-C=%s BE-noJIT=%s\n" name peak
        (Render.sparkline curve) (fmt_be be_c) (fmt_be be_nj))
    (suite_by_speedup ())

(* ---------------- Figure 6 ---------------- *)

let fig6 () =
  Render.heading "FIGURE 6: JIT IR Node Compilation and Execution";
  let rows =
    List.map
      (fun name ->
        let r = R.run name R.Pypy_jit in
        match r.R.jit with
        | None -> [ name; "-"; "-"; "-" ]
        | Some ({ R.log = l; _ } as j) ->
            [
              name;
              string_of_int l.total_ir_compiled;
              Render.f1 j.R.hot_fraction_95;
              string_of_int
                (if r.R.insns = 0 then 0
                 else l.total_dynamic_ir / max 1 (r.R.insns / 1_000_000));
            ])
      (suite_by_speedup ())
  in
  Render.table
    ~header:
      [ "benchmark"; "(a) IR compiled"; "(b) hot-95% (%)";
        "(c) IR-exec / Minsn" ]
    ~rows

(* ---------------- Figure 7 ---------------- *)

let fig7 () =
  Render.heading
    "FIGURE 7: Meta-Trace Composition by IR Category (dynamic, %)";
  let cats = Mtj_rjit.Ir.all_cats in
  let header =
    "benchmark" :: List.map Mtj_rjit.Ir.cat_name cats
  in
  let rows =
    List.filter_map
      (fun name ->
        let r = R.run name R.Pypy_jit in
        match r.R.jit with
        | None -> None
        | Some j ->
            let total =
              List.fold_left (fun acc (_, n) -> acc + n) 0 j.R.by_category
            in
            if total = 0 then None
            else
              Some
                (name
                :: List.map
                     (fun c ->
                       let n =
                         Option.value ~default:0 (List.assoc_opt c j.R.by_category)
                       in
                       Render.f1 (100.0 *. float_of_int n /. float_of_int total))
                     cats))
      (suite_by_speedup ())
  in
  (* aggregate row *)
  let totals = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let r = R.run name R.Pypy_jit in
      match r.R.jit with
      | None -> ()
      | Some j ->
          List.iter
            (fun (c, n) ->
              Hashtbl.replace totals c
                (n + Option.value ~default:0 (Hashtbl.find_opt totals c)))
            j.R.by_category)
    (suite_names ());
  let grand =
    Hashtbl.fold (fun _ n acc -> acc + n) totals 0
  in
  let agg_row =
    "ALL"
    :: List.map
         (fun c ->
           let n = Option.value ~default:0 (Hashtbl.find_opt totals c) in
           Render.f1 (100.0 *. float_of_int n /. float_of_int (max 1 grand)))
         cats
  in
  Render.table ~header ~rows:(rows @ [ agg_row ])

(* ---------------- Figure 8 ---------------- *)

let aggregate_node_types () =
  let totals : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun name ->
      let r = R.run name R.Pypy_jit in
      match r.R.jit with
      | None -> ()
      | Some j ->
          List.iter
            (fun (ty, n) ->
              Hashtbl.replace totals ty
                (n + Option.value ~default:0 (Hashtbl.find_opt totals ty)))
            j.R.by_node_type)
    (suite_names ());
  Hashtbl.fold (fun ty n acc -> (ty, n) :: acc) totals []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let fig8 () =
  Render.heading
    "FIGURE 8: Dynamic Frequency of IR Node Types (PyPy suite aggregate)";
  let types = aggregate_node_types () in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 types in
  let cum = ref 0.0 in
  let rows =
    List.filteri (fun i _ -> i < 30) types
    |> List.map (fun (ty, n) ->
           let pct = 100.0 *. float_of_int n /. float_of_int (max 1 total) in
           cum := !cum +. pct;
           [ ty; Render.f1 pct; Render.f1 !cum;
             Render.simple_bar ~width:30 (pct /. 30.0) ])
  in
  Render.table ~header:[ "IR node type"; "%"; "cum%"; "" ] ~rows;
  pr "\n%d distinct node types; the tail below 1%% covers %d of them\n"
    (List.length types)
    (List.length (List.filter (fun (_, n) ->
         100.0 *. float_of_int n /. float_of_int (max 1 total) < 1.0) types))

(* ---------------- Figure 9 ---------------- *)

let fig9 () =
  Render.heading
    "FIGURE 9: x86 Instructions per IR Node Type (dynamically weighted)";
  (* merge per-run means weighted by per-run execution counts *)
  let acc : (string, float * float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun name ->
      let r = R.run name R.Pypy_jit in
      match r.R.jit with
      | None -> ()
      | Some j ->
          List.iter
            (fun (ty, mean) ->
              let execs =
                float_of_int
                  (Option.value ~default:0 (List.assoc_opt ty j.R.by_node_type))
              in
              let w, s = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt acc ty) in
              Hashtbl.replace acc ty (w +. execs, s +. (mean *. execs)))
            j.R.x86_per_type)
    (suite_names ());
  let rows =
    Hashtbl.fold
      (fun ty (w, s) out ->
        if w > 0.0 then (ty, s /. w) :: out else out)
      acc []
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.map (fun (ty, mean) ->
           [ ty; Render.f1 mean; Render.simple_bar ~width:34 (mean /. 34.0) ])
  in
  Render.table ~header:[ "IR node type"; "x86 insns"; "" ] ~rows

(* ---------------- summary of JIT machinery activity ---------------- *)

let jit_activity () =
  Render.heading "JIT machinery activity (PyPy suite)";
  let rows =
    List.map
      (fun name ->
        let r = R.run name R.Pypy_jit in
        match r.R.jit with
        | None -> [ name ]
        | Some { R.log = l; _ } ->
            [
              name;
              string_of_int l.num_traces;
              string_of_int l.bridges_attached;
              string_of_int l.deopts;
              string_of_int l.aborts;
              string_of_int l.blacklisted;
              string_of_int r.R.gc.Mtj_rt.Gc_sim.minor_collections;
              string_of_int r.R.gc.Mtj_rt.Gc_sim.major_collections;
            ])
      (suite_by_speedup ())
  in
  Render.table
    ~header:
      [ "benchmark"; "traces"; "bridges"; "deopts"; "aborts"; "blacklist";
        "gc-"; "gc+" ]
    ~rows

(* ---------------- ablation of optimizer passes ---------------- *)

let ablation_benches = [ "richards"; "raytrace_simple"; "crypto_pyaes"; "django" ]

let ablation_variants =
  [
    ("full", fun (c : Config.t) -> c);
    ("-fold", fun c -> { c with Config.opt_fold = false });
    ("-guards", fun c -> { c with Config.opt_guard_elim = false });
    ("-forward", fun c -> { c with Config.opt_forward = false });
    ("-virtuals", fun c -> { c with Config.opt_virtuals = false });
    ("-peel", fun c -> { c with Config.opt_peel = false });
    ( "none",
      fun c ->
        {
          c with
          Config.opt_fold = false;
          opt_guard_elim = false;
          opt_forward = false;
          opt_virtuals = false;
        } );
  ]

(* one self-contained VM run with a tweaked config; used by the custom
   sweeps below, outside the (bench, vm_config) memo cache *)
let py_cycles_of name tweak =
  let config = tweak (Config.with_budget R.default_budget Config.default) in
  let b = B.find_exn ~lang:B.Py name in
  let vm = Mtj_pylite.Vm.create ~config () in
  match Mtj_pylite.Vm.run_source vm b.B.source with
  | _ -> Mtj_machine.Engine.total_cycles (Mtj_pylite.Vm.engine vm)

(* split [xs] into consecutive chunks of [n] *)
let rec chunks n xs =
  match xs with
  | [] -> []
  | _ ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let chunk, rest = take n [] xs in
      chunk :: chunks n rest

let ablation () =
  Render.heading
    "ABLATION: optimizer passes (JIT cycles, normalized to full optimizer)";
  pr "passes: fold=constant folding, guards=guard elimination,\n";
  pr "forward=heap forwarding, virtuals=escape analysis, peel=loop peeling\n\n";
  (* the (bench x variant) matrix is embarrassingly parallel: each cell
     is its own VM.  Cells come back in matrix order, so the rendered
     table is identical at any -j. *)
  let matrix =
    List.concat_map
      (fun name -> List.map (fun (_, tweak) -> (name, tweak)) ablation_variants)
      ablation_benches
  in
  let cells =
    R.parallel_map (fun (name, tweak) -> py_cycles_of name tweak) matrix
  in
  let rows =
    List.map2
      (fun name cells ->
        (* variant 0 is "full": the normalization baseline *)
        let full = List.hd cells in
        name :: List.map (fun c -> Printf.sprintf "%.2fx" (c /. full)) cells)
      ablation_benches
      (chunks (List.length ablation_variants) cells)
  in
  Render.table ~header:("benchmark" :: List.map fst ablation_variants) ~rows

(* ---------------- extension: two-tier compilation ---------------- *)

let tiers_benches =
  [ "richards"; "crypto_pyaes"; "spectral_norm"; "float"; "django";
    "fannkuch" ]

let tiers () =
  Render.heading
    "EXTENSION: two-tier compilation (the paper's Q5 multi-tier discussion)";
  pr "tier-1 compiles traces unoptimized at ~30%% of the compile cost;\n";
  pr "traces hot for %d runs are recompiled through the full optimizer.\n"
    Config.two_tier.Config.tier2_threshold;
  pr "break-even = instructions until cumulative work rate catches CPython.\n\n";
  let benches = tiers_benches in
  let rows =
    List.map
      (fun name ->
        let one = R.run name R.Pypy_jit in
        let two = R.run name R.Pypy_tiered in
        let cpy = R.run name R.Cpython in
        let be r =
          match break_even r cpy with
          | Some x -> Printf.sprintf "%.2f" (float_of_int x /. 1.0e6)
          | None -> "never"
        in
        let retiers =
          match two.R.jit with Some { R.log = l; _ } -> l.retiers | None -> 0
        in
        let tracing r = float_of_int (R.phase_insns_of r Phase.Tracing) /. 1.0e6 in
        [
          name;
          Render.f1 (R.mcycles one);
          Render.f1 (R.mcycles two);
          Printf.sprintf "%.3fx" (two.R.cycles /. one.R.cycles);
          be one;
          be two;
          Render.f2 (tracing one);
          Render.f2 (tracing two);
          string_of_int retiers;
        ])
      benches
  in
  Render.table
    ~header:
      [ "benchmark"; "1-tier Mcyc"; "2-tier Mcyc"; "ratio"; "BE-1 (Mi)";
        "BE-2 (Mi)"; "compile-1 Mi"; "compile-2 Mi"; "retiers" ]
    ~rows;
  pr "\ncompile-N = instructions spent in the tracing/compiling phase.\n"

(* ------------ extension: adaptive multi-tier policy family ------------ *)

let tierpolicy_benches =
  [ "richards"; "crypto_pyaes"; "spectral_norm"; "float"; "django";
    "fannkuch" ]

let tierpolicy_configs =
  [ ("optimizing", R.Pypy_jit); ("baseline", R.Pypy_baseline);
    ("adaptive", R.Pypy_tiered) ]

let tierpolicy () =
  Render.heading
    "EXTENSION: tier policies (warmup, residency, compile cost per tier)";
  pr "optimizing = every trace through the full optimizer (the default);\n";
  pr "baseline   = cheap tier-1 compiles at threshold %d, never promoted;\n"
    Config.default.Config.tier1_threshold;
  pr "adaptive   = baseline first, promotion after %d stable runs,\n"
    Config.default.Config.tier2_threshold;
  pr "             demotion after %d bridges on an optimized loop.\n\n"
    Config.default.Config.demote_bridges;
  (* 1. warmup: when does the first compiled trace run, and when does
     cumulative work rate catch CPython *)
  pr "warmup: first compiled-trace entry (Mi = 1e6 simulated insns) and\n";
  pr "break-even vs CPython; lower is better.\n\n";
  let first_entry r =
    match r.R.jit with
    | Some { R.log = l; _ } when l.first_entry_insns >= 0 ->
        Printf.sprintf "%.3f" (float_of_int l.first_entry_insns /. 1.0e6)
    | _ -> "never"
  in
  let rows =
    List.map
      (fun name ->
        let cpy = R.run name R.Cpython in
        let cells =
          List.concat_map
            (fun (_, vc) ->
              let r = R.run name vc in
              let be =
                match break_even r cpy with
                | Some x -> Printf.sprintf "%.2f" (float_of_int x /. 1.0e6)
                | None -> "never"
              in
              [ first_entry r; be ])
            tierpolicy_configs
        in
        name :: cells)
      tierpolicy_benches
  in
  Render.table
    ~header:
      ("benchmark"
      :: List.concat_map
           (fun (n, _) -> [ n ^ " 1st (Mi)"; n ^ " BE (Mi)" ])
           tierpolicy_configs)
    ~rows;
  (* 2. per-tier residency under the adaptive policy *)
  pr "\nadaptive-policy tier residency: where do trace entries and dynamic\n";
  pr "IR executions live once both tiers are active?\n\n";
  let rows =
    List.map
      (fun name ->
        let r = R.run name R.Pypy_tiered in
        match r.R.jit with
        | None -> [ name; "-"; "-"; "-"; "-"; "-" ]
        | Some { R.log = l; _ } ->
            let dyn_total = l.tier1_dynamic_ir + l.tier2_dynamic_ir in
            let t2_share =
              if dyn_total = 0 then 0.0
              else
                100.0 *. float_of_int l.tier2_dynamic_ir
                /. float_of_int dyn_total
            in
            [
              name;
              string_of_int l.tier1_entries;
              string_of_int l.tier2_entries;
              Printf.sprintf "%.1f%%" t2_share;
              string_of_int l.retiers;
              string_of_int l.demotions;
            ])
      tierpolicy_benches
  in
  Render.table
    ~header:
      [ "benchmark"; "t1 entries"; "t2 entries"; "t2 dyn-IR"; "promoted";
        "demoted" ]
    ~rows;
  (* 3. compile-cost breakdown: tracing-phase instructions per policy *)
  pr "\ncompile cost: tracing/compiling-phase Mi per policy, with the\n";
  pr "tier-1/tier-2 compile counts behind it.\n\n";
  let rows =
    List.map
      (fun name ->
        let cells =
          List.concat_map
            (fun (_, vc) ->
              let r = R.run name vc in
              let tracing =
                float_of_int (R.phase_insns_of r Phase.Tracing) /. 1.0e6
              in
              let compiles =
                match r.R.jit with
                | Some { R.log = l; _ } ->
                    Printf.sprintf "%d/%d" l.tier1_compiles
                      l.tier2_compiles
                | None -> "-"
              in
              [ Render.f2 tracing; compiles ])
            tierpolicy_configs
        in
        name :: cells)
      tierpolicy_benches
  in
  Render.table
    ~header:
      ("benchmark"
      :: List.concat_map
           (fun (n, _) -> [ n ^ " Mi"; n ^ " t1/t2" ])
           tierpolicy_configs)
    ~rows;
  pr
    "\nThe adaptive policy buys its warmup win with cheap tier-1 code:\n\
     the first compiled entry lands earlier than under the optimizing\n\
     policy, and hot loops are promoted once their guard profile is\n\
     stable, so steady state converges on the optimizing tier. Demotion\n\
     stays rare -- it only fires where bridges proliferate on an\n\
     optimized loop.\n"

(* ---------------- extension: threshold sensitivity ---------------- *)

let thresholds () =
  Render.heading
    "EXTENSION: hot-loop threshold sensitivity (the paper's Q2 discussion)";
  pr "PyPy's production threshold is 1039 iterations; ours scales to 131.\n";
  pr "Each cell: total simulated Mcycles under that threshold (JIT on).\n\n";
  let benches =
    [ "richards"; "crypto_pyaes"; "spectral_norm"; "django"; "hexiom2";
      "pyflate_fast" ]
  in
  let sweep = [ 17; 37; 131; 523; 2099 ] in
  let matrix =
    List.concat_map (fun name -> List.map (fun th -> (name, th)) sweep) benches
  in
  let cells =
    R.parallel_map
      (fun (name, th) ->
        py_cycles_of name (fun c -> { c with Config.jit_threshold = th }))
      matrix
  in
  let rows =
    List.map2
      (fun name cells ->
        (* normalize to the th=131 cell (the scaled production default) *)
        let base =
          List.nth cells
            (Option.value ~default:0
               (List.find_index (fun th -> th = 131) sweep))
        in
        name
        :: List.map
             (fun c -> Printf.sprintf "%.1f (%.2fx)" (c /. 1e6) (c /. base))
             cells)
      benches
      (chunks (List.length sweep) cells)
  in
  Render.table
    ~header:
      ("benchmark"
      :: List.map (fun th -> Printf.sprintf "th=%d" th) sweep)
    ~rows;
  pr
    "\nThe sensitivity is asymmetric. Lowering the threshold is usually a\n\
     small win (hot code compiles sooner) but can backfire where eager\n\
     tracing catches loops before their types settle (crypto at th=17\n\
     pays 1.8x in bridges and retracing). Raising it is uniformly costly\n\
     -- hot code stays interpreted, up to several times slower at 16x\n\
     the default -- which is why PyPy ships an aggressive 1039 despite\n\
     the compile-time it spends on marginal loops.\n"

(* ------------ extension: bounded shared-cache capacity sweep ------------ *)

module SC = Mtj_rjit.Sharedcache

(* the sweep never runs a VM: cache entries are probe tokens *)
type SC.entry += Probe

(* Pure cache replay: the serving harness's Zipf request stream (same
   generator, same seed as `mtj serve`) driven over fresh bounded
   {!Mtj_rjit.Sharedcache} instances, one per capacity.  Each request
   performs the serve flow's cache half — one lookup, publish on miss —
   so what the table characterizes is the per-shard LRU policy against
   the workload's popularity skew, deterministically and without
   running any programs. *)
let cachesweep () =
  Render.heading
    "EXTENSION: bounded shared-cache capacity sweep (Zipf replay)";
  let requests = 2000 and zipf_s = 1.1 and seed = 42 in
  let corpus = Serve.default_corpus in
  pr
    "The serving request stream (corpus %d, zipf_s=%.1f, seed=%d, %d\n\
     requests) replayed over bounded caches with per-shard LRU eviction.\n\n"
    (List.length corpus) zipf_s seed requests;
  let stream = Serve.gen_requests ~corpus ~requests ~zipf_s ~seed in
  let caps = [ 1; 2; 3; 4; 6; 8; 0 ] in
  let rows =
    List.map
      (fun cap ->
        let cache = SC.create ~capacity:cap () in
        Array.iter
          (fun (rq : Serve.request) ->
            let (module V) = R.vm_of rq.Serve.req_lang in
            let key =
              SC.key ~lang:V.lang_name ~program:rq.Serve.req_bench
                ~config_digest:"sweep"
            in
            match SC.find cache ~ctx_uid:0 key with
            | Some _ -> ()
            | None -> ignore (SC.publish cache ~ctx_uid:0 key Probe))
          stream;
        let st = SC.stats cache in
        let hits = st.SC.shared_hits + st.SC.local_hits in
        [
          (if cap = 0 then "unbounded" else string_of_int cap);
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int hits /. float_of_int requests);
          string_of_int st.SC.misses;
          string_of_int st.SC.publications;
          string_of_int st.SC.evictions;
          string_of_int st.SC.requeues;
          string_of_int (SC.size cache);
        ])
      caps
  in
  Render.table
    ~header:
      [ "capacity"; "hit rate"; "misses"; "published"; "evicted";
        "requeued"; "live" ]
    ~rows;
  pr
    "\nDegradation under the Zipf mix is graceful: the rank-1 tenant\n\
     dominates the stream, so even a one-entry cache keeps a large\n\
     fraction of the unbounded hit rate, and each added slot recovers\n\
     most of a rank's worth of misses. The requeue column is the thrash\n\
     signal -- re-publications of previously evicted keys -- which goes\n\
     to zero exactly when the capacity covers the working set, and the\n\
     live count never exceeds the configured bound.\n"

(* ---------------- the experiment registry ---------------- *)

(* Each experiment declares the (benchmark, vm_config) matrix it reads
   up front; the harness prefetches the union through the worker pool,
   then the renderers replay against the warm cache in deterministic
   order.  Experiments that sweep custom configs (ablation, thresholds)
   have an empty matrix and parallelize internally via
   [Runner.parallel_map]. *)

type experiment = {
  ex_name : string;
  ex_doc : string;
  ex_runs : unit -> (string * R.vm_config) list;
  ex_render : unit -> unit;
}

let suite_runs configs () =
  List.concat_map
    (fun n -> List.map (fun c -> (n, c)) configs)
    (suite_names ())

(* suite_by_speedup's row ordering needs these two columns *)
let order_runs = suite_runs [ R.Cpython; R.Pypy_jit ]

let table2_runs () =
  let native_names =
    List.map (fun k -> k.Mtj_baselines.Native.kname) Mtj_baselines.Native.kernels
  in
  let rk = clbg_rk_names () in
  List.concat_map
    (fun n ->
      [ (n, R.Cpython); (n, R.Pypy_jit) ]
      @ (if List.mem n native_names then [ (n, R.Native_c) ] else [])
      @
      if List.mem n rk then [ (n, R.Racket); (n, R.Pycket_jit) ] else [])
    (clbg_py_names ())

let fig4_runs () =
  List.concat_map
    (fun n -> [ (n, R.Pypy_jit); (n, R.Pycket_jit) ])
    (clbg_common ())

let tiers_runs () =
  List.concat_map
    (fun n -> [ (n, R.Pypy_jit); (n, R.Pypy_tiered); (n, R.Cpython) ])
    tiers_benches

let tierpolicy_runs () =
  List.concat_map
    (fun n ->
      (n, R.Cpython)
      :: List.map (fun (_, vc) -> (n, vc)) tierpolicy_configs)
    tierpolicy_benches

let registry : experiment list =
  [
    { ex_name = "table1";
      ex_doc = "PyPy-suite performance (time, IPC, MPKI x 3 VMs)";
      ex_runs = suite_runs [ R.Cpython; R.Pypy_nojit; R.Pypy_jit ];
      ex_render = table1 };
    { ex_name = "table2";
      ex_doc = "CLBG performance across languages + C";
      ex_runs = table2_runs;
      ex_render = table2 };
    { ex_name = "table3";
      ex_doc = "significant AOT functions called from traces";
      ex_runs = order_runs;
      ex_render = table3 };
    { ex_name = "table4";
      ex_doc = "per-phase microarchitectural statistics";
      ex_runs = suite_runs [ R.Pypy_jit ];
      ex_render = table4 };
    { ex_name = "fig2";
      ex_doc = "phase breakdown per benchmark";
      ex_runs = order_runs;
      ex_render = fig2 };
    { ex_name = "fig3";
      ex_doc = "phase timeline during warmup";
      ex_runs = order_runs;
      ex_render = fig3 };
    { ex_name = "fig4";
      ex_doc = "PyPy vs Pycket phase breakdown (CLBG)";
      ex_runs = fig4_runs;
      ex_render = fig4 };
    { ex_name = "fig5";
      ex_doc = "warmup curves and break-even points";
      ex_runs = suite_runs [ R.Cpython; R.Pypy_nojit; R.Pypy_jit ];
      ex_render = fig5 };
    { ex_name = "fig6";
      ex_doc = "IR nodes compiled / hotness / dynamic rate";
      ex_runs = order_runs;
      ex_render = fig6 };
    { ex_name = "fig7";
      ex_doc = "meta-trace composition by IR category";
      ex_runs = order_runs;
      ex_render = fig7 };
    { ex_name = "fig8";
      ex_doc = "dynamic IR node-type histogram";
      ex_runs = order_runs;
      ex_render = fig8 };
    { ex_name = "fig9";
      ex_doc = "x86 instructions per IR node type";
      ex_runs = order_runs;
      ex_render = fig9 };
    { ex_name = "activity";
      ex_doc = "JIT machinery counters (extension)";
      ex_runs = order_runs;
      ex_render = jit_activity };
    { ex_name = "ablation";
      ex_doc = "optimizer-pass ablation (extension)";
      ex_runs = (fun () -> []);
      ex_render = ablation };
    { ex_name = "tiers";
      ex_doc = "two-tier compilation: warmup vs steady state (extension)";
      ex_runs = tiers_runs;
      ex_render = tiers };
    { ex_name = "tierpolicy";
      ex_doc = "tier policies: warmup/residency/compile cost (extension)";
      ex_runs = tierpolicy_runs;
      ex_render = tierpolicy };
    { ex_name = "thresholds";
      ex_doc = "hot-loop threshold sensitivity (extension)";
      ex_runs = (fun () -> []);
      ex_render = thresholds };
    { ex_name = "cachesweep";
      ex_doc = "bounded shared-cache hit rate vs capacity (extension)";
      ex_runs = (fun () -> []);
      ex_render = cachesweep };
  ]

let find name = List.find_opt (fun e -> e.ex_name = name) registry

(** fill the memo cache for a set of experiments in one parallel wave *)
let prefetch_for (exps : experiment list) =
  R.prefetch (List.concat_map (fun e -> e.ex_runs ()) exps)

(* ---------------- everything ---------------- *)

let all () =
  prefetch_for registry;
  List.iter (fun e -> e.ex_render ()) registry
