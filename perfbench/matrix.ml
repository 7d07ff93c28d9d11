(* The paper-matrix workloads.

   The matrix is the union of every experiment's declared runs, split
   into its JIT rows (pypy, pypy-1tier, pypy-2tier, pycket), where the
   recorder, optimizer, backend, executor and blackhole do the host
   work, and its reference rows (cpython, pypy-nojit, racket, c), where
   only interpreter dispatch, machine charging and the runtime library
   run.  Each is the other's control.  The rows are fixed inputs in the
   registry's order; the seed does not change them, because the peak
   RSS depends on the order rows run in (a shuffled order moved it by a
   fifth). *)

open Mtj_core
module R = Mtj_harness.Runner
module E = Mtj_harness.Experiments
module B = Mtj_benchmarks.Registry

type kind = Jit | Interp

let is_jit = function
  | R.Pypy_jit | R.Pypy_tiered | R.Pypy_baseline | R.Pycket_jit -> true
  | R.Cpython | R.Pypy_nojit | R.Racket | R.Pycket_nojit | R.Native_c -> false

let lang_of = function
  | R.Cpython | R.Pypy_nojit | R.Pypy_jit | R.Pypy_tiered | R.Pypy_baseline -> Some B.Py
  | R.Racket | R.Pycket_nojit | R.Pycket_jit -> Some B.Rk
  | R.Native_c -> None

(* the reference interpreter a row's output is checked against; the
   native kernels print what their pylite programs print *)
let reference_of vc = if lang_of vc = Some B.Rk then R.Racket else R.Cpython

(* [Runner]'s own mapping, which it keeps private *)
let profile_of = function
  | R.Cpython -> Profile.cpython
  | R.Racket -> Profile.racket_custom
  | R.Native_c -> Profile.native
  | R.Pypy_nojit | R.Pypy_jit | R.Pypy_tiered | R.Pypy_baseline | R.Pycket_nojit
  | R.Pycket_jit ->
      Profile.rpython_interp

let all_rows () =
  let seen = Hashtbl.create 128 in
  List.concat_map (fun e -> e.E.ex_runs ()) E.registry
  |> List.filter (fun k ->
         (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))

let programs rows =
  List.sort_uniq compare
    (List.filter_map (fun (b, vc) -> Option.map (fun l -> (l, b)) (lang_of vc)) rows)

(* Set-up: choose the rows, then parse and compile every program they
   run in a fresh VM. *)
let setup kind =
  let rows = List.filter (fun (_, vc) -> is_jit vc = (kind = Jit)) (all_rows ()) in
  List.iter
    (fun (l, b) -> match l with B.Py -> Lang.Py.front_end b | B.Rk -> Lang.Rk.front_end b)
    (programs rows);
  rows

(* Set-up runs this many times per measurement, spread over the run so
   that its median samples the host at different moments rather than
   in one short window; the median is setup_s. *)
let setup_reps = 9

(* --- untraced runs through [Runner.run] --- *)

(* what the checks and metrics keep of a [Runner.result] *)
type row = { status : R.status; output : string; insns : int; cycles : float }

type sample = { key : string * R.vm_config; wall : float; words : float; res : (row, string) result }

(* Prepares each execution of a row: [Runner.run] memoizes per (bench,
   config) and accumulates timings, so every execution starts from an
   empty memo — otherwise repeats would time a hash lookup, not
   simulation — and after a full major collection, so a row's time
   does not include collecting the garbage earlier rows left. *)
let fresh () =
  R.clear_cache ();
  Gc.full_major ()

(* one execution of a row; [on_result] sees the full result *)
let run_row ?(on_result = ignore) (b, vc) =
  fresh ();
  let res, wall = Util.time (fun () -> try Ok (R.run b vc) with e -> Error (Printexc.to_string e)) in
  let words = Util.sum (List.map (fun t -> t.R.rt_minor_words) (R.run_timings ())) in
  let res =
    Result.map
      (fun (r : R.result) ->
        on_result r;
        { status = r.R.status; output = r.R.output; insns = r.R.insns; cycles = r.R.cycles })
      res
  in
  { key = (b, vc); wall; words; res }

(* one pass per 15 s of [seconds], rounded, at least one *)
let pass_count seconds = max 1 (int_of_float (Float.round (seconds /. 15.0)))

(* Passes over the rows, each running every row twice back to back:
   first "cold" (the previous execution was another row), then "warm"
   (the same row ran just before).  The number of passes comes from
   [seconds] rather than from the clock, so the execution sequence, and
   with it the peak RSS, is the same on every run.  [between i] runs
   before the i-th pair of executions.  Returns, per pass, each row's
   (cold, warm) pair. *)
let passes rows ~seconds ~between =
  List.init (pass_count seconds) (fun pass ->
      List.mapi
        (fun i row ->
          between ((pass * List.length rows) + i);
          let cold = run_row row in
          (cold, run_row row))
        rows)

(* --- output checks --- *)

let digest s = Digest.to_hex (Digest.string s)

(* Number of failed samples: a sample fails when its row did not
   complete, or when its output differs from its reference
   interpreter's on the same program.  References are the workload's
   own reference row when it has one (pypy-nojit and c against
   cpython), else a separate [Runner.run] after the timed runs (every
   JIT row).  Reference rows themselves are checked against the output
   digest recorded in [Reference]. *)
let failures (samples : sample list) =
  let refs = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.res with
      | Ok { status = R.Ok_run; output; _ } -> Hashtbl.replace refs s.key (Some output)
      | _ -> Hashtbl.replace refs s.key None)
    samples;
  let ref_output b rc =
    match Hashtbl.find_opt refs (b, rc) with
    | Some o -> o
    | None ->
        let o =
          match R.run b rc with
          | { R.status = R.Ok_run; output; _ } -> Some output
          | _ -> None
          | exception _ -> None
        in
        Hashtbl.replace refs (b, rc) o;
        o
  in
  List.length
    (List.filter
       (fun s ->
         let b, vc = s.key in
         match s.res with
         | Ok { status = R.Ok_run; output; _ } ->
             let rc = reference_of vc in
             if vc = rc then
               match Reference.row b (R.config_name vc) with
               | Some (_, _, d) -> d <> digest output
               | None -> false
             else ref_output b rc <> Some output
         | _ -> true)
       samples)

(* rows whose simulated insns or cycles moved from the recorded ones *)
let drift samples =
  List.length
    (List.filter
       (fun s ->
         let b, vc = s.key in
         match (s.res, Reference.row b (R.config_name vc)) with
         | Ok r, Some (insns, cycles, _) -> r.insns <> insns || Printf.sprintf "%h" r.cycles <> cycles
         | _ -> true)
       samples)

(* --- end-to-end metrics --- *)

let measure kind ~seconds =
  let rows, first = Util.time (fun () -> setup kind) in
  let setups = ref [ first ] in
  let every = max 1 (List.length rows * pass_count seconds / setup_reps) in
  let between i =
    if i > 0 && i mod every = 0 && List.length !setups < setup_reps then
      setups := snd (Util.time (fun () -> setup kind)) :: !setups
  in
  let runs = passes rows ~seconds ~between in
  let peak = Util.peak_rss_mb () in
  let both = List.concat_map (fun (c, w) -> [ c; w ]) in
  (* one pass's wall: each row's median over its executions, summed *)
  let wall =
    Util.sum
      (List.mapi
         (fun i _ -> Util.median (List.map (fun s -> s.wall) (both (List.map (fun p -> List.nth p i) runs))))
         rows)
  in
  (* a request is a pass over the rows; its latency is the summed
     walls of the pass's cold, or of its warm, executions *)
  let pass_walls pick = List.map (fun p -> Util.sum (List.map (fun pair -> (pick pair).wall) p)) runs in
  let cold = pass_walls fst and warm = pass_walls snd in
  let first = List.hd runs in
  let sim f = List.fold_left (fun acc (s, _) -> match s.res with Ok r -> acc +. f r | Error _ -> acc) 0.0 first in
  let insns = sim (fun r -> float_of_int r.insns) and cycles = sim (fun r -> r.cycles) in
  (* a repeat's allocation: a row's first execution in the process may
     also pay one-time initialisation *)
  let words = Util.sum (List.map (fun (_, w) -> w.words) first) in
  let samples = List.concat_map both runs in
  let n = List.length rows in
  let p50 l = 1000.0 *. Util.median l and p99 l = 1000.0 *. Util.percentile l 99.0 in
  let open Util in
  {
    attempted = List.length samples;
    failed = failures samples;
    notes =
      [
        Printf.sprintf
          "%d rows x %d passes, each row twice per pass; request = a pass over the rows, cold = each \
           row right after another, warm = each row right after itself"
          n (List.length cold);
      ];
    metrics =
      [
        m "setup_s" "s" (median !setups);
        m "wall_s" "s" wall;
        m "sim_minsn_per_s" "Minsn/s" (insns /. wall /. 1e6);
        m "minor_words_per_insn" "words/insn" (words /. insns);
        m "peak_rss_mb" "MB" peak;
        m "sim_gcycles" "Gcycles" (cycles /. 1e9);
        m "req_per_s" "1/s" (float_of_int n /. wall);
        m "p50_ms" "ms" (p50 (cold @ warm));
        m "p99_ms" "ms" (p99 (cold @ warm));
        m "cold_p50_ms" "ms" (p50 cold);
        m "cold_p99_ms" "ms" (p99 cold);
        m "warm_p50_ms" "ms" (p50 warm);
        m "warm_p99_ms" "ms" (p99 warm);
      ];
  }

(* --- traced run --- *)

(* one row through the same simulation with the probe attached *)
let traced_row p (b, vc) =
  let config = R.config_of vc and profile = profile_of vc in
  match lang_of vc with
  | Some B.Py -> Lang.Py.matrix_row p ~config ~profile b
  | Some B.Rk -> Lang.Rk.matrix_row p ~config ~profile b
  | None ->
      let kernel = Option.get (Mtj_baselines.Native.find b) in
      let rtc = Mtj_rt.Ctx.create ~config () in
      let eng = Mtj_rt.Ctx.engine rtc in
      let tracker = Mtj_pintool.Phase_tracker.attach eng in
      let sampler = Mtj_pintool.Rate_sampler.attach eng in
      Probe.attach p eng;
      let output = Mtj_baselines.Native.run rtc kernel in
      Probe.finish p eng;
      Mtj_pintool.Phase_tracker.finalize tracker;
      Mtj_pintool.Rate_sampler.finalize sampler;
      {
        Lang.status = "ok";
        output;
        insns = Mtj_machine.Engine.total_insns eng;
        cycles = Mtj_machine.Engine.total_cycles eng;
      }

let traced kind =
  let rows = setup kind in
  let p = Probe.create () in
  let counts (r : R.result) =
    Probe.count p ~charge_flushes:r.R.charge_flushes ~fast_path_bundles:r.R.fast_path_bundles
      ~imm_fast:r.R.imm_fast_path_hits ~typed_ops:r.R.typed_ops_total
      ~minor_collections:r.R.gc.Mtj_rt.Gc_sim.minor_collections
  in
  (* each row untraced and traced back to back, alternating which goes
     first, so host speed drifting during the run cancels out of the
     overhead *)
  let traced_exec row =
    fresh ();
    Util.time (fun () -> traced_row p row)
  in
  let untraced, replica =
    List.split
      (List.mapi
         (fun i row ->
           if i mod 2 = 0 then
             let u = run_row ~on_result:counts row in
             (u, traced_exec row)
           else
             let t = traced_exec row in
             (run_row ~on_result:counts row, t))
         rows)
  in
  (* the probe's path must simulate exactly what [Runner.run] did *)
  let mismatches =
    Util.sumi
      (List.map2
         (fun s ((t : Lang.run), _) ->
           match s.res with
           | Ok r ->
               Bool.to_int (r.insns <> t.Lang.insns || r.cycles <> t.Lang.cycles || r.output <> t.Lang.output)
           | Error _ -> 1)
         untraced replica)
  in
  (* optimizer and backend: the pypy-1tier config skips the optimizer
     and leaves raw recordings, which are replayed under pypy's *)
  if kind = Jit then begin
    let config = R.config_of R.Pypy_baseline in
    let traces =
      List.concat_map
        (fun (l, b) ->
          match l with
          | B.Py -> Lang.Py.recordings ~config b
          | B.Rk -> Lang.Rk.recordings ~config b)
        (programs rows)
    in
    Probe.replay p ~config:(R.config_of R.Pypy_jit) traces
  end;
  let wall_u = Util.sum (List.map (fun s -> s.wall) untraced) in
  let wall_t = Util.sum (List.map snd replica) in
  let overhead = wall_t -. wall_u in
  {
    Util.attempted = 2 * List.length rows;
    failed = failures untraced + mismatches;
    notes = [ Printf.sprintf "%d rows; untraced %.3f s, traced %.3f s" (List.length rows) wall_u wall_t ];
    metrics =
      Probe.metrics p
        ~cache:(Mtj_rjit.Sharedcache.stats (Mtj_rjit.Sharedcache.create ()))
        ~seeded_share:0.0 ~overhead_s:overhead ~overhead_share:(overhead /. wall_u)
        ~drift:(drift untraced);
  }
