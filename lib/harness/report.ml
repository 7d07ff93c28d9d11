module J = Mtj_obs.Json
module Metrics = Mtj_obs.Metrics
module R = Runner

(* --- percentiles (exact nearest-rank) --- *)

(* The p-th percentile by the nearest-rank definition: the smallest
   sample whose cumulative rank is >= ceil(p/100 * n).  Exact (no
   interpolation), so reported latencies are always observed samples —
   the convention serving-latency dashboards use.  p50 of [|1.;2.;3.;4.|]
   is 2., p100 is the maximum, p of a singleton is that sample. *)
let percentile (xs : float array) (p : float) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Report.percentile: empty sample set";
  if not (p > 0. && p <= 100.) then
    invalid_arg "Report.percentile: p must be in (0, 100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(min (n - 1) (max 0 (rank - 1)))

(* --- bench timings ("mtj-bench-timings/2") --- *)

let timings_json ~jobs ~total_wall ~experiments ~runs =
  J.Obj
    [
      ("schema", J.Str "mtj-bench-timings/2");
      ("jobs", J.Int jobs);
      ("total_wall_s", J.Float total_wall);
      ( "experiments",
        J.Arr
          (List.map
             (fun (name, wall) ->
               J.Obj [ ("name", J.Str name); ("wall_s", J.Float wall) ])
             experiments) );
      ( "runs",
        J.Arr
          (List.map
             (fun (rt : R.run_timing) ->
               J.Obj
                 [
                   ("bench", J.Str rt.R.rt_bench);
                   ("config", J.Str (R.config_name rt.R.rt_config));
                   ("wall_s", J.Float rt.R.rt_wall_s);
                   ("insns", J.Int rt.R.rt_insns);
                   ("cycles", J.Float rt.R.rt_cycles);
                   ("minor_words", J.Float rt.R.rt_minor_words);
                 ])
             runs) );
    ]

let write_timings ~file ~jobs ~total_wall ~experiments =
  J.write_file ~indent:2 ~file
    (timings_json ~jobs ~total_wall ~experiments ~runs:(R.run_timings ()));
  Printf.eprintf "[timings written to %s]\n%!" file

(* --- metrics (Metrics.schema) --- *)

let status_name = function
  | R.Ok_run -> "ok"
  | R.Hit_budget -> "budget"
  | R.Failed _ -> "failed"

let metrics_json (r : R.result) =
  Metrics.record ~bench:r.R.bench_name ~config:(R.config_name r.R.config)
    ~status:(status_name r.R.status)
    ~run:
      {
        Mtj_obs.Catalog.insns = r.R.insns;
        cycles = r.R.cycles;
        ticks = r.R.ticks;
        charge_flushes = r.R.charge_flushes;
        fast_path_bundles = r.R.fast_path_bundles;
        hstats = r.R.hstats;
      }
    ~per_phase:r.R.per_phase ~total:r.R.total ~gc:r.R.gc
    ~jit:(Option.map (fun (j : R.jit_stats) -> j.R.log) r.R.jit)

let write_metrics ~file results =
  Metrics.write ~file ~runs:(List.map metrics_json results) ();
  Printf.eprintf "[metrics written to %s]\n%!" file
