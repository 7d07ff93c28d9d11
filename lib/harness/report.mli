(** Machine-readable reports over {!Runner} results.

    Two versioned JSON documents, both built on {!Mtj_obs.Json} and
    checked by {!Mtj_obs.Validate}:

    - ["mtj-bench-timings/2"] — per-experiment and per-run wall-clock of
      a bench invocation ([--timings FILE]);
    - {!Mtj_obs.Metrics.schema} — the full cross-layer counter export of
      a set of runs ([--metrics-out FILE]), built by
      {!Mtj_obs.Metrics.record} like every other run record. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the exact nearest-rank p-th percentile of [xs]:
    the smallest sample whose cumulative rank reaches [ceil (p/100 * n)].
    No interpolation — the result is always an observed sample.  Raises
    [Invalid_argument] on an empty array or [p] outside [(0, 100]]. *)

val timings_json :
  jobs:int ->
  total_wall:float ->
  experiments:(string * float) list ->
  runs:Runner.run_timing list ->
  Mtj_obs.Json.t

val write_timings :
  file:string ->
  jobs:int ->
  total_wall:float ->
  experiments:(string * float) list ->
  unit
(** Render {!timings_json} over [Runner.run_timings ()] and write it. *)

val metrics_json : Runner.result -> Mtj_obs.Json.t
(** One run record, built purely from the memoized result (no live
    engine needed). *)

val write_metrics : file:string -> Runner.result list -> unit
(** Wrap the run records into the versioned document and write it. *)
