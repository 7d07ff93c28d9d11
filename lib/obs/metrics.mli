(** Metrics registry: versioned JSON export of the cross-layer counters.

    Gathers what the textual [--timings] report prints — per-phase
    machine counters with their derived rates, GC statistics, the JIT
    log's per-trace rows and machinery counters — into one
    machine-readable document, so experiment results can be archived and
    diffed without scraping terminal tables. *)

val schema : string
(** ["mtj-metrics/9"]; written to the document's ["schema"] field. *)

val record :
  bench:string ->
  config:string ->
  status:string ->
  run:Catalog.run ->
  per_phase:(Mtj_core.Phase.t * Mtj_machine.Counters.snapshot) list ->
  total:Mtj_machine.Counters.snapshot ->
  gc:Mtj_rt.Gc_sim.stats ->
  jit:Mtj_rjit.Jitlog.snapshot option ->
  Json.t
(** The one builder of run records: every {!Catalog} block in table
    order, with the phases that saw instructions and ["total"].  [jit]
    is [null] for runs without a JIT (native kernels). *)

val run_json :
  bench:string ->
  config:string ->
  status:string ->
  engine:Mtj_machine.Engine.t ->
  jitlog:Mtj_rjit.Jitlog.t ->
  gc:Mtj_rt.Gc_sim.stats ->
  ticks:int ->
  hstats:Mtj_rt.Hstats.t ->
  Json.t
(** {!record} for a run that just finished on a live engine; [ticks] is
    the dispatch-tick total a {!Sink} counted. *)

val document : ?serve:Json.t -> runs:Json.t list -> unit -> Json.t
(** Wrap run records into the versioned top-level document.  [serve],
    when given, becomes the optional top-level ["serve"] block (a
    serving session's latency/throughput/shared-cache summary, built by
    the harness; see OBS_SCHEMA.md). *)

val write : ?serve:Json.t -> file:string -> runs:Json.t list -> unit -> unit
