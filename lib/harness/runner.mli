(** Benchmark runner: executes one benchmark under one VM configuration
    with the full cross-layer instrumentation attached, and collects
    everything the paper's tables and figures need.  Results are
    memoized per (benchmark, VM configuration, simulated config) since
    several experiments share runs; {!prefetch} fills the cache from a
    pool of worker domains, and the simulation is deterministic, so
    rendered output is byte-identical at any [-j]. *)

(** The VM configurations of the paper's run matrix (Table II). *)
type vm_config =
  | Cpython        (** reference C interpreter (pylite) *)
  | Pypy_nojit     (** RPython-translated interpreter, JIT off *)
  | Pypy_jit       (** the meta-tracing JIT *)
  | Pypy_tiered    (** extension: adaptive multi-tier compile *)
  | Pypy_baseline  (** extension: baseline tier only, never promoted *)
  | Racket         (** custom-JIT reference VM (rklite) *)
  | Pycket_nojit
  | Pycket_jit
  | Native_c       (** statically-compiled kernel *)

val config_name : vm_config -> string

val vm_of : Mtj_benchmarks.Registry.lang -> (module Mtj_rjit.Vm.S)
(** The VM that hosts a language: [Mtj_pylite.Vm] or [Mtj_rklite.Kvm]. *)

type status = Ok_run | Hit_budget | Failed of string

(** A JIT run's counters: the log's snapshot (machinery counters,
    tier residency, IR totals, one row per trace) plus the figures' IR
    aggregates.  Neither keeps the trace IR alive. *)
type jit_stats = {
  log : Mtj_rjit.Jitlog.snapshot;
  hot_fraction_95 : float;
      (** % of compiled IR nodes covering 95% of dynamic IR (Figure 6b) *)
  by_category : (Mtj_rjit.Ir.cat * int) list;
  by_node_type : (string * int) list;
  x86_per_type : (string * float) list;
}

(** [perfbench/] reads [status], [output], [insns], [cycles], [gc],
    [charge_flushes], [fast_path_bundles], [imm_fast_path_hits] and
    [typed_ops_total] by name: they change only with the benchmark. *)
type result = {
  bench : Mtj_benchmarks.Registry.bench option;  (** [None] for native kernels *)
  bench_name : string;
  config : vm_config;
  status : status;
  output : string;
  insns : int;
  cycles : float;
  total : Mtj_machine.Counters.snapshot;
  per_phase : (Mtj_core.Phase.t * Mtj_machine.Counters.snapshot) list;
  phase_insns : (Mtj_core.Phase.t * int) list;
      (** from the annotation stream *)
  timeline : (Mtj_core.Phase.t * float) array array;
  timeline_bucket : int;
  ticks : int;  (** dispatch-loop work units *)
  samples : (int * int) array;  (** warmup curve *)
  aot_top : (string * string * int) list;  (** (src, name, insns) desc *)
  jit : jit_stats option;
  gc : Mtj_rt.Gc_sim.stats;
  charge_flushes : int;
      (** staged-counter writebacks performed by the charging fast path *)
  fast_path_bundles : int;
      (** bundles charged through the batched [Counters] fast path *)
  hstats : Mtj_rt.Hstats.t;
      (** the host fast-path counters, copied when the run ended *)
  imm_fast_path_hits : int;
  typed_ops_total : int;
      (** copies of the [hstats] fields of the same names, kept only
          because [perfbench/] reads them; drop them with the next
          benchmark change *)
}

val default_budget : int

val profile_of : vm_config -> Mtj_core.Profile.t
(** The interpreter cost profile a [vm_config] runs under. *)

val config_of : ?budget:int -> vm_config -> Mtj_core.Config.t
(** The {!Mtj_core.Config.t} a given [vm_config] runs under, with the
    session's [--tier-policy] setting applied.  This is exactly the
    config {!run} builds; the serving harness ({!Serve}) uses it so
    shared-cache keys reflect every knob that affects compiled code. *)

(* --- running --- *)

val run : ?budget:int -> string -> vm_config -> result
(** Memoized: the first call per (benchmark, [vm_config], simulated
    config) simulates, later calls return the cached result.  The key
    holds the config the run simulates ({!config_of} at call time), so a
    different budget or tier-policy override is a different run.
    Raises [Invalid_argument] for an unknown benchmark name. *)

val run_many :
  ?jobs:int -> ?budget:int -> (string * vm_config) list -> result list
(** {!prefetch} in parallel, then return the results in input order. *)

val prefetch : ?jobs:int -> ?budget:int -> (string * vm_config) list -> unit
(** Fill the memo cache for every pair, running the missing ones on
    worker domains.  Renderers that subsequently call {!run} read cached
    results in their own deterministic order. *)

val clear_cache : unit -> unit

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Map on the configured number of worker domains, preserving order.
    The function must be self-contained (create its VMs within the
    call). *)

(* --- the -j setting --- *)

val set_jobs : int -> unit
(** [0] means "auto" ([MTJ_JOBS], else the hardware's recommendation). *)

val jobs : unit -> int

(* --- the --tier-policy setting --- *)

val set_tier_policy : Mtj_core.Config.tier_policy -> unit
(** Force the tier policy of every JIT configuration built after the
    call ([Pypy_jit]/[Pycket_jit]; [Pypy_tiered] and [Pypy_baseline]
    pin their policy by name and ignore the override).  Unset, the
    policy is "auto": [MTJ_TIER_POLICY]
    ("optimizing"/"baseline"/"adaptive"), else each config's default.
    This {e changes simulated behavior}: compile costs, warmup and trace tiers all move with the
    policy. *)

val tier_policy_override : unit -> Mtj_core.Config.tier_policy option
(** The override a [config_of] call would apply right now, if any. *)

(* --- timing report --- *)

type run_timing = {
  rt_bench : string;
  rt_config : vm_config;
  rt_wall_s : float;
  rt_insns : int;
  rt_cycles : float;
  rt_minor_words : float;
      (** host minor-heap words allocated while simulating this run
          ([Gc.minor_words] delta on the run's worker domain) —
          deterministic, since the allocation counter is monotonic and
          the simulation allocates the same objects every run *)
}

val run_timings : unit -> run_timing list
(** Wall-clock and simulated work of every cached run, sorted by
    (benchmark, config) for stable reporting. *)

(* --- derived metrics --- *)

val mcycles : result -> float
val ipc : result -> float
val mpki : result -> float

val speedup : baseline:result -> result -> float

val phase_insns_of : result -> Mtj_core.Phase.t -> int
val phase_fraction : result -> Mtj_core.Phase.t -> float
