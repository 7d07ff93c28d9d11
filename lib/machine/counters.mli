(** Per-phase performance counters (the PAPI/perf substitute).

    Tracks instructions, branches, branch misses, loads, stores and cache
    misses as integers, attributed to the framework phase that was
    current when the work was charged.  Cycles are not charged: they are
    derived when queried, per phase [p], as

    {v insns / width(p) + 14 * branch_misses + 18 * cache_misses v}

    (a fixed pipeline-flush penalty per mispredicted branch and a fixed
    stall per cache miss).  Widths for interpreter-style phases come
    from the running VM's {!Mtj_core.Profile}; widths for JIT/GC/blackhole
    phases are properties of that code style.  Derived metrics (IPC,
    branch MPKI, branch rate, miss rate) feed Table I, Table IV and the
    per-phase microarchitecture analysis. *)

type t

type snapshot = {
  insns : int;
  cycles : float;  (** derived from the fields below and the phase width *)
  branches : int;
  branch_misses : int;
  loads : int;
  stores : int;
  cache_misses : int;
}

val create : unit -> t
(** Fresh counters; the interpreter-style phases start at width 2.0. *)

val set_interp_width : t -> float -> unit
(** The issue width of the [Interpreter], [Tracing] and [Native] phases. *)

(* --- charging (used by Engine) ---

    Charging is staged: updates for the current phase accumulate in
    scalar registers and are written back to the per-phase arrays on the
    next phase switch or query ("flush").  Every query below flushes
    first, so a captured [t] handle always reads exact values — there is
    no "pending" state observable from outside.  [i] must be a valid
    [Phase.index] (the Engine passes its cached current-phase index). *)

val add_bundle : t -> int -> n:int -> loads:int -> stores:int -> unit
val add_branch : t -> int -> mispredicted:bool -> unit
val add_cache_miss : t -> int -> unit

val charge_flushes : t -> int
(** Number of staged-state writebacks performed so far (phase switches
    and query-triggered flushes that had pending updates). *)

val fast_path_bundles : t -> int
(** Number of instruction bundles charged through the staged fast path
    (i.e. every [add_bundle] call). *)

(* --- queries --- *)

val phase : t -> Mtj_core.Phase.t -> snapshot
val total : t -> snapshot

val total_cycles : t -> float
(** [(total t).cycles], read from the staged state without flushing. *)

val ipc : snapshot -> float
(** instructions per cycle; 0 when no cycles elapsed *)

val branch_mpki : snapshot -> float
(** branch misses per 1000 instructions *)

val branch_per_insn : snapshot -> float
val branch_miss_rate : snapshot -> float
(** fraction of branches mispredicted *)
