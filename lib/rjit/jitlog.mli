(** The PyPy-Log equivalent (Sec. III).

    Records every compiled trace (loops and bridges) with its IR and the
    dynamic per-operation execution counts maintained by the executor,
    plus the JIT machinery event counters (aborts, deopts, bridges,
    blacklists, retiers). The JIT-IR-level characterization (Figures
    6–9) is computed from here. *)

(** {2 Snapshot}

    An immutable copy of a log's counters, taken when a run ends.  It
    holds no IR, so a memoized run keeps its counters without keeping
    its traces alive.  Declared before {!t}, so that an unqualified
    field access on a log of unknown type still means {!t}. *)

(** One compiled trace, in compilation order. *)
type trace_row = {
  id : int;
  kind : string;  (** ["loop"] or ["bridge"] *)
  tier : int;
  loop_code : int;
  static_ops : int;
  entries : int;
  dynamic_ir : int;  (** raw op executions, debug markers included *)
  translations : int;
  cache_hits : int;
  deopts : int;
  bridges : int;
}

type snapshot = {
  num_traces : int;
  aborts : int;
  abort_reasons : (string * int) list;  (** sorted by reason *)
  deopts : int;
  bridges_attached : int;
  blacklisted : int;
  retiers : int;
  translations : int;
  code_cache_hits : int;
  shared_code_hits : int;
  interp_translations : int;
  threaded_code_hits : int;
  tier1_compiles : int;
  tier2_compiles : int;
  demotions : int;
  first_entry_insns : int;
  seeded_sites : int;
  tier1_entries : int;
      (** per-tier residency: the rows' entries and dynamic IR summed
          by tier (1, or 2 and above) *)
  tier2_entries : int;
  tier1_dynamic_ir : int;
  tier2_dynamic_ir : int;
  total_ir_compiled : int;  (** IR nodes compiled (Figure 6a) *)
  total_dynamic_ir : int;  (** IR node executions (Figure 6c numerator) *)
  rows : trace_row list;
}

type t = {
  mutable traces : Ir.trace list;  (** newest first *)
  mutable next_trace_id : int;
  mutable aborts : int;
  mutable abort_reasons : (string * int) list;
  mutable blacklisted : int;
  mutable deopts : int;
  mutable bridges_attached : int;
  mutable retiers : int;  (** tier-1 traces recompiled at tier 2 *)
  mutable translations : int;
      (** traces translated into closure-threaded code *)
  mutable code_cache_hits : int;
      (** trace entries whose threaded code came from the per-context
          code cache — the {e local} (same-context) side of the code
          hit split; [shared_code_hits] counts the cross-context side *)
  mutable shared_code_hits : int;
      (** code artifacts served from the shared cross-context cache
          ({!Sharedcache}) published by another context; disjoint from
          [code_cache_hits] by construction (a lookup is resolved by
          exactly one tier, so the two never double count) *)
  mutable interp_translations : int;
      (** interpreter code objects translated into threaded-dispatch
          step arrays (the tier below traces; see {!Threaded}) *)
  mutable threaded_code_hits : int;
      (** dispatch-loop code switches served from the threaded-code
          cache in the language's code table *)
  mutable tier1_compiles : int;  (** baseline-tier trace compiles *)
  mutable tier2_compiles : int;
      (** optimizing-tier trace compiles (initial compiles, promotions
          and optimized bridges alike) *)
  mutable demotions : int;
      (** optimized loops recompiled back at the baseline tier after
          bridge proliferation (Adaptive policy) *)
  mutable first_entry_insns : int;
      (** simulated instruction count at the first compiled-trace
          entry, or [-1] if no trace ever ran — the
          time-to-first-compiled-execution warmup metric *)
  mutable seeded_sites : int;
      (** loop sites whose hotness counter was seeded from an imported
          {!Traceprofile.t} (serving mode) instead of counted from
          zero *)
}

val create : unit -> t
val fresh_trace_id : t -> int
val register : t -> Ir.trace -> unit

val find : t -> int -> Ir.trace option
(** Look up a trace by id (the executor resolves [call_assembler]
    targets through this). *)

val traces : t -> Ir.trace list
(** All compiled traces, oldest first. *)

val num_traces : t -> int

val record_abort : t -> string -> unit
val record_deopt : t -> unit
val record_bridge : t -> unit
val record_blacklist : t -> unit
val record_retier : t -> unit
val record_translation : t -> unit
val record_code_cache_hit : t -> unit

val record_shared_code_hits : t -> n:int -> unit
(** Count [n] code artifacts served from the shared cross-context
    cache (a warm serve request records its bundle's size here).
    Raises [Invalid_argument] on negative [n]. *)

val record_interp_translation : t -> unit
val record_threaded_code_hit : t -> unit

val record_tier_compile : t -> tier:int -> unit
(** Bump [tier1_compiles] or [tier2_compiles]; called by
    {!Backend.compile} for every trace. *)

val record_demotion : t -> unit

val record_first_entry : t -> insns:int -> unit
(** Latch [first_entry_insns] on the first compiled-trace entry;
    subsequent calls are no-ops. *)

val record_seeded_site : t -> unit
(** Count a loop site seeded from an imported trace profile. *)

val snapshot : t -> snapshot

(** {2 Aggregate statistics for the figures}

    All counts exclude debug merge points and labels, as the paper's
    do. *)

val hot_ir_fraction : t -> coverage:float -> float
(** Percentage of compiled IR nodes accounting for [coverage] (e.g.
    [0.95]) of all dynamic IR executions (Figure 6b). *)

val dynamic_by_node_type : t -> (string * int) list
(** Dynamic execution count per IR node-type name, descending
    (Figure 8). *)

val dynamic_by_category : t -> (Ir.cat * int) list
(** Dynamic execution count per IR category (Figure 7). *)

val x86_per_node_type : t -> (string * float) list
(** Mean x86 instructions per IR node type, dynamically weighted
    (Figure 9). *)
