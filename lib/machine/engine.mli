(** The execution target.

    Every VM in this reproduction — reference interpreters, the
    RPython-style interpreter, JIT-compiled trace code, the GC, the
    blackhole deoptimizer, native baselines — performs its semantic work
    in OCaml and charges the corresponding machine work here: instruction
    bundles, individual branch events (fed to the predictor), heap
    accesses (fed to the cache model) and zero-cost cross-layer
    annotations (delivered to listeners, playing the role of the paper's
    PinTool intercepting tagged [nop]s).

    Cycle model: see {!Counters}.  A phase's cycles are derived from its
    integer counters when queried — [insns / width(p)] plus a fixed
    penalty per mispredicted branch and per cache miss — so charging adds
    integers only and is associative. *)

exception Budget_exhausted
(** Raised when the configured instruction budget is reached; the harness
    catches it to end a run (the paper runs each benchmark for a fixed
    10 B instructions). *)

type t

type listener = insns:int -> Mtj_core.Annot.t -> unit
(** Called for every annotation with the current total instruction count. *)

val create : ?config:Mtj_core.Config.t -> unit -> t

val set_interp_width : t -> float -> unit
(** Install the effective issue width used while in the [Interpreter],
    [Tracing] and [Native] phases (from the VM's profile).  A run has
    one width: raises [Invalid_argument] once any instruction has been
    charged. *)

(* --- charging work --- *)

val emit : t -> Mtj_core.Cost.t -> unit
(** Charge a bundle of non-branch instructions to the current phase. *)

val emit_static : t -> Mtj_core.Cost.t array -> lo:int -> hi:int -> unit
(** [emit_static t costs ~lo ~hi] charges the preinterned bundles
    [costs.(lo) .. costs.(hi - 1)] in order, exactly as the equivalent
    sequence of {!emit} calls would (same per-bundle budget check, so
    [Budget_exhausted] raises at the identical bundle).  This is the
    block API for dispatch loops and the trace executor, whose
    per-opcode costs are interned in code tables at compile time.  Raises [Invalid_argument] when [lo < 0],
    [hi > Array.length costs] or [lo > hi]. *)

val branch : t -> site:int -> taken:bool -> unit
(** A conditional branch at code site [site]. *)

val branch_indirect : t -> site:int -> target:int -> unit
(** An indirect branch (dispatch, call_assembler, virtual call). *)

val mem_access : t -> addr:int -> write:bool -> unit
(** A heap access: charges one load or store instruction and consults the
    data-cache model. *)

(* --- phases --- *)

val push_phase : t -> Mtj_core.Phase.t -> unit
val pop_phase : t -> unit
val current_phase : t -> Mtj_core.Phase.t
val in_phase : t -> Mtj_core.Phase.t -> (unit -> 'a) -> 'a
(** [in_phase t p f] runs [f] with [p] pushed, popping even on exception. *)

(* --- annotations / instrumentation --- *)

val annot : t -> Mtj_core.Annot.t -> unit
(** Emit a cross-layer annotation (zero machine cost). *)

val add_listener : t -> listener -> unit
(** Attach [l]; it is delivered before previously attached listeners.

    Contract: attachment is RARE (harness/tool setup), delivery is the
    HOT path (every annotation).  Listeners are kept in a capacity-
    doubled buffer so attaching is amortized O(1) and delivery is a tight
    array scan with no per-annotation allocation.  Listeners must not
    attach further listeners from inside a delivery. *)

(* --- observation --- *)

val total_insns : t -> int
val total_cycles : t -> float
(** [(Counters.total (counters t)).cycles], without flushing the staged
    counter state (so reading it never moves {!charge_flushes}). *)

val counters : t -> Counters.t

val charge_flushes : t -> int
(** Writebacks of the staged counter state (see {!Counters.charge_flushes}). *)

val fast_path_bundles : t -> int
(** Bundles charged through the staged fast path (see
    {!Counters.fast_path_bundles}). *)

val config : t -> Mtj_core.Config.t
