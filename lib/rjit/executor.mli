(** Trace executor: runs compiled trace code against the machine model.

    Executes the trace's operations on concrete values while charging
    each node's pre-lowered cost, evaluating guards, following attached
    bridges on guard failure, and switching into other compiled traces
    at [call_assembler] back-edges. On a guard failure with no bridge it
    deoptimizes: the blackhole interpreter (Phase [Blackhole], Table IV's
    worst-IPC phase) rebuilds interpreter frames from the guard's resume
    data, materializing any virtualized allocations.

    Every way out of trace code uses one frame-state format, the {e exit
    layout}: the frames' shapes are resume data ({!Ir.frame_snap}s,
    outermost first; each snap's [snap_locals]/[snap_stack] lengths give
    the frame's slot counts) and their values one flat array holding
    each frame's locals, then its stack.  A bridge's entry registers use
    the same layout, so a bridged guard fills the bridge's register file
    directly.

    {!run} executes closure-threaded code: the op array is translated
    once ({!precompile}) into pre-bound step closures, cached in the
    context's code cache keyed by trace id, and invalidated when a
    bridge attachment bumps the trace's [code_version].  The reference
    interpreting loop with identical semantics and identical
    simulated-machine charging is test code, the oracle of the
    differential tests. *)

type exit_state = {
  frames : Ir.frame_snap list;
      (** the frames' shapes, outermost first: code, pc, discard flag,
          and through the source arrays' lengths each frame's locals and
          stack counts (the sources themselves are not re-read); empty on
          [finished] *)
  values : Mtj_rt.Value.t array;
      (** the frames' slots in the exit layout: each frame's locals then
          its stack, outermost frame first *)
  failed_guard : Ir.guard option;
  failed_in : Ir.trace option;
      (** the trace the failing guard belongs to (execution may have
          switched traces since entry); the driver invalidates its
          cached threaded code when attaching a bridge to the guard *)
  request_bridge : bool;
      (** the failed guard is hot enough to deserve a bridge *)
  finished : Mtj_rt.Value.t option;
      (** a trace ended with [finish]: the traced region returned this
          value to its caller *)
}

val materialize :
  Mtj_rt.Ctx.t -> Ir.resume -> Mtj_rt.Value.t array -> Mtj_rt.Value.t array ->
  unit
(** [materialize rtc resume regs dst] writes the frame state [resume]
    describes into [dst] in the exit layout, reading registers from
    [regs] and allocating the virtual objects the resume's descriptors
    describe (shared descriptors materialize once, cycles are fine).
    The allocation order is part of the simulated behaviour: frames
    outermost first, and within a frame the stack before the locals. *)

val blackhole :
  Mtj_rt.Ctx.t ->
  Ir.resume ->
  Mtj_rt.Value.t array ->
  guard_id:int ->
  Mtj_rt.Value.t array
(** {!materialize} into a fresh array, wrapped in the blackhole phase
    with the deoptimization cost model (resume-chain walking, poor
    prediction). *)

val precompile : Mtj_rt.Ctx.t -> Jitlog.t -> Ir.trace -> unit
(** Translate [trace] into closure-threaded code and install it in the
    context's code cache (the backend calls this at compile time, so the
    first entry is already a cache hit).  Host-side work only: charges
    nothing to the simulated machine. *)

val run :
  Mtj_rt.Ctx.t ->
  Jitlog.t ->
  trace:Ir.trace ->
  entry:Mtj_rt.Value.t array ->
  exit_state
(** Execute a compiled trace from its entry, with [entry] filling the
    first [trace.entry_slots] registers. Returns how JIT code was left:
    a finished region, or frames to continue from in the interpreter
    (with [request_bridge] set when the failing guard crossed the bridge
    threshold). The register file is a GC root for the duration.  Runs
    the closure-threaded form out of the context's code cache,
    re-translating when the trace's [code_version] moved. *)
