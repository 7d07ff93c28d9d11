(** The threaded-dispatch interpreter: the driver's only dispatch loop.

    The trace executor ({!Executor}) compiles each trace {e once} into
    an array of pre-bound step closures and dispatches by indexed call
    instead of decode-and-match (Izawa & Masuhara, "Threaded Code
    Generation with a Meta-Tracing JIT Compiler", 2021).  This module
    extends the same pattern down to the interpreters themselves: the
    hosted language translates its code objects into [step] arrays over
    {!Direct_ops} ([Driver.LANG.threaded_code]), and {!Driver.Make} runs
    them.

    The contract is strict: a threaded step must emit {e exactly} the
    charge sequence of one decode-and-match iteration — the
    [Dispatch_tick] annotation, the dispatch cost bundle, the indirect
    dispatch branch, then the handler's own operations, in that order.
    A test oracle (test/ref_dispatch.ml) binds {!charge} followed by the
    language's [Step(Direct_ops).step_ref] at every pc, and the
    differential suites hold simulated counters byte-identical against
    it.  Only host-side work may differ: operand decode, constant-pool
    loads, [Builtin.of_tag] and jump-target resolution all happen at
    translate time, and the hottest bytecode pairs are fused into
    superinstructions whose interior stack traffic is elided (safe
    because pushes and pops charge nothing, and fused operands stay
    GC-reachable through the locals). *)

open Mtj_core
module Engine = Mtj_machine.Engine

type ('v, 'code) step = ('v, 'code) Frame.t -> ('v, 'code) Frame.outcome
(** one pre-bound bytecode: runs the full dispatch-iteration charge
    sequence and the handler, then advances [Frame.pc] itself *)

type dispatch = {
  d_eng : Engine.t;
  d_tab : Cost.t array;
      (* the driver's preinterned dispatch-loop cost table; slot 0 is the
         per-bytecode dispatch bundle (slot 1, frame setup/teardown, is
         charged by the driver on Call/Return, never by a step) *)
  d_site : int;   (* indirect-dispatch predictor site of this code object *)
  d_indirect : bool;  (* Profile.dispatch_indirect, resolved once *)
}
(** per-code dispatch-charging context, bound into every step closure at
    translate time so the hot path re-checks nothing per bytecode *)

(* One decode-and-match iteration's prologue: annotation, dispatch
   bundle via the emit_static fast path, then the predictor's indirect
   branch to the bytecode's opcode. *)
let[@inline] charge d ~target =
  Engine.annot d.d_eng Annot.Dispatch_tick;
  Engine.emit_static d.d_eng d.d_tab ~lo:0 ~hi:1;
  if d.d_indirect then Engine.branch_indirect d.d_eng ~site:d.d_site ~target

(* The same prologue, specialized at translate time: the dispatch record
   is torn apart once per code translation, so each emitted step pays a
   single closure call with no field loads and no [d_indirect] test.
   Translators bind this as their [charge]. *)
let charger d =
  let eng = d.d_eng and tab = d.d_tab in
  if d.d_indirect then
    let site = d.d_site in
    fun ~target ->
      Engine.annot eng Annot.Dispatch_tick;
      Engine.emit_static eng tab ~lo:0 ~hi:1;
      Engine.branch_indirect eng ~site ~target
  else
    fun ~target:_ ->
      Engine.annot eng Annot.Dispatch_tick;
      Engine.emit_static eng tab ~lo:0 ~hi:1
