(** Trace recorder — the recording half of the meta-interpreter.

    While tracing, the interpreter's operations are both executed
    concretely and appended here as IR.  Guards snapshot resume data that
    points at the {e start of the bytecode being traced}; the handler
    discipline (guards before heap effects within one bytecode, enforced
    below) makes re-executing that bytecode after deoptimization sound.

    Tracing overhead is charged per recorded operation; the paper
    measures tracing at roughly an order of magnitude the cost of plain
    interpretation, which the constants here reproduce. *)

open Mtj_core
open Mtj_rt
module Engine = Mtj_machine.Engine

exception Abort of string
(** Tracing cannot continue (trace too long, call too deep, unsupported
    construct, language error mid-trace). *)

type tval = { v : Value.t; src : Ir.operand }

(* Guard ids only need to be unique within one VM (bridges attach to
   guards through the VM's own jitlog), but their numeric value feeds
   branch-predictor site hashes in the executor, so they must be
   reproducible run-to-run.  The counter is domain-local — no cross-
   domain races — and [Driver.create] resets it, so every VM sees the
   same id sequence no matter which domain it runs on or what ran
   before it. *)
let next_guard_id : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let fresh_guard_id () =
  let r = Domain.DLS.get next_guard_id in
  let id = !r in
  incr r;
  id

let reset_guard_ids () = Domain.DLS.get next_guard_id := 0

type t = {
  rtc : Ctx.t;
  cfg : Config.t;
  mutable ops_rev : Ir.op list;
  mutable nops : int;
  mutable next_reg : int;
  mutable cur_resume : Ir.resume;
      (* the current bytecode's snapshot; the next bytecode's snapshot
         reuses its unchanged frames (see [Driver.build_resume]) *)
  mutable effect_in_bytecode : bool;
  mutable call_depth : int;
  known_shapes : (int, Ir.tyshape) Hashtbl.t;
      (* register type shapes proven by a producing op or a prior guard;
         sound because registers are SSA and the back-edge only refreshes
         entry registers, whose guards re-execute each iteration *)
  pool : tval Apool.t;
      (* frame pool for tracked frames; shares the runtime context's
         enable flag and host-stat counters so pool-on/off and the
         exported reuse count cover both interpreters uniformly *)
}

let create rtc ~entry_slots =
  {
    rtc;
    cfg = Ctx.config rtc;
    ops_rev = [];
    nops = 0;
    next_reg = entry_slots;
    cur_resume = { Ir.frames = []; r_virtuals = [||] };
    effect_in_bytecode = false;
    call_depth = 0;
    known_shapes = Hashtbl.create 64;
    pool =
      Apool.create
        ~enabled:(Apool.enabled (Ctx.frame_pool rtc))
        ~stats:(Ctx.hstats rtc)
        { v = Value.nil; src = Ir.Const Value.nil };
  }

let rt t = t.rtc
let pool t = t.pool

(* cost of the meta-interpreter recording one operation *)
let trace_op_cost = Cost.make ~alu:14 ~load:9 ~store:8 ~other:10 ()

let opcode_is_effect (opc : Ir.opcode) =
  match opc with
  | Ir.Setfield_gc _ | Ir.Setlistitem | Ir.Setcell -> true
  | Ir.Call_n c -> c.Ir.effectful
  | Ir.Call_r c -> c.Ir.effectful
  | _ -> false

let push_op t (op : Ir.op) =
  if t.nops >= t.cfg.Config.max_trace_ops then raise (Abort "trace too long");
  t.ops_rev <- op :: t.ops_rev;
  t.nops <- t.nops + 1;
  if opcode_is_effect op.Ir.opcode then t.effect_in_bytecode <- true;
  Engine.emit (Ctx.engine t.rtc) trace_op_cost

let fresh_reg t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  r

(* record an operation with a result *)
let emit t opcode args value =
  let r = fresh_reg t in
  push_op t { Ir.opcode; args; result = r };
  (match Ir.result_shape opcode with
  | Some sh -> Hashtbl.replace t.known_shapes r sh
  | None -> ());
  { v = value; src = Ir.Reg r }

(* record an operation without a result *)
let emit_n t opcode args = push_op t { Ir.opcode; args; result = -1 }

let gkind_label (g : Ir.gkind) =
  match g with
  | Ir.G_true -> "true"
  | Ir.G_false -> "false"
  | Ir.G_value _ -> "value"
  | Ir.G_class _ -> "class"
  | Ir.G_nonnull -> "nonnull"
  | Ir.G_no_ovf_add | Ir.G_no_ovf_sub | Ir.G_no_ovf_mul -> "no_ovf"
  | Ir.G_index_lt -> "index"
  | Ir.G_global_version _ -> "global_version"

let guard t gkind args =
  match (gkind, args) with
  | Ir.G_class sh, [| Ir.Reg r |]
    when Hashtbl.find_opt t.known_shapes r = Some sh ->
      (* the register's shape is already proven: no guard is recorded, so
         the effect-ordering discipline is not implicated *)
      ()
  | _ ->
  if t.effect_in_bytecode then
    raise
      (Abort
         ("guard after side effect within a bytecode: " ^ gkind_label gkind));
  (match (gkind, args) with
  | Ir.G_class sh, [| Ir.Reg r |] -> Hashtbl.replace t.known_shapes r sh
  | _ -> ());
  let g =
    {
      Ir.guard_id = fresh_guard_id ();
      gkind;
      resume = t.cur_resume;
      fail_count = 0;
      bridge = None;
      bridgeable = true;
    }
  in
  push_op t { Ir.opcode = Ir.Guard g; args; result = -1 }

(* called by the tracing loop before each bytecode *)
let begin_bytecode t ~resume ~code ~pc =
  (* the tracing interpreter is still executing the program: the
     dispatch-loop work annotation fires here too (Sec. IV) *)
  Engine.annot (Ctx.engine t.rtc) Mtj_core.Annot.Dispatch_tick;
  t.cur_resume <- resume;
  t.effect_in_bytecode <- false;
  push_op t
    {
      Ir.opcode =
        Ir.Debug_merge_point { dmp_code = code; dmp_pc = pc; dmp_resume = resume };
      args = [||];
      result = -1;
    }

let cur_resume t = t.cur_resume
let ops t = Array.of_list (List.rev t.ops_rev)
let num_ops t = t.nops
let call_depth t = t.call_depth
let enter_call t = t.call_depth <- t.call_depth + 1
let exit_call t = t.call_depth <- max 0 (t.call_depth - 1)
