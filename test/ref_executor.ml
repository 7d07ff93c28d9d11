(** The reference trace executor, kept as a test oracle.

    Production runs closure-threaded trace code ({!Mtj_rjit.Executor.run}).
    This loop interprets the IR directly, re-matching [op.opcode] and
    re-decoding operands on every iteration, with identical semantics
    and identical charges to the simulated machine; test_threaded_diff
    holds the two to byte-identical exits, register files and counters.
    Its bridge entry materializes resume data into per-frame arrays and
    flattens them, independently of the production exit layout's direct
    fill.  Deoptimization goes through the production
    {!Mtj_rjit.Executor.blackhole}. *)

open Mtj_core
open Mtj_rt
open Mtj_rjit
module Engine = Mtj_machine.Engine

let as_obj = Semantics.as_obj
let as_int = Eval_op.as_int

(* --- bridge entry: resume data flattened into entry registers --- *)

(* frames outermost first, within a frame the stack before the locals;
   slots land locals then stack *)
let flat_frames rtc (resume : Ir.resume) (regs : Value.t array) =
  let gc = Ctx.gc rtc in
  let memo = Array.make (Array.length resume.Ir.r_virtuals) None in
  let rec value_of (s : Ir.source) : Value.t =
    match s with
    | Ir.S_reg r -> regs.(r)
    | Ir.S_const v -> v
    | Ir.S_virtual k -> (
        match memo.(k) with
        | Some v -> v
        | None -> build k)
  and build k =
    match resume.Ir.r_virtuals.(k) with
    | Ir.V_instance { v_cls; v_fields } ->
        let inst =
          {
            Value.cls = v_cls;
            fields = Array.make (Array.length v_fields) Value.nil;
          }
        in
        let o = Gc_sim.obj gc (Value.Instance inst) in
        memo.(k) <- Some o;
        Array.iteri (fun i s -> inst.Value.fields.(i) <- value_of s) v_fields;
        o
    | Ir.V_tuple srcs ->
        let v = Gc_sim.obj gc (Value.Tuple (Array.map value_of srcs)) in
        memo.(k) <- Some v;
        v
    | Ir.V_list srcs ->
        let lst = Rlist.create rtc [] in
        let v = Value.of_obj lst in
        memo.(k) <- Some v;
        Array.iter (fun s -> Rlist.append rtc lst (value_of s)) srcs;
        v
    | Ir.V_cell s ->
        let payload = Value.Cell { cell = Value.nil } in
        let v = Gc_sim.obj gc payload in
        memo.(k) <- Some v;
        (match payload with
        | Value.Cell c -> c.cell <- value_of s
        | _ -> assert false);
        v
  in
  List.concat_map
    (fun (f : Ir.frame_snap) ->
      let stack = Array.map value_of f.Ir.snap_stack in
      let locals = Array.map value_of f.Ir.snap_locals in
      Array.to_list locals @ Array.to_list stack)
    resume.Ir.frames
  |> Array.of_list

(* --- guard evaluation --- *)

let guard_holds (g : Ir.guard) (vals : Value.t array) =
  match g.Ir.gkind with
  | Ir.G_true -> Value.truthy vals.(0)
  | Ir.G_false -> not (Value.truthy vals.(0))
  | Ir.G_value v -> Value.py_eq vals.(0) v
  | Ir.G_class sh -> Trace_ops.tyshape_of vals.(0) = sh
  | Ir.G_nonnull -> not (Value.is_nil vals.(0))
  | Ir.G_no_ovf_add -> (
      match Eval_op.checked_add (as_int vals.(0)) (as_int vals.(1)) with
      | (_ : int) -> true
      | exception Eval_op.Overflow -> false)
  | Ir.G_no_ovf_sub -> (
      match Eval_op.checked_sub (as_int vals.(0)) (as_int vals.(1)) with
      | (_ : int) -> true
      | exception Eval_op.Overflow -> false)
  | Ir.G_no_ovf_mul -> (
      match Eval_op.checked_mul (as_int vals.(0)) (as_int vals.(1)) with
      | (_ : int) -> true
      | exception Eval_op.Overflow -> false)
  | Ir.G_index_lt ->
      let i = as_int vals.(0) and n = as_int vals.(1) in
      i >= 0 && i < n
  | Ir.G_global_version (cell, ver) -> !cell = ver

(* --- heap operations on concrete values --- *)

let getfield rtc o idx =
  let obj = as_obj o in
  Engine.mem_access (Ctx.engine rtc) ~addr:(Gc_sim.addr obj ~field:idx)
    ~write:false;
  match obj.Value.payload with
  | Value.Instance i -> Semantics.field_get i idx
  | Value.Func f ->
      if idx < Array.length f.Value.captured then f.Value.captured.(idx)
      else Value.nil
  | _ -> Semantics.err "getfield on %s" (Value.type_name o)

let setfield rtc o idx v =
  let obj = as_obj o in
  Engine.mem_access (Ctx.engine rtc) ~addr:(Gc_sim.addr obj ~field:idx)
    ~write:true;
  match obj.Value.payload with
  | Value.Instance i -> Semantics.field_set rtc obj i idx v
  | _ -> Semantics.err "setfield on %s" (Value.type_name o)

let entry_cost = Cost.make ~alu:6 ~load:8 ~store:8 ~other:9 ()

(* --- the reference loop --- *)

let run rtc (jitlog : Jitlog.t) ~(trace : Ir.trace) ~(entry : Value.t array) :
    Executor.exit_state =
  let eng = Ctx.engine rtc in
  let cfg = Ctx.config rtc in
  let gc = Ctx.gc rtc in
  (* current register file, tracked for GC root scanning *)
  let cur_regs = ref (Array.make trace.Ir.nregs Value.nil) in
  Array.blit entry 0 !cur_regs 0 (Array.length entry);
  let scanner_id =
    Gc_sim.add_root_scanner gc (fun visit -> Array.iter visit !cur_regs)
  in
  Fun.protect ~finally:(fun () -> Gc_sim.remove_root_scanner gc scanner_id)
  @@ fun () ->
  let cur_trace = ref trace in
  let last_resume = ref None in
  Engine.annot eng (Annot.Trace_enter trace.Ir.trace_id);
  Jitlog.record_first_entry jitlog ~insns:(Engine.total_insns eng);
  Engine.emit eng entry_cost;
  trace.Ir.exec_count <- trace.Ir.exec_count + 1;
  let exit_state = ref None in
  let ip = ref 0 in
  let switch_trace (target : Ir.trace) (values : Value.t array) =
    Engine.annot eng (Annot.Trace_exit !cur_trace.Ir.trace_id);
    Engine.annot eng (Annot.Trace_enter target.Ir.trace_id);
    let regs = Array.make target.Ir.nregs Value.nil in
    Array.blit values 0 regs 0 (Array.length values);
    cur_regs := regs;
    cur_trace := target;
    target.Ir.exec_count <- target.Ir.exec_count + 1;
    ip := 0
  in
  let deopt resume ~guard =
    let guard_id = match guard with Some g -> g.Ir.guard_id | None -> -1 in
    Engine.annot eng (Annot.Guard_fail guard_id);
    Jitlog.record_deopt jitlog;
    (!cur_trace).Ir.deopts <- (!cur_trace).Ir.deopts + 1;
    let values = Executor.blackhole rtc resume !cur_regs ~guard_id in
    let request_bridge =
      match guard with
      | Some g ->
          g.Ir.fail_count >= cfg.Config.bridge_threshold
          && g.Ir.bridgeable && g.Ir.bridge = None
      | None -> false
    in
    exit_state :=
      Some
        {
          Executor.frames = resume.Ir.frames;
          values;
          failed_guard = guard;
          failed_in = Some !cur_trace;
          request_bridge;
          finished = None;
        }
  in
  while !exit_state = None do
    let t = !cur_trace in
    let regs = !cur_regs in
    let op = t.Ir.ops.(!ip) in
    t.Ir.op_exec.(!ip) <- t.Ir.op_exec.(!ip) + 1;
    (* per-opcode costs are interned in the trace's code table at
       compile time; charge through the block API *)
    Engine.emit_static eng t.Ir.op_costs ~lo:!ip ~hi:(!ip + 1);
    let arg i =
      match op.Ir.args.(i) with
      | Ir.Const v -> v
      | Ir.Reg r -> regs.(r)
    in
    let argvals () = Array.map (function
        | Ir.Const v -> v
        | Ir.Reg r -> regs.(r)) op.Ir.args
    in
    let set_result v = if op.Ir.result >= 0 then regs.(op.Ir.result) <- v in
    match op.Ir.opcode with
    | Ir.Debug_merge_point d ->
        last_resume := Some d.dmp_resume;
        Engine.annot eng Annot.Dispatch_tick;
        incr ip
    | Ir.Label -> incr ip
    | Ir.Guard g -> (
        let vals = argvals () in
        match guard_holds g vals with
        | true ->
            Engine.branch eng ~site:(400_000 + (g.Ir.guard_id land 4095)) ~taken:true;
            incr ip
        | false -> (
            Engine.branch eng ~site:(400_000 + (g.Ir.guard_id land 4095)) ~taken:false;
            g.Ir.fail_count <- g.Ir.fail_count + 1;
            match g.Ir.bridge with
            | Some bridge ->
                (* patched side-exit: jump straight into the bridge with
                   the (materialized) frame state flattened into its
                   entry registers *)
                switch_trace bridge (flat_frames rtc g.Ir.resume regs)
            | None -> deopt g.Ir.resume ~guard:(Some g))
        | exception (Ops_intf.Lang_error _ | Rarith.Type_error _ | Division_by_zero) ->
            deopt g.Ir.resume ~guard:(Some g))
    | Ir.Finish ->
        Engine.branch eng ~site:(430_000 + (t.Ir.trace_id land 1023)) ~taken:true;
        exit_state :=
          Some
            {
              Executor.frames = [];
              values = [||];
              failed_guard = None;
              failed_in = None;
              request_bridge = false;
              finished = Some (arg 0);
            }
    | Ir.Jump -> (
        let vals = argvals () in
        (* adaptive tiers: a baseline loop that has reached its
           promotion point leaves JIT code at its own back-edge — the
           frame state there is exactly the loop-header state — so the
           driver's portal can take a tier-up decision and re-enter *)
        match t.Ir.kind with
        | Ir.Loop { loop_code; loop_pc }
          when t.Ir.tier = 1 && t.Ir.exec_count >= t.Ir.promote_at ->
            exit_state :=
              Some
                {
                  Executor.frames =
                    [
                      {
                        Ir.snap_code = loop_code;
                        snap_pc = loop_pc;
                        snap_locals = Array.map Ir.source_of_operand op.Ir.args;
                        snap_stack = [||];
                        snap_discard = false;
                      };
                    ];
                  values = vals;
                  failed_guard = None;
                  failed_in = None;
                  request_bridge = false;
                  finished = None;
                }
        | _ ->
            Array.blit vals 0 regs t.Ir.loop_base (Array.length vals);
            Engine.branch eng ~site:(410_000 + (t.Ir.trace_id land 1023))
              ~taken:true;
            t.Ir.exec_count <- t.Ir.exec_count + 1;
            ip := t.Ir.loop_start)
    | Ir.Call_assembler target_id -> (
        match Jitlog.find jitlog target_id with
        | Some target ->
            Engine.branch_indirect eng ~site:(420_000 + (t.Ir.trace_id land 1023))
              ~target:target_id;
            switch_trace target (argvals ())
        | None -> (
            match !last_resume with
            | Some r -> deopt r ~guard:None
            | None -> Semantics.err "call_assembler to unknown trace"))
    | _ -> (
        (* ordinary operations; language errors deoptimize to the current
           bytecode boundary *)
        match
          (match op.Ir.opcode with
          | Ir.Getfield_gc idx -> set_result (getfield rtc (arg 0) idx)
          | Ir.Setfield_gc idx -> setfield rtc (arg 0) idx (arg 1)
          | Ir.Getcell ->
              let v = arg 0 in
              if Value.is_obj v then (
                match (Value.to_obj_unchecked v).Value.payload with
                | Value.Cell c -> set_result c.cell
                | _ -> Semantics.err "getcell on %s" (Value.type_name v))
              else Semantics.err "getcell on %s" (Value.type_name v)
          | Ir.Setcell ->
              let v = arg 0 in
              if Value.is_obj v then (
                let o = Value.to_obj_unchecked v in
                match o.Value.payload with
                | Value.Cell c ->
                    c.cell <- arg 1;
                    Gc_sim.write_barrier gc ~parent:o ~child:(arg 1)
                | _ -> Semantics.err "setcell on %s" (Value.type_name v))
              else Semantics.err "setcell on %s" (Value.type_name v)
          | Ir.Getlistitem ->
              let o = Semantics.as_list (arg 0) in
              let i = as_int (arg 1) in
              let l = Rlist.of_obj o in
              if i < 0 || i >= Rlist.length l then
                Semantics.err "list index out of range";
              Engine.mem_access eng ~addr:(Gc_sim.addr o ~field:(i land 15))
                ~write:false;
              set_result (Value.list_get_unsafe l i)
          | Ir.Setlistitem ->
              let o = Semantics.as_list (arg 0) in
              let i = as_int (arg 1) in
              let l = Rlist.of_obj o in
              if i < 0 || i >= Rlist.length l then
                Semantics.err "list assignment index out of range";
              Rlist.set rtc o i (arg 2)
          | Ir.Getarrayitem_gc ->
              let v = arg 0 in
              if Value.is_obj v then (
                let o = Value.to_obj_unchecked v in
                match o.Value.payload with
                | Value.Tuple a ->
                    let i = as_int (arg 1) in
                    if i < 0 || i >= Array.length a then
                      Semantics.err "tuple index out of range";
                    Engine.mem_access eng
                      ~addr:(Gc_sim.addr o ~field:(i land 15))
                      ~write:false;
                    set_result a.(i)
                | _ -> Semantics.err "getarrayitem on %s" (Value.type_name v))
              else Semantics.err "getarrayitem on %s" (Value.type_name v)
          | Ir.Arraylen ->
              set_result (Value.of_int (Semantics.len_of rtc (arg 0)))
          | Ir.New_with_vtable cls_obj -> (
              match cls_obj.Value.payload with
              | Value.Class c ->
                  set_result
                    (Gc_sim.obj gc
                       (Value.Instance
                          {
                            cls = cls_obj;
                            fields =
                              Array.make
                                (Array.length c.Value.layout)
                                Value.nil;
                          }))
              | _ -> Semantics.err "new_with_vtable: not a class")
          | Ir.New_array _ ->
              set_result (Gc_sim.obj gc (Value.Tuple (argvals ())))
          | Ir.New_list _ ->
              set_result
                (Value.of_obj (Rlist.create rtc (Array.to_list (argvals ()))))
          | Ir.New_cell ->
              set_result (Gc_sim.obj gc (Value.Cell { cell = arg 0 }))
          | Ir.Call_r rc ->
              let vals = argvals () in
              set_result (Aot.call rtc rc.Ir.aot (fun () -> rc.Ir.run rtc vals))
          | Ir.Call_n rc ->
              let vals = argvals () in
              ignore (Aot.call rtc rc.Ir.aot (fun () -> rc.Ir.run rtc vals))
          | opc ->
              (* pure ops *)
              set_result (Eval_op.eval opc (argvals ())))
        with
        | () -> incr ip
        | exception
            ((Ops_intf.Lang_error _ | Rarith.Type_error _ | Division_by_zero)
             as e) -> (
            match !last_resume with
            | Some r -> deopt r ~guard:None
            | None -> raise e))
  done;
  Engine.annot eng (Annot.Trace_exit !cur_trace.Ir.trace_id);
  Option.get !exit_state
