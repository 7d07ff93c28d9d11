(** The pylite bytecode interpreter, written once against the OPS seam.

    Instantiated with {!Mtj_rjit.Direct_ops} this is "the interpreter";
    instantiated with {!Mtj_rjit.Trace_ops} it is the meta-interpreter
    recording traces.  Handler discipline: within one bytecode all
    guard-recording / error-raising operations run before the first heap
    side effect, and [pc] is committed last. *)

open Mtj_rt

(* pylite's code table: [open Mtj_rjit] below shadows the name with the
   framework's [Code_table] functor module *)
module Codes = Code_table

open Mtj_rjit
open Bytecode

module Step (O : Ops_intf.OPS) = struct
  type frame = (O.t, Bytecode.code) Frame.t

  let err = Semantics.err

  let make_frame cx code parent : frame =
    Frame.create_pooled
      ~pool:(O.frame_pool cx)
      ~code ~code_ref:code.Bytecode.id ~nlocals:code.Bytecode.nlocals
      ~stack_size:code.Bytecode.stacksize ~parent

  (* pop [n] operands into a fresh positional-order array (top of stack
     is the last argument) *)
  let pop_args cx (f : frame) n : O.t array =
    if n = 0 then [||]
    else begin
      let args = Array.make n (O.const cx Value.nil) in
      for i = n - 1 downto 0 do
        args.(i) <- Frame.pop f
      done;
      args
    end

  (* [first :: args] as a single fresh array (one allocation, unlike
     [Array.append [| first |] args]) — the receiver-prepend of every
     method call *)
  let prepend (first : O.t) (args : O.t array) : O.t array =
    let n = Array.length args in
    let out = Array.make (n + 1) first in
    Array.blit args 0 out 1 n;
    out

  (* dispatch a call to any callable value; [args] is in positional
     order (collected off the stack by [pop_args], no list building) *)
  let rec call_value cx (f : frame) callee (args : O.t array) :
      (O.t, Bytecode.code) Frame.outcome =
    let nargs = Array.length args in
    let cv = O.concrete callee in
    if not (Value.is_obj cv) then
      err "%s object is not callable" (Value.type_name cv)
    else
    match (Value.to_obj_unchecked cv).Value.payload with
    | Value.Func fn ->
        if fn.Value.code_ref < 0 then begin
          let fn = O.guard_func cx callee in
          let b = Builtin.of_tag (-fn.Value.code_ref - 1) in
          let r = O.call_builtin cx b args in
          Frame.push f r;
          f.Frame.pc <- f.Frame.pc + 1;
          Frame.Continue
        end
        else begin
          let fn = O.guard_func cx callee in
          if fn.Value.arity <> nargs then
            err "%s() takes %d arguments (%d given)" fn.Value.func_name
              fn.Value.arity nargs;
          let code = Codes.lookup fn.Value.code_ref in
          f.Frame.pc <- f.Frame.pc + 1;
          let nf = make_frame cx code (Some f) in
          Array.blit args 0 nf.Frame.locals 0 nargs;
          Frame.Call nf
        end
    | Value.Class _ ->
        let inst = O.alloc_instance cx callee in
        (match O.class_init_func cx callee with
        | Some initf ->
            if initf.Value.arity <> nargs + 1 then
              err "__init__ takes %d arguments (%d given)" initf.Value.arity
                (nargs + 1);
            let code = Codes.lookup initf.Value.code_ref in
            Frame.push f inst;
            f.Frame.pc <- f.Frame.pc + 1;
            let nf = make_frame cx code (Some f) in
            nf.Frame.discard_return <- true;
            nf.Frame.locals.(0) <- inst;
            Array.blit args 0 nf.Frame.locals 1 nargs;
            Frame.Call nf
        | None ->
            if nargs <> 0 then err "this class takes no constructor arguments";
            Frame.push f inst;
            f.Frame.pc <- f.Frame.pc + 1;
            Frame.Continue)
    | Value.Method _ -> (
        match O.method_parts cx callee with
        | Some (func, recv) -> call_value cx f func (prepend recv args)
        | None -> err "broken bound method")
    | _ -> err "%s object is not callable" (Value.type_name cv)

  let binary cx op a b =
    match (op : Ast.binop) with
    | Ast.Add -> O.add cx a b
    | Ast.Sub -> O.sub cx a b
    | Ast.Mult -> O.mul cx a b
    | Ast.Div -> O.truediv cx a b
    | Ast.Floordiv -> O.floordiv cx a b
    | Ast.Mod -> O.modulo cx a b
    | Ast.Pow -> O.pow cx a b
    | Ast.Lshift -> O.lshift cx a b
    | Ast.Rshift -> O.rshift cx a b
    | Ast.Bitand -> O.bitand cx a b
    | Ast.Bitor -> O.bitor cx a b
    | Ast.Bitxor -> O.bitxor cx a b

  let step cx (globals : Globals.t) (f : frame) :
      (O.t, Bytecode.code) Frame.outcome =
    let pc = f.Frame.pc in
    let instr = f.Frame.code.Bytecode.instrs.(pc) in
    let continue_at next =
      f.Frame.pc <- next;
      Frame.Continue
    in
    let next () = continue_at (pc + 1) in
    match instr with
    | NOP -> next ()
    | LOAD_CONST v ->
        Frame.push f (O.const cx v);
        next ()
    | LOAD_FAST slot ->
        Frame.push f f.Frame.locals.(slot);
        next ()
    | STORE_FAST slot ->
        f.Frame.locals.(slot) <- Frame.pop f;
        next ()
    | LOAD_GLOBAL name ->
        Frame.push f (O.load_global cx globals name);
        next ()
    | STORE_GLOBAL name ->
        O.store_global cx globals name (Frame.pop f);
        next ()
    | LOAD_ATTR name ->
        let obj = Frame.pop f in
        Frame.push f (O.getattr cx obj name);
        next ()
    | STORE_ATTR name ->
        let v = Frame.pop f in
        let obj = Frame.pop f in
        O.setattr cx obj name v;
        next ()
    | LOAD_METHOD name ->
        let obj = Frame.pop f in
        let callable, self = O.load_method cx obj name in
        Frame.push f callable;
        Frame.push f self;
        next ()
    | CALL_METHOD nargs ->
        let args = pop_args cx f nargs in
        let self = Frame.pop f in
        let callable = Frame.pop f in
        if Value.is_nil (O.concrete self) then call_value cx f callable args
        else call_value cx f callable (prepend self args)
    | CALL_FUNCTION nargs ->
        let args = pop_args cx f nargs in
        let callee = Frame.pop f in
        call_value cx f callee args
    | BINARY op ->
        let b = Frame.pop f in
        let a = Frame.pop f in
        Frame.push f (binary cx op a b);
        next ()
    | UNARY_NEG ->
        let a = Frame.pop f in
        Frame.push f (O.neg cx a);
        next ()
    | UNARY_NOT ->
        let a = Frame.pop f in
        Frame.push f (O.not_ cx a);
        next ()
    | COMPARE op ->
        let b = Frame.pop f in
        let a = Frame.pop f in
        Frame.push f (O.compare cx op a b);
        next ()
    | JUMP t -> continue_at t
    | POP_JUMP_IF_FALSE t ->
        let v = Frame.pop f in
        if O.is_true cx v then next () else continue_at t
    | POP_JUMP_IF_TRUE t ->
        let v = Frame.pop f in
        if O.is_true cx v then continue_at t else next ()
    | JUMP_IF_FALSE_OR_POP t ->
        let v = Frame.peek f 0 in
        if O.is_true cx v then begin
          ignore (Frame.pop f);
          next ()
        end
        else continue_at t
    | JUMP_IF_TRUE_OR_POP t ->
        let v = Frame.peek f 0 in
        if O.is_true cx v then continue_at t
        else begin
          ignore (Frame.pop f);
          next ()
        end
    | BUILD_LIST n ->
        let items = Array.make n (O.const cx Value.nil) in
        for i = n - 1 downto 0 do
          items.(i) <- Frame.pop f
        done;
        Frame.push f (O.make_list cx items);
        next ()
    | BUILD_TUPLE n ->
        let items = Array.make n (O.const cx Value.nil) in
        for i = n - 1 downto 0 do
          items.(i) <- Frame.pop f
        done;
        Frame.push f (O.make_tuple cx items);
        next ()
    | BUILD_DICT n ->
        let pairs = Array.make n (O.const cx Value.nil, O.const cx Value.nil) in
        for i = n - 1 downto 0 do
          let v = Frame.pop f in
          let k = Frame.pop f in
          pairs.(i) <- (k, v)
        done;
        Frame.push f (O.make_dict cx pairs);
        next ()
    | BUILD_SET n ->
        let items = Array.make n (O.const cx Value.nil) in
        for i = n - 1 downto 0 do
          items.(i) <- Frame.pop f
        done;
        Frame.push f (O.make_set cx items);
        next ()
    | BINARY_SUBSCR ->
        let k = Frame.pop f in
        let obj = Frame.pop f in
        Frame.push f (O.getitem cx obj k);
        next ()
    | STORE_SUBSCR ->
        let v = Frame.pop f in
        let k = Frame.pop f in
        let obj = Frame.pop f in
        O.setitem cx obj k v;
        next ()
    | DELETE_SUBSCR ->
        let k = Frame.pop f in
        let obj = Frame.pop f in
        ignore (O.call_builtin cx Builtin.Del_item [| obj; k |]);
        next ()
    | GET_SLICE ->
        let hi = Frame.pop f in
        let lo = Frame.pop f in
        let obj = Frame.pop f in
        Frame.push f (O.call_builtin cx Builtin.Slice_get [| obj; lo; hi |]);
        next ()
    | SET_SLICE ->
        let v = Frame.pop f in
        let hi = Frame.pop f in
        let lo = Frame.pop f in
        let obj = Frame.pop f in
        ignore (O.call_builtin cx Builtin.Slice_set [| obj; lo; hi; v |]);
        next ()
    | RETURN_VALUE -> Frame.Return (Frame.pop f)
    | RETURN_NONE -> Frame.Return (O.const cx Value.nil)
    | POP_TOP ->
        ignore (Frame.pop f);
        next ()
    | DUP_TOP ->
        Frame.push f (Frame.peek f 0);
        next ()
    | UNPACK_SEQUENCE n ->
        let seq = Frame.pop f in
        let items = O.unpack cx seq n in
        for i = n - 1 downto 0 do
          Frame.push f items.(i)
        done;
        next ()
    | GET_INDEXABLE ->
        let v = Frame.pop f in
        Frame.push f (O.call_builtin cx Builtin.Indexable [| v |]);
        next ()
    | FOR_RANGE { var; cur; stop; step; exit } ->
        let c = f.Frame.locals.(cur) in
        let s = f.Frame.locals.(stop) in
        let st = f.Frame.locals.(step) in
        let stepi = O.guard_int cx st in
        let cond =
          if stepi > 0 then O.compare cx Ops_intf.Lt c s
          else O.compare cx Ops_intf.Gt c s
        in
        if O.is_true cx cond then begin
          f.Frame.locals.(var) <- c;
          f.Frame.locals.(cur) <- O.add cx c st;
          next ()
        end
        else continue_at exit
    | FOR_ITER { var; seq; idx; exit } ->
        let s = f.Frame.locals.(seq) in
        let i = f.Frame.locals.(idx) in
        let n = O.len_ cx s in
        let cond = O.compare cx Ops_intf.Lt i n in
        if O.is_true cx cond then begin
          let v = O.getitem cx s i in
          f.Frame.locals.(var) <- v;
          f.Frame.locals.(idx) <- O.add cx i (O.const cx (Value.of_int 1));
          next ()
        end
        else continue_at exit
    | MAKE_FUNCTION { code_ref; fname; arity } ->
        (* function objects are created during (cold) module setup *)
        let fv =
          Gc_sim.obj
            (Ctx.gc (O.rt cx))
            (Value.Func
               {
                 func_id = code_ref;
                 func_name = fname;
                 arity;
                 code_ref;
                 captured = [||];
               })
        in
        Frame.push f (O.const cx fv);
        next ()
    | MAKE_CLASS { cls_name; parent; methods } ->
        let parent_obj =
          match parent with
          | None -> None
          | Some pname -> (
              let pv = O.concrete (O.load_global cx globals pname) in
              if Value.is_obj pv then
                let p = Value.to_obj_unchecked pv in
                match p.Value.payload with
                | Value.Class _ -> Some p
                | _ -> err "class parent %s is %s" pname (Value.type_name pv)
              else err "class parent %s is %s" pname (Value.type_name pv))
        in
        let n = List.length methods in
        let method_values = pop_args cx f n in
        let attrs =
          List.mapi
            (fun i name -> (name, O.concrete method_values.(i)))
            methods
        in
        (* instances of a subclass share the parent's layout prefix *)
        let layout =
          match parent_obj with
          | Some { Value.payload = Value.Class pc; _ } ->
              Array.copy pc.Value.layout
          | _ -> [||]
        in
        let next_cls_id = Codes.fresh_id () in
        let cls =
          Gc_sim.obj
            (Ctx.gc (O.rt cx))
            (Value.Class
               {
                 Value.cls_id = next_cls_id;
                 cls_name;
                 layout;
                 attrs;
                 parent = parent_obj;
               })
        in
        Frame.push f (O.const cx cls);
        next ()

  (* the decode-and-match handler, under the name [Driver.LANG] knows it
     by *)
  let step_ref = step
end

(* ------------------------------------------------------------------ *)
(* Threaded dispatch (the pylite half of {!Mtj_rjit.Threaded}).

   Each code object is translated once into an array of pre-bound step
   closures over [Direct_ops]: operands are decoded at translate time
   (local slots, constant-pool values via [O.const], jump targets, the
   pre-selected binop function), and the hottest shapes are fused into
   superinstructions.  Every step emits exactly the charge sequence of
   one reference dispatch iteration — [Threaded.charge] first, then the
   handler's operations in reference order — so simulated counters are
   byte-identical to [Step(Direct_ops).step_ref] (held against the
   test/ref_dispatch.ml oracle by test/test_dispatch_diff.ml).  Cold bytecodes delegate to the
   reference handler so the tricky semantics (calls, classes, builders)
   exist exactly once. *)

module D_ref = Step (Direct_ops)

type dstep = (Direct_ops.t, Bytecode.code) Threaded.step

(* the [binary] dispatch of the reference handler, resolved at translate
   time instead of per execution *)
let binary_fn :
    Ast.binop -> Direct_ops.cx -> Direct_ops.t -> Direct_ops.t -> Direct_ops.t
    = function
  | Ast.Add -> Direct_ops.add
  | Ast.Sub -> Direct_ops.sub
  | Ast.Mult -> Direct_ops.mul
  | Ast.Div -> Direct_ops.truediv
  | Ast.Floordiv -> Direct_ops.floordiv
  | Ast.Mod -> Direct_ops.modulo
  | Ast.Pow -> Direct_ops.pow
  | Ast.Lshift -> Direct_ops.lshift
  | Ast.Rshift -> Direct_ops.rshift
  | Ast.Bitand -> Direct_ops.bitand
  | Ast.Bitor -> Direct_ops.bitor
  | Ast.Bitxor -> Direct_ops.bitxor

let threaded_code (cx : Direct_ops.cx) (globals : Globals.t)
    (d : Threaded.dispatch) (code : Bytecode.code) : dstep array =
  let instrs = code.Bytecode.instrs in
  let hdrs = code.Bytecode.headers in
  let n = Array.length instrs in
  let charge = Threaded.charger d in
  (* a stale code table must fail at translation, not mid-run: resolve
     every code_ref a step could bind right now *)
  Array.iter
    (function
      | MAKE_FUNCTION { code_ref; _ } -> ignore (Codes.lookup code_ref)
      | _ -> ())
    instrs;
  (* the pre-bound standalone step of one bytecode *)
  let step_of pc instr : dstep =
    let target = Bytecode.tag instr in
    let next = pc + 1 in
    match instr with
    | NOP ->
        fun f ->
          charge ~target;
          f.Frame.pc <- next;
          Frame.Continue
    | LOAD_CONST v ->
        let c = Direct_ops.const cx v in
        fun f ->
          charge ~target;
          Frame.push f c;
          f.Frame.pc <- next;
          Frame.Continue
    | LOAD_FAST slot ->
        fun f ->
          charge ~target;
          Frame.push f f.Frame.locals.(slot);
          f.Frame.pc <- next;
          Frame.Continue
    | STORE_FAST slot ->
        fun f ->
          charge ~target;
          f.Frame.locals.(slot) <- Frame.pop f;
          f.Frame.pc <- next;
          Frame.Continue
    | LOAD_GLOBAL name ->
        fun f ->
          charge ~target;
          Frame.push f (Direct_ops.load_global cx globals name);
          f.Frame.pc <- next;
          Frame.Continue
    | STORE_GLOBAL name ->
        fun f ->
          charge ~target;
          Direct_ops.store_global cx globals name (Frame.pop f);
          f.Frame.pc <- next;
          Frame.Continue
    | LOAD_ATTR name ->
        fun f ->
          charge ~target;
          let obj = Frame.pop f in
          Frame.push f (Direct_ops.getattr cx obj name);
          f.Frame.pc <- next;
          Frame.Continue
    | STORE_ATTR name ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          let obj = Frame.pop f in
          Direct_ops.setattr cx obj name v;
          f.Frame.pc <- next;
          Frame.Continue
    | LOAD_METHOD name ->
        fun f ->
          charge ~target;
          let obj = Frame.pop f in
          let callable, self = Direct_ops.load_method cx obj name in
          Frame.push f callable;
          Frame.push f self;
          f.Frame.pc <- next;
          Frame.Continue
    | CALL_METHOD nargs ->
        fun f ->
          charge ~target;
          let args = D_ref.pop_args cx f nargs in
          let self = Frame.pop f in
          let callable = Frame.pop f in
          if Value.is_nil (Direct_ops.concrete self) then
            D_ref.call_value cx f callable args
          else D_ref.call_value cx f callable (D_ref.prepend self args)
    | CALL_FUNCTION nargs ->
        fun f ->
          charge ~target;
          let args = D_ref.pop_args cx f nargs in
          let callee = Frame.pop f in
          D_ref.call_value cx f callee args
    | BINARY op ->
        let fn = binary_fn op in
        fun f ->
          charge ~target;
          let b = Frame.pop f in
          let a = Frame.pop f in
          Frame.push f (fn cx a b);
          f.Frame.pc <- next;
          Frame.Continue
    | UNARY_NEG ->
        fun f ->
          charge ~target;
          let a = Frame.pop f in
          Frame.push f (Direct_ops.neg cx a);
          f.Frame.pc <- next;
          Frame.Continue
    | UNARY_NOT ->
        fun f ->
          charge ~target;
          let a = Frame.pop f in
          Frame.push f (Direct_ops.not_ cx a);
          f.Frame.pc <- next;
          Frame.Continue
    | COMPARE op ->
        fun f ->
          charge ~target;
          let b = Frame.pop f in
          let a = Frame.pop f in
          Frame.push f (Direct_ops.compare cx op a b);
          f.Frame.pc <- next;
          Frame.Continue
    | JUMP t ->
        fun f ->
          charge ~target;
          f.Frame.pc <- t;
          Frame.Continue
    | POP_JUMP_IF_FALSE t ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          f.Frame.pc <- (if Direct_ops.is_true cx v then next else t);
          Frame.Continue
    | POP_JUMP_IF_TRUE t ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          f.Frame.pc <- (if Direct_ops.is_true cx v then t else next);
          Frame.Continue
    | JUMP_IF_FALSE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if Direct_ops.is_true cx v then begin
            ignore (Frame.pop f);
            f.Frame.pc <- next
          end
          else f.Frame.pc <- t;
          Frame.Continue
    | JUMP_IF_TRUE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if Direct_ops.is_true cx v then f.Frame.pc <- t
          else begin
            ignore (Frame.pop f);
            f.Frame.pc <- next
          end;
          Frame.Continue
    | BINARY_SUBSCR ->
        fun f ->
          charge ~target;
          let k = Frame.pop f in
          let obj = Frame.pop f in
          Frame.push f (Direct_ops.getitem cx obj k);
          f.Frame.pc <- next;
          Frame.Continue
    | STORE_SUBSCR ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          let k = Frame.pop f in
          let obj = Frame.pop f in
          Direct_ops.setitem cx obj k v;
          f.Frame.pc <- next;
          Frame.Continue
    | RETURN_VALUE ->
        fun f ->
          charge ~target;
          Frame.Return (Frame.pop f)
    | RETURN_NONE ->
        let nil = Direct_ops.const cx Value.nil in
        fun _f ->
          charge ~target;
          Frame.Return nil
    | POP_TOP ->
        fun f ->
          charge ~target;
          ignore (Frame.pop f);
          f.Frame.pc <- next;
          Frame.Continue
    | DUP_TOP ->
        fun f ->
          charge ~target;
          Frame.push f (Frame.peek f 0);
          f.Frame.pc <- next;
          Frame.Continue
    | FOR_RANGE { var; cur; stop; step; exit } ->
        (* step variants: the two loop bodies (counting up / counting
           down) are pre-bound; the runtime sign guard picks one, as the
           reference handler's inline conditional does *)
        let iter cmp_op (f : (Direct_ops.t, Bytecode.code) Frame.t) c s st =
          let cond = Direct_ops.compare cx cmp_op c s in
          if Direct_ops.is_true cx cond then begin
            f.Frame.locals.(var) <- c;
            f.Frame.locals.(cur) <- Direct_ops.add cx c st;
            f.Frame.pc <- next
          end
          else f.Frame.pc <- exit
        in
        let up = iter Ops_intf.Lt and down = iter Ops_intf.Gt in
        fun f ->
          charge ~target;
          let c = f.Frame.locals.(cur) in
          let s = f.Frame.locals.(stop) in
          let st = f.Frame.locals.(step) in
          let stepi = Direct_ops.guard_int cx st in
          (if stepi > 0 then up else down) f c s st;
          Frame.Continue
    | FOR_ITER { var; seq; idx; exit } ->
        let one = Direct_ops.const cx (Value.of_int 1) in
        fun f ->
          charge ~target;
          let s = f.Frame.locals.(seq) in
          let i = f.Frame.locals.(idx) in
          let len = Direct_ops.len_ cx s in
          let cond = Direct_ops.compare cx Ops_intf.Lt i len in
          if Direct_ops.is_true cx cond then begin
            let v = Direct_ops.getitem cx s i in
            f.Frame.locals.(var) <- v;
            f.Frame.locals.(idx) <- Direct_ops.add cx i one;
            f.Frame.pc <- next
          end
          else f.Frame.pc <- exit;
          Frame.Continue
    | BUILD_LIST _ | BUILD_TUPLE _ | BUILD_DICT _ | BUILD_SET _
    | DELETE_SUBSCR | GET_SLICE | SET_SLICE | UNPACK_SEQUENCE _
    | GET_INDEXABLE | MAKE_FUNCTION _ | MAKE_CLASS _ ->
        (* cold bytecodes: pre-bind only the dispatch charge and run the
           reference handler *)
        fun f ->
          charge ~target;
          D_ref.step_ref cx globals f
  in
  let steps = Array.init n (fun pc -> step_of pc instrs.(pc)) in
  (* Superinstructions: fuse the hottest shapes.  The fused closure sits
     at the head pc only — every pc keeps its standalone step above, so
     a jump landing inside a fused pair behaves exactly as before — and
     interior pcs must not be loop headers (the driver consults the JIT
     portal between bytecodes; fusing across a merge point would skip
     it).  Interior dispatch charges are emitted inside the fused
     closure in reference order, so counters cannot tell the loops
     apart; only interior stack traffic (free in the cost model) is
     elided, which is GC-safe because the operands stay reachable
     through the locals. *)
  let interior pc = pc < n && not hdrs.(pc) in
  let tag i = Bytecode.tag instrs.(i) in
  let fused pc =
    (* two-operand loads: x and y resolved at translate time to either a
       local slot read or a hoisted constant *)
    let operand2 =
      match instrs.(pc) with
      | LOAD_FAST a when interior (pc + 1) -> (
          match instrs.(pc + 1) with
          | LOAD_FAST b ->
              Some (tag pc, tag (pc + 1),
                    (fun (f : (Direct_ops.t, Bytecode.code) Frame.t) ->
                       f.Frame.locals.(a)),
                    (fun (f : (Direct_ops.t, Bytecode.code) Frame.t) ->
                       f.Frame.locals.(b)),
                    None)
          | LOAD_CONST v ->
              let c = Direct_ops.const cx v in
              Some (tag pc, tag (pc + 1),
                    (fun (f : (Direct_ops.t, Bytecode.code) Frame.t) ->
                       f.Frame.locals.(a)),
                    (fun _ -> c),
                    Some c)
          | _ -> None)
      | _ -> None
    in
    match operand2 with
    | Some (t0, t1, getx, gety, yconst) when interior (pc + 2) -> (
        let t2 = tag (pc + 2) in
        match instrs.(pc + 2) with
        | BINARY op -> (
            let fn = binary_fn op in
            let nx = pc + 3 in
            match if interior nx then Some instrs.(nx) else None with
            | Some (STORE_FAST s) ->
                (* c = a op b : no operand stack traffic at all *)
                let t3 = tag nx in
                let nx4 = nx + 1 in
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    let r = fn cx x y in
                    charge ~target:t3;
                    f.Frame.locals.(s) <- r;
                    f.Frame.pc <- nx4;
                    Frame.Continue)
            | _ ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    Frame.push f (fn cx x y);
                    f.Frame.pc <- nx;
                    Frame.Continue))
        | COMPARE op -> (
            let nx = pc + 3 in
            match if interior nx then Some instrs.(nx) else None with
            | Some (POP_JUMP_IF_FALSE t) ->
                (* if a op b : full guard shape, branch straight off the
                   comparison result *)
                let t3 = tag nx in
                let nx4 = nx + 1 in
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    let r = Direct_ops.compare cx op x y in
                    charge ~target:t3;
                    f.Frame.pc <-
                      (if Direct_ops.is_true cx r then nx4 else t);
                    Frame.Continue)
            | Some (POP_JUMP_IF_TRUE t) ->
                let t3 = tag nx in
                let nx4 = nx + 1 in
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    let r = Direct_ops.compare cx op x y in
                    charge ~target:t3;
                    f.Frame.pc <-
                      (if Direct_ops.is_true cx r then t else nx4);
                    Frame.Continue)
            | _ ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    Frame.push f (Direct_ops.compare cx op x y);
                    f.Frame.pc <- nx;
                    Frame.Continue))
        | BINARY_SUBSCR -> (
            (* a[i] with both operands pre-resolved *)
            let nx = pc + 3 in
            match yconst with
            | Some k when Value.is_str k ->
                (* string-constant key: the dict probe's hash is hoisted
                   to translate time ([py_hash] charges nothing, so the
                   counters cannot tell; test_value_diff.ml holds this) *)
                let khash = Value.py_hash k in
                Some
                  (fun f ->
                    charge ~target:t0;
                    let obj = getx f in
                    charge ~target:t1;
                    charge ~target:t2;
                    Frame.push f (Direct_ops.getitem_h cx obj k khash);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | _ ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let obj = getx f in
                    charge ~target:t1;
                    let k = gety f in
                    charge ~target:t2;
                    Frame.push f (Direct_ops.getitem cx obj k);
                    f.Frame.pc <- nx;
                    Frame.Continue))
        | _ -> None)
    | _ -> (
        match instrs.(pc) with
        | LOAD_FAST a when interior (pc + 1) -> (
            let t0 = tag pc and t1 = tag (pc + 1) in
            let nx = pc + 2 in
            match instrs.(pc + 1) with
            | STORE_FAST s ->
                (* b = a : local-to-local copy *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = f.Frame.locals.(a) in
                    charge ~target:t1;
                    f.Frame.locals.(s) <- x;
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | BINARY op -> (
                (* <stack> op a : right operand from the local *)
                let fn = binary_fn op in
                match if interior nx then Some instrs.(nx) else None with
                | Some (STORE_FAST s) ->
                    let t2 = tag nx in
                    let nx3 = nx + 1 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = f.Frame.locals.(a) in
                        charge ~target:t1;
                        let x = Frame.pop f in
                        let r = fn cx x y in
                        charge ~target:t2;
                        f.Frame.locals.(s) <- r;
                        f.Frame.pc <- nx3;
                        Frame.Continue)
                | _ ->
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = f.Frame.locals.(a) in
                        charge ~target:t1;
                        let x = Frame.pop f in
                        Frame.push f (fn cx x y);
                        f.Frame.pc <- nx;
                        Frame.Continue))
            | BINARY_SUBSCR ->
                (* <stack>[a] : subscript from the local *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    let k = f.Frame.locals.(a) in
                    charge ~target:t1;
                    let obj = Frame.pop f in
                    Frame.push f (Direct_ops.getitem cx obj k);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | LOAD_ATTR name ->
                (* a.name : attribute read off the local *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    let obj = f.Frame.locals.(a) in
                    charge ~target:t1;
                    Frame.push f (Direct_ops.getattr cx obj name);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | _ -> None)
        | LOAD_CONST v when interior (pc + 1) -> (
            let c = Direct_ops.const cx v in
            let t0 = tag pc and t1 = tag (pc + 1) in
            let nx = pc + 2 in
            match instrs.(pc + 1) with
            | BINARY_SUBSCR ->
                (* <stack>[<const>] : dict reads with literal keys; for
                   string keys the probe hash is hoisted to translate
                   time *)
                let get =
                  if Value.is_str c then
                    let khash = Value.py_hash c in
                    fun obj -> Direct_ops.getitem_h cx obj c khash
                  else fun obj -> Direct_ops.getitem cx obj c
                in
                Some
                  (fun f ->
                    charge ~target:t0;
                    charge ~target:t1;
                    let obj = Frame.pop f in
                    Frame.push f (get obj);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | STORE_FAST s ->
                (* b = <const> : constant hoisted at translate time *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    charge ~target:t1;
                    f.Frame.locals.(s) <- c;
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | BINARY op -> (
                (* <stack> op <const> : the tail of every x*2+1 chain *)
                let fn = binary_fn op in
                match if interior nx then Some instrs.(nx) else None with
                | Some (STORE_FAST s) ->
                    let t2 = tag nx in
                    let nx3 = nx + 1 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        let r = fn cx x c in
                        charge ~target:t2;
                        f.Frame.locals.(s) <- r;
                        f.Frame.pc <- nx3;
                        Frame.Continue)
                | _ ->
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        Frame.push f (fn cx x c);
                        f.Frame.pc <- nx;
                        Frame.Continue))
            | COMPARE op -> (
                (* <stack> op <const>, usually feeding a conditional *)
                match if interior nx then Some instrs.(nx) else None with
                | Some (POP_JUMP_IF_FALSE t) ->
                    let t2 = tag nx in
                    let nx3 = nx + 1 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        let r = Direct_ops.compare cx op x c in
                        charge ~target:t2;
                        f.Frame.pc <-
                          (if Direct_ops.is_true cx r then nx3 else t);
                        Frame.Continue)
                | Some (POP_JUMP_IF_TRUE t) ->
                    let t2 = tag nx in
                    let nx3 = nx + 1 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        let r = Direct_ops.compare cx op x c in
                        charge ~target:t2;
                        f.Frame.pc <-
                          (if Direct_ops.is_true cx r then t else nx3);
                        Frame.Continue)
                | _ ->
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        Frame.push f (Direct_ops.compare cx op x c);
                        f.Frame.pc <- nx;
                        Frame.Continue))
            | _ -> None)
        | STORE_FAST s when interior (pc + 1) -> (
            let t0 = tag pc and t1 = tag (pc + 1) in
            let nx = pc + 2 in
            match instrs.(pc + 1) with
            | LOAD_FAST a ->
                (* store one local, immediately read another *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    f.Frame.locals.(s) <- Frame.pop f;
                    charge ~target:t1;
                    Frame.push f f.Frame.locals.(a);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | JUMP t ->
                (* loop latch: store the induction value and branch *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    f.Frame.locals.(s) <- Frame.pop f;
                    charge ~target:t1;
                    f.Frame.pc <- t;
                    Frame.Continue)
            | _ -> None)
        | JUMP t when interior t -> (
            (* forward jump into a plain local load (if/else join): run
               the landing instruction in the same step *)
            match instrs.(t) with
            | LOAD_FAST a ->
                let t0 = tag pc and t1 = tag t in
                let nx = t + 1 in
                Some
                  (fun f ->
                    charge ~target:t0;
                    charge ~target:t1;
                    Frame.push f f.Frame.locals.(a);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | _ -> None)
        | BINARY op when interior (pc + 1) -> (
            let fn = binary_fn op in
            match instrs.(pc + 1) with
            | STORE_FAST s -> (
                (* tail of mixed-operand expressions: result straight to
                   the local, folding a trailing loop-latch jump in *)
                let t0 = tag pc and t1 = tag (pc + 1) in
                let nx = pc + 2 in
                match if interior nx then Some instrs.(nx) else None with
                | Some (JUMP t) ->
                    let t2 = tag nx in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = Frame.pop f in
                        let x = Frame.pop f in
                        let r = fn cx x y in
                        charge ~target:t1;
                        f.Frame.locals.(s) <- r;
                        charge ~target:t2;
                        f.Frame.pc <- t;
                        Frame.Continue)
                | _ ->
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = Frame.pop f in
                        let x = Frame.pop f in
                        let r = fn cx x y in
                        charge ~target:t1;
                        f.Frame.locals.(s) <- r;
                        f.Frame.pc <- nx;
                        Frame.Continue))
            | LOAD_CONST v when interior (pc + 2) -> (
                (* op-const-op chains like x*2+1: fold the middle
                   constant load into one superinstruction *)
                match instrs.(pc + 2) with
                | BINARY op2 ->
                    let c = Direct_ops.const cx v in
                    let fn2 = binary_fn op2 in
                    let t0 = tag pc and t1 = tag (pc + 1) in
                    let t2 = tag (pc + 2) in
                    let nx = pc + 3 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = Frame.pop f in
                        let x = Frame.pop f in
                        let r = fn cx x y in
                        charge ~target:t1;
                        charge ~target:t2;
                        Frame.push f (fn2 cx r c);
                        f.Frame.pc <- nx;
                        Frame.Continue)
                | _ -> None)
            | _ -> None)
        | COMPARE op when interior (pc + 1) -> (
            let t0 = tag pc in
            let t1 = tag (pc + 1) in
            let nx = pc + 2 in
            match instrs.(pc + 1) with
            | POP_JUMP_IF_FALSE t ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let y = Frame.pop f in
                    let x = Frame.pop f in
                    let r = Direct_ops.compare cx op x y in
                    charge ~target:t1;
                    f.Frame.pc <- (if Direct_ops.is_true cx r then nx else t);
                    Frame.Continue)
            | POP_JUMP_IF_TRUE t ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let y = Frame.pop f in
                    let x = Frame.pop f in
                    let r = Direct_ops.compare cx op x y in
                    charge ~target:t1;
                    f.Frame.pc <- (if Direct_ops.is_true cx r then t else nx);
                    Frame.Continue)
            | _ -> None)
        | _ -> None)
  in
  for pc = 0 to n - 1 do
    match fused pc with Some s -> steps.(pc) <- s | None -> ()
  done;
  steps
