(** The rklite bytecode interpreter, functorized over the OPS seam
    (the Pycket analogue: same meta-tracing framework, different hosted
    language). *)

open Mtj_rt
open Mtj_rjit
open Kbytecode

module Step (O : Ops_intf.OPS) = struct
  type frame = (O.t, Kbytecode.code) Frame.t

  let err = Semantics.err

  let make_frame cx code parent : frame =
    Frame.create_pooled ~pool:(O.frame_pool cx) ~code
      ~code_ref:code.Kbytecode.id ~nlocals:code.Kbytecode.nlocals
      ~stack_size:code.Kbytecode.stacksize ~parent

  (* pop [n] operands into a fresh positional-order array (top of stack
     is the last argument) — no per-call list building on the call path *)
  let pop_args cx (f : frame) n : O.t array =
    if n = 0 then [||]
    else begin
      let args = Array.make n (O.const cx Value.nil) in
      for i = n - 1 downto 0 do
        args.(i) <- Frame.pop f
      done;
      args
    end

  let pair_class cx globals = O.load_global cx globals "%pair"

  let cons cx globals car cdr =
    let p = O.alloc_instance cx (pair_class cx globals) in
    O.setattr cx p "car" car;
    O.setattr cx p "cdr" cdr;
    p

  let number_prim cx op (args : O.t list) identity =
    match args with
    | [] -> O.const cx identity
    | x :: rest -> List.fold_left (fun acc a -> op cx acc a) x rest

  let cmp_chain cx op (args : O.t list) =
    (* (< a b c ...) *)
    let rec go = function
      | a :: (b :: _ as rest) ->
          if O.is_true cx (O.compare cx op a b) then go rest else false
      | _ -> true
    in
    O.const cx (Value.of_bool (go args))

  let prim cx globals (f : frame) (p : prim) (args : O.t list) : O.t =
    ignore f;
    match (p, args) with
    | P_add, _ -> number_prim cx O.add args (Value.of_int 0)
    | P_sub, [ x ] -> O.neg cx x
    | P_sub, x :: rest when rest <> [] ->
        List.fold_left (fun acc a -> O.sub cx acc a) x rest
    | P_mul, _ -> number_prim cx O.mul args (Value.of_int 1)
    | P_div, [ a; b ] -> O.truediv cx a b
    | P_quotient, [ a; b ] -> O.floordiv cx a b
    | P_remainder, [ a; b ] | P_modulo, [ a; b ] -> O.modulo cx a b
    | P_lt, _ -> cmp_chain cx Ops_intf.Lt args
    | P_le, _ -> cmp_chain cx Ops_intf.Le args
    | P_gt, _ -> cmp_chain cx Ops_intf.Gt args
    | P_ge, _ -> cmp_chain cx Ops_intf.Ge args
    | P_numeq, _ -> cmp_chain cx Ops_intf.Eq args
    | P_eq, [ a; b ] -> O.compare cx Ops_intf.Is a b
    | P_equal, [ a; b ] -> O.compare cx Ops_intf.Eq a b
    | P_not, [ a ] -> O.not_ cx a
    | P_zerop, [ a ] -> O.compare cx Ops_intf.Eq a (O.const cx (Value.of_int 0))
    | P_nullp, [ a ] -> O.compare cx Ops_intf.Is a (O.const cx Value.nil)
    | P_pairp, [ a ] ->
        let cv = O.concrete a in
        O.const cx
          (Value.of_bool
             (Value.is_obj cv
             &&
             (* the only instances in rklite are pairs *)
             match (Value.to_obj_unchecked cv).Value.payload with
             | Value.Instance _ -> true
             | _ -> false))
    | P_car, [ a ] -> O.getattr cx a "car"
    | P_cdr, [ a ] -> O.getattr cx a "cdr"
    | P_cons, [ a; d ] -> cons cx globals a d
    | P_set_car, [ p; v ] ->
        O.setattr cx p "car" v;
        O.const cx Value.nil
    | P_set_cdr, [ p; v ] ->
        O.setattr cx p "cdr" v;
        O.const cx Value.nil
    | P_vector_ref, [ v; i ] -> O.getitem cx v i
    | P_vector_set, [ v; i; x ] ->
        O.setitem cx v i x;
        O.const cx Value.nil
    | P_vector_length, [ v ] -> O.len_ cx v
    | P_vector, _ -> O.make_list cx (Array.of_list args)
    | P_make_vector, [ n ] ->
        O.call_builtin cx Builtin.Make_vector [| n; O.const cx (Value.of_int 0) |]
    | P_make_vector, [ n; init ] ->
        O.call_builtin cx Builtin.Make_vector [| n; init |]
    | P_display, [ v ] -> O.call_builtin cx Builtin.Display [| v |]
    | P_newline, [] ->
        O.call_builtin cx Builtin.Display [| O.const cx (Value.of_str "\n") |]
    | P_sqrt, [ v ] -> O.call_builtin cx Builtin.Sqrt [| v |]
    | P_sin, [ v ] -> O.call_builtin cx Builtin.Sin [| v |]
    | P_cos, [ v ] -> O.call_builtin cx Builtin.Cos [| v |]
    | P_expt, [ a; b ] -> O.pow cx a b
    | P_abs, [ v ] -> O.call_builtin cx Builtin.Abs [| v |]
    | P_min, [ a; b ] -> O.call_builtin cx Builtin.Min2 [| a; b |]
    | P_max, [ a; b ] -> O.call_builtin cx Builtin.Max2 [| a; b |]
    | P_floor, [ v ] -> O.call_builtin cx Builtin.Floor_f [| v |]
    | P_num_to_str, [ v ] -> O.call_builtin cx Builtin.To_str [| v |]
    | P_str_append, _ ->
        number_prim cx O.add args (Value.of_str "")
    | P_str_length, [ v ] -> O.len_ cx v
    | P_to_float, [ v ] -> O.call_builtin cx Builtin.To_float [| v |]
    | P_list, _ ->
        List.fold_right (fun a acc -> cons cx globals a acc) args
          (O.const cx Value.nil)
    | P_annotate, [ v ] -> O.call_builtin cx Builtin.Annotate [| v |]
    | p, _ ->
        err "%s: wrong number of arguments (%d)" (prim_name p)
          (List.length args)

  let step cx (globals : Globals.t) (f : frame) :
      (O.t, Kbytecode.code) Frame.outcome =
    let pc = f.Frame.pc in
    let instr = f.Frame.code.Kbytecode.instrs.(pc) in
    let continue_at next =
      f.Frame.pc <- next;
      Frame.Continue
    in
    let next () = continue_at (pc + 1) in
    match instr with
    | K_CONST v ->
        Frame.push f (O.const cx v);
        next ()
    | K_LOCAL slot ->
        Frame.push f f.Frame.locals.(slot);
        next ()
    | K_SET_LOCAL slot ->
        f.Frame.locals.(slot) <- Frame.pop f;
        next ()
    | K_GLOBAL name ->
        Frame.push f (O.load_global cx globals name);
        next ()
    | K_SET_GLOBAL name ->
        O.store_global cx globals name (Frame.pop f);
        next ()
    | K_CELL_GET slot ->
        Frame.push f (O.cell_get cx f.Frame.locals.(slot));
        next ()
    | K_CELL_SET slot ->
        let v = Frame.pop f in
        O.cell_set cx f.Frame.locals.(slot) v;
        next ()
    | K_MAKE_CELL slot ->
        f.Frame.locals.(slot) <- O.make_cell cx f.Frame.locals.(slot);
        next ()
    | K_CLOSURE { code_ref; arity; cname; capture_slots } ->
        let cells = Array.map (fun s -> f.Frame.locals.(s)) capture_slots in
        Frame.push f (O.make_closure cx ~code_ref ~arity ~fname:cname cells);
        next ()
    | K_CALL nargs ->
        let args = pop_args cx f nargs in
        let callee = Frame.pop f in
        let fn = O.guard_func cx callee in
        if fn.Value.code_ref < 0 then begin
          let b = Builtin.of_tag (-fn.Value.code_ref - 1) in
          let r = O.call_builtin cx b args in
          Frame.push f r;
          next ()
        end
        else begin
          if fn.Value.arity <> nargs then
            err "%s: expects %d arguments, got %d" fn.Value.func_name
              fn.Value.arity nargs;
          let code = Kcode_table.lookup fn.Value.code_ref in
          f.Frame.pc <- pc + 1;
          let nf = make_frame cx code (Some f) in
          Array.blit args 0 nf.Frame.locals 0 nargs;
          (* copy the captured cells into the capture slots *)
          for i = 0 to code.Kbytecode.ncaptured - 1 do
            nf.Frame.locals.(code.Kbytecode.nargs + i) <-
              O.func_captured cx callee i
          done;
          Frame.Call nf
        end
    | K_TAILCALL nargs ->
        let args = pop_args cx f nargs in
        let callee = Frame.pop f in
        let fn = O.guard_func cx callee in
        if fn.Value.code_ref < 0 then begin
          let b = Builtin.of_tag (-fn.Value.code_ref - 1) in
          let r = O.call_builtin cx b args in
          Frame.Return r
        end
        else begin
          if fn.Value.arity <> nargs then
            err "%s: expects %d arguments, got %d" fn.Value.func_name
              fn.Value.arity nargs;
          let code = Kcode_table.lookup fn.Value.code_ref in
          (* proper tail call: the new frame replaces this one *)
          let nf = make_frame cx code f.Frame.parent in
          nf.Frame.discard_return <- f.Frame.discard_return;
          Array.blit args 0 nf.Frame.locals 0 nargs;
          for i = 0 to code.Kbytecode.ncaptured - 1 do
            nf.Frame.locals.(code.Kbytecode.nargs + i) <-
              O.func_captured cx callee i
          done;
          (* the replaced frame is dead the instant we hand back [nf]:
             nothing simulated can run between here and the driver
             swapping its chain head, so its arrays can be recycled *)
          Frame.release ~pool:(O.frame_pool cx) f;
          Frame.Call nf
        end
    | K_TAILJUMP nargs ->
        (* refresh the parameters and restart the function body *)
        for i = nargs - 1 downto 0 do
          f.Frame.locals.(i) <- Frame.pop f
        done;
        (* re-box celled parameters for the next iteration *)
        continue_at 0
    | K_JUMP t -> continue_at t
    | K_JUMP_IF_FALSE t ->
        let v = Frame.pop f in
        if O.is_true cx v then next () else continue_at t
    | K_JFALSE_OR_POP t ->
        let v = Frame.peek f 0 in
        if O.is_true cx v then begin
          ignore (Frame.pop f);
          next ()
        end
        else continue_at t
    | K_JTRUE_OR_POP t ->
        let v = Frame.peek f 0 in
        if O.is_true cx v then continue_at t
        else begin
          ignore (Frame.pop f);
          next ()
        end
    | K_RETURN -> Frame.Return (Frame.pop f)
    | K_POP ->
        ignore (Frame.pop f);
        next ()
    | K_PRIM (p, nargs) ->
        let rec pops n acc =
          if n = 0 then acc else pops (n - 1) (Frame.pop f :: acc)
        in
        let args = pops nargs [] in
        let r = prim cx globals f p args in
        Frame.push f r;
        next ()

  (* the decode-and-match handler, under the name [Driver.LANG] knows it
     by *)
  let step_ref = step
end

(* ------------------------------------------------------------------ *)
(* Threaded dispatch (the rklite half of {!Mtj_rjit.Threaded}).

   Mirrors [Interp.threaded_code]: one pre-bound closure per bytecode
   over [Direct_ops], operands and prim dispatch resolved at translate
   time, hottest shapes fused.  Charge sequences are byte-identical to
   [Step(Direct_ops).step_ref] (held by test/test_dispatch_diff.ml). *)

module D_ref = Step (Direct_ops)

type dstep = (Direct_ops.t, Kbytecode.code) Threaded.step

(* 2-argument prims whose reference handler reduces to exactly one
   Direct_ops call (a single arithmetic charge): pre-resolved for the
   standalone K_PRIM step and the K_LOCAL+K_LOCAL+K_PRIM fusion *)
let arith2_fn :
    prim -> (Direct_ops.cx -> Direct_ops.t -> Direct_ops.t -> Direct_ops.t) option
    = function
  | P_add -> Some Direct_ops.add
  | P_sub -> Some Direct_ops.sub
  | P_mul -> Some Direct_ops.mul
  | P_div -> Some Direct_ops.truediv
  | P_quotient -> Some Direct_ops.floordiv
  | P_remainder | P_modulo -> Some Direct_ops.modulo
  | _ -> None

(* 2-argument comparison chains: [cmp_chain] on [a; b] charges one
   compare and one is_true, then pushes the (free) Bool const *)
let cmp2_op : prim -> Ops_intf.cmp option = function
  | P_lt -> Some Ops_intf.Lt
  | P_le -> Some Ops_intf.Le
  | P_gt -> Some Ops_intf.Gt
  | P_ge -> Some Ops_intf.Ge
  | P_numeq -> Some Ops_intf.Eq
  | _ -> None

let threaded_code (cx : Direct_ops.cx) (globals : Globals.t)
    (d : Threaded.dispatch) (code : Kbytecode.code) : dstep array =
  let instrs = code.Kbytecode.instrs in
  let hdrs = code.Kbytecode.headers in
  let n = Array.length instrs in
  let charge = Threaded.charger d in
  let err = Semantics.err in
  (* a stale code table must fail at translation, not mid-run *)
  Array.iter
    (function
      | K_CLOSURE { code_ref; _ } -> ignore (Kcode_table.lookup code_ref)
      | _ -> ())
    instrs;
  let step_of pc instr : dstep =
    let target = Kbytecode.tag instr in
    let next = pc + 1 in
    match instr with
    | K_CONST v ->
        let c = Direct_ops.const cx v in
        fun f ->
          charge ~target;
          Frame.push f c;
          f.Frame.pc <- next;
          Frame.Continue
    | K_LOCAL slot ->
        fun f ->
          charge ~target;
          Frame.push f f.Frame.locals.(slot);
          f.Frame.pc <- next;
          Frame.Continue
    | K_SET_LOCAL slot ->
        fun f ->
          charge ~target;
          f.Frame.locals.(slot) <- Frame.pop f;
          f.Frame.pc <- next;
          Frame.Continue
    | K_GLOBAL name ->
        fun f ->
          charge ~target;
          Frame.push f (Direct_ops.load_global cx globals name);
          f.Frame.pc <- next;
          Frame.Continue
    | K_SET_GLOBAL name ->
        fun f ->
          charge ~target;
          Direct_ops.store_global cx globals name (Frame.pop f);
          f.Frame.pc <- next;
          Frame.Continue
    | K_CELL_GET slot ->
        fun f ->
          charge ~target;
          Frame.push f (Direct_ops.cell_get cx f.Frame.locals.(slot));
          f.Frame.pc <- next;
          Frame.Continue
    | K_CELL_SET slot ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          Direct_ops.cell_set cx f.Frame.locals.(slot) v;
          f.Frame.pc <- next;
          Frame.Continue
    | K_MAKE_CELL slot ->
        fun f ->
          charge ~target;
          f.Frame.locals.(slot) <- Direct_ops.make_cell cx f.Frame.locals.(slot);
          f.Frame.pc <- next;
          Frame.Continue
    | K_CLOSURE { code_ref; arity; cname; capture_slots } ->
        fun f ->
          charge ~target;
          let cells = Array.map (fun s -> f.Frame.locals.(s)) capture_slots in
          Frame.push f
            (Direct_ops.make_closure cx ~code_ref ~arity ~fname:cname cells);
          f.Frame.pc <- next;
          Frame.Continue
    | K_CALL nargs ->
        fun f ->
          charge ~target;
          let args = D_ref.pop_args cx f nargs in
          let callee = Frame.pop f in
          let fn = Direct_ops.guard_func cx callee in
          if fn.Value.code_ref < 0 then begin
            let b = Builtin.of_tag (-fn.Value.code_ref - 1) in
            let r = Direct_ops.call_builtin cx b args in
            Frame.push f r;
            f.Frame.pc <- next;
            Frame.Continue
          end
          else begin
            if fn.Value.arity <> nargs then
              err "%s: expects %d arguments, got %d" fn.Value.func_name
                fn.Value.arity nargs;
            let code = Kcode_table.lookup fn.Value.code_ref in
            f.Frame.pc <- next;
            let nf = D_ref.make_frame cx code (Some f) in
            Array.blit args 0 nf.Frame.locals 0 nargs;
            for i = 0 to code.Kbytecode.ncaptured - 1 do
              nf.Frame.locals.(code.Kbytecode.nargs + i) <-
                Direct_ops.func_captured cx callee i
            done;
            Frame.Call nf
          end
    | K_TAILCALL nargs ->
        fun f ->
          charge ~target;
          let args = D_ref.pop_args cx f nargs in
          let callee = Frame.pop f in
          let fn = Direct_ops.guard_func cx callee in
          if fn.Value.code_ref < 0 then begin
            let b = Builtin.of_tag (-fn.Value.code_ref - 1) in
            let r = Direct_ops.call_builtin cx b args in
            Frame.Return r
          end
          else begin
            if fn.Value.arity <> nargs then
              err "%s: expects %d arguments, got %d" fn.Value.func_name
                fn.Value.arity nargs;
            let code = Kcode_table.lookup fn.Value.code_ref in
            let nf = D_ref.make_frame cx code f.Frame.parent in
            nf.Frame.discard_return <- f.Frame.discard_return;
            Array.blit args 0 nf.Frame.locals 0 nargs;
            for i = 0 to code.Kbytecode.ncaptured - 1 do
              nf.Frame.locals.(code.Kbytecode.nargs + i) <-
                Direct_ops.func_captured cx callee i
            done;
            Frame.release ~pool:(Direct_ops.frame_pool cx) f;
            Frame.Call nf
          end
    | K_TAILJUMP nargs ->
        fun f ->
          charge ~target;
          for i = nargs - 1 downto 0 do
            f.Frame.locals.(i) <- Frame.pop f
          done;
          f.Frame.pc <- 0;
          Frame.Continue
    | K_JUMP t ->
        fun f ->
          charge ~target;
          f.Frame.pc <- t;
          Frame.Continue
    | K_JUMP_IF_FALSE t ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          f.Frame.pc <- (if Direct_ops.is_true cx v then next else t);
          Frame.Continue
    | K_JFALSE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if Direct_ops.is_true cx v then begin
            ignore (Frame.pop f);
            f.Frame.pc <- next
          end
          else f.Frame.pc <- t;
          Frame.Continue
    | K_JTRUE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if Direct_ops.is_true cx v then f.Frame.pc <- t
          else begin
            ignore (Frame.pop f);
            f.Frame.pc <- next
          end;
          Frame.Continue
    | K_RETURN ->
        fun f ->
          charge ~target;
          Frame.Return (Frame.pop f)
    | K_POP ->
        fun f ->
          charge ~target;
          ignore (Frame.pop f);
          f.Frame.pc <- next;
          Frame.Continue
    | K_PRIM (p, 2) when arith2_fn p <> None ->
        let fn = Option.get (arith2_fn p) in
        fun f ->
          charge ~target;
          let y = Frame.pop f in
          let x = Frame.pop f in
          Frame.push f (fn cx x y);
          f.Frame.pc <- next;
          Frame.Continue
    | K_PRIM (p, 2) when cmp2_op p <> None ->
        let op = Option.get (cmp2_op p) in
        fun f ->
          charge ~target;
          let y = Frame.pop f in
          let x = Frame.pop f in
          let r = Direct_ops.compare cx op x y in
          Frame.push f (Value.of_bool (Direct_ops.is_true cx r));
          f.Frame.pc <- next;
          Frame.Continue
    | K_PRIM (p, nargs) ->
        (* cold prims: pre-bind the dispatch charge and the prim symbol,
           reuse the reference dispatcher *)
        fun f ->
          charge ~target;
          let rec pops n acc =
            if n = 0 then acc else pops (n - 1) (Frame.pop f :: acc)
          in
          let args = pops nargs [] in
          let r = D_ref.prim cx globals f p args in
          Frame.push f r;
          f.Frame.pc <- next;
          Frame.Continue
  in
  let steps = Array.init n (fun pc -> step_of pc instrs.(pc)) in
  (* superinstructions, same rules as the pylite translator: fused form
     at the head pc only, interior pcs keep their standalone steps and
     must not be loop headers, interior dispatch charges are emitted
     in-line in reference order *)
  let interior pc = pc < n && not hdrs.(pc) in
  let fused pc =
    match instrs.(pc) with
    | K_LOCAL a when interior (pc + 1) && interior (pc + 2) -> (
        let t0 = Kbytecode.tag instrs.(pc) in
        let t1 = Kbytecode.tag instrs.(pc + 1) in
        let t2 = Kbytecode.tag instrs.(pc + 2) in
        let nx = pc + 3 in
        match (instrs.(pc + 1), instrs.(pc + 2)) with
        | K_LOCAL b, K_PRIM (p, 2) when arith2_fn p <> None ->
            let fn = Option.get (arith2_fn p) in
            Some
              (fun f ->
                charge ~target:t0;
                let x = f.Frame.locals.(a) in
                charge ~target:t1;
                let y = f.Frame.locals.(b) in
                charge ~target:t2;
                Frame.push f (fn cx x y);
                f.Frame.pc <- nx;
                Frame.Continue)
        | _ -> None)
    | K_PRIM (p, 2) when cmp2_op p <> None && interior (pc + 1) -> (
        let op = Option.get (cmp2_op p) in
        let t0 = Kbytecode.tag instrs.(pc) in
        let t1 = Kbytecode.tag instrs.(pc + 1) in
        let nx = pc + 2 in
        match instrs.(pc + 1) with
        | K_JUMP_IF_FALSE t ->
            Some
              (fun f ->
                charge ~target:t0;
                let y = Frame.pop f in
                let x = Frame.pop f in
                let r = Direct_ops.compare cx op x y in
                let res = Direct_ops.is_true cx r in
                charge ~target:t1;
                f.Frame.pc <-
                  (if Direct_ops.is_true cx (Value.of_bool res) then nx else t);
                Frame.Continue)
        | _ -> None)
    | _ -> None
  in
  for pc = 0 to n - 1 do
    match fused pc with Some s -> steps.(pc) <- s | None -> ()
  done;
  steps
