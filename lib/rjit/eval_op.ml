(** Pure evaluation of side-effect-free IR opcodes over concrete values.

    Shared by the optimizer (constant folding) and the trace executor.
    Raises [Not_pure] for opcodes that touch the heap, call out, or
    control the trace; raises language errors ({!Ops_intf.Lang_error},
    [Division_by_zero]) exactly where the interpreter would. *)

open Mtj_rt

exception Not_pure
exception Overflow

let[@inline] as_int v =
  if Value.is_int v then Value.to_int_unchecked v
  else if Value.is_bool v then Bool.to_int (Value.to_bool_unchecked v)
  else Semantics.err "int op on %s" (Value.type_name v)

let[@inline] as_float v =
  if Value.is_float v then Value.to_float_unchecked v
  else Semantics.err "float op on %s" (Value.type_name v)

let[@inline] as_str v =
  if Value.is_str v then Value.to_str_unchecked v
  else Semantics.err "str op on %s" (Value.type_name v)

let checked_add x y =
  let r = x + y in
  if (x >= 0) = (y >= 0) && (r >= 0) <> (x >= 0) then raise Overflow else r

let checked_sub x y =
  let r = x - y in
  if (x >= 0) <> (y >= 0) && (r >= 0) <> (x >= 0) then raise Overflow else r

let checked_mul x y =
  if Rarith.mul_overflows x y then raise Overflow else x * y

let bool v = Value.of_bool v

let eval (opcode : Ir.opcode) (args : Value.t array) : Value.t =
  let i n = as_int args.(n) and f n = as_float args.(n) in
  match opcode with
  | Ir.Int_add -> Value.of_int (i 0 + i 1)
  | Ir.Int_sub -> Value.of_int (i 0 - i 1)
  | Ir.Int_mul -> Value.of_int (i 0 * i 1)
  | Ir.Int_and -> Value.of_int (i 0 land i 1)
  | Ir.Int_or -> Value.of_int (i 0 lor i 1)
  | Ir.Int_xor -> Value.of_int (i 0 lxor i 1)
  | Ir.Int_lshift -> Value.of_int (i 0 lsl i 1)
  | Ir.Int_rshift ->
      (* clamp: [asr] past the word size is unspecified (hardware wraps
         the count); traces only emit this for non-negative operands *)
      let n = i 1 in
      Value.of_int (i 0 asr (if n > 62 then 62 else n))
  | Ir.Int_lt -> bool (i 0 < i 1)
  | Ir.Int_le -> bool (i 0 <= i 1)
  | Ir.Int_eq -> bool (i 0 = i 1)
  | Ir.Int_ne -> bool (i 0 <> i 1)
  | Ir.Int_gt -> bool (i 0 > i 1)
  | Ir.Int_ge -> bool (i 0 >= i 1)
  | Ir.Int_neg ->
      let x = i 0 in
      if x = min_int then Semantics.err "integer negation overflow"
      else Value.of_int (-x)
  | Ir.Int_is_true -> bool (i 0 <> 0)
  | Ir.Int_is_zero -> bool (not (Value.truthy args.(0)))
  | Ir.Int_floordiv -> Value.of_int (Rarith.floordiv_int (i 0) (i 1))
  | Ir.Int_mod -> Value.of_int (Rarith.mod_int (i 0) (i 1))
  | Ir.Float_add -> Value.of_float (f 0 +. f 1)
  | Ir.Float_sub -> Value.of_float (f 0 -. f 1)
  | Ir.Float_mul -> Value.of_float (f 0 *. f 1)
  | Ir.Float_truediv ->
      if f 1 = 0.0 then raise Division_by_zero
      else Value.of_float (f 0 /. f 1)
  | Ir.Float_neg -> Value.of_float (-.(f 0))
  | Ir.Float_abs -> Value.of_float (Float.abs (f 0))
  | Ir.Float_lt -> bool (f 0 < f 1)
  | Ir.Float_le -> bool (f 0 <= f 1)
  | Ir.Float_eq -> bool (f 0 = f 1)
  | Ir.Float_ne -> bool (f 0 <> f 1)
  | Ir.Float_gt -> bool (f 0 > f 1)
  | Ir.Float_ge -> bool (f 0 >= f 1)
  | Ir.Cast_int_to_float -> Value.of_float (float_of_int (i 0))
  | Ir.Cast_float_to_int -> Value.of_int (int_of_float (Float.trunc (f 0)))
  | Ir.Str_concat -> Value.of_str (as_str args.(0) ^ as_str args.(1))
  | Ir.Str_eq -> bool (String.equal (as_str args.(0)) (as_str args.(1)))
  | Ir.Strlen -> Value.of_int (String.length (as_str args.(0)))
  | Ir.Strgetitem ->
      let s = as_str args.(0) and idx = i 1 in
      if idx < 0 || idx >= String.length s then
        Semantics.err "string index out of range"
      else Value.of_str (String.make 1 s.[idx])
  | Ir.Ptr_eq -> bool (Semantics.identical args.(0) args.(1))
  | Ir.Ptr_ne -> bool (not (Semantics.identical args.(0) args.(1)))
  | Ir.Same_as -> args.(0)
  | Ir.Unicode_len -> Value.of_int (String.length (as_str args.(0)))
  | Ir.Unicode_getitem ->
      let s = as_str args.(0) and idx = i 1 in
      if idx < 0 || idx >= String.length s then
        Semantics.err "string index out of range"
      else Value.of_str (String.make 1 s.[idx])
  | Ir.Getfield_gc _ | Ir.Setfield_gc _ | Ir.Getarrayitem_gc | Ir.Getlistitem
  | Ir.Setlistitem | Ir.Arraylen | Ir.Getcell | Ir.Setcell | Ir.Guard _
  | Ir.Call_r _ | Ir.Call_n _ | Ir.Call_assembler _ | Ir.Label | Ir.Jump | Ir.Finish
  | Ir.New_with_vtable _ | Ir.New_array _ | Ir.New_list _ | Ir.New_cell
  | Ir.Debug_merge_point _ ->
      raise Not_pure

(* is this opcode foldable when all arguments are constants? *)
let foldable opcode =
  match opcode with
  | Ir.Int_add | Ir.Int_sub | Ir.Int_mul | Ir.Int_and | Ir.Int_or
  | Ir.Int_xor | Ir.Int_lshift | Ir.Int_rshift | Ir.Int_lt | Ir.Int_le
  | Ir.Int_eq | Ir.Int_ne | Ir.Int_gt | Ir.Int_ge | Ir.Int_neg
  | Ir.Int_is_true | Ir.Int_is_zero | Ir.Int_floordiv | Ir.Int_mod
  | Ir.Float_add | Ir.Float_sub | Ir.Float_mul | Ir.Float_truediv
  | Ir.Float_neg | Ir.Float_abs | Ir.Float_lt | Ir.Float_le | Ir.Float_eq
  | Ir.Float_ne | Ir.Float_gt | Ir.Float_ge | Ir.Cast_int_to_float
  | Ir.Cast_float_to_int | Ir.Str_concat | Ir.Str_eq | Ir.Strlen
  | Ir.Strgetitem | Ir.Ptr_eq | Ir.Ptr_ne | Ir.Same_as | Ir.Unicode_len
  | Ir.Unicode_getitem ->
      true
  | _ -> false

(* result-producing ops with no observable effect: removable when the
   result is unused (allocations included — that is trivial escape
   analysis; pure residual calls included) *)
let removable (op : Ir.op) =
  op.Ir.result >= 0
  &&
  match op.Ir.opcode with
  | Ir.Guard _ | Ir.Setfield_gc _ | Ir.Setlistitem | Ir.Setcell | Ir.Jump
  | Ir.Finish | Ir.Label | Ir.Call_assembler _ | Ir.Debug_merge_point _
  | Ir.Call_n _ ->
      false
  | Ir.Call_r c -> not c.Ir.effectful
  | _ -> true
