(* The meta-JIT pitch, demonstrated: define a brand-new toy language in
   ~100 lines — its bytecode, a word-per-instruction front end and a
   one-instruction step function — and [Vm.Make] gives it a tracing JIT,
   guards, deoptimization and cross-layer profiling for free.  No
   JIT-specific code below: the interpreter is written against the OPS
   seam and the generic driver does the rest (the RPython value
   proposition from the paper's intro).

     dune exec examples/build_a_language.exe *)

open Mtj_rjit

(* --- the "Acc" language: a tiny register machine --- *)

type instr =
  | Push of int          (* push a constant *)
  | Load of int          (* push register r *)
  | Store of int         (* pop into register r *)
  | Add | Sub | Mul | Mod
  | Less                 (* pop b, a; push a < b *)
  | Jmpf of int          (* pop; jump if false *)
  | Jmp of int
  | Print                (* pop and print *)
  | Halt

module Acc_lang = struct
  type code = instr array * int

  module Table = Code_table.Make (struct
    type nonrec code = code

    let id (_, id) = id
    let first_id = 0
    let lang_name = "acc"
  end)

  let nlocals _ = 8          (* eight registers *)
  let stack_size _ = 16
  let name (_, id) = Printf.sprintf "acc-%d" id

  (* loop headers: targets of backward jumps *)
  let headers (instrs, _) =
    let hs = Array.make (Array.length instrs) false in
    Array.iteri
      (fun src i ->
        match i with
        | Jmp t | Jmpf t -> if t <= src then hs.(t) <- true
        | _ -> ())
      instrs;
    hs

  let opcode_at (instrs, _) pc =
    match instrs.(pc) with
    | Push _ -> 0 | Load _ -> 1 | Store _ -> 2 | Add -> 3 | Sub -> 4
    | Mul -> 5 | Mod -> 6 | Less -> 7 | Jmpf _ -> 8 | Jmp _ -> 9
    | Print -> 10 | Halt -> 11

  (* the front end: one mnemonic per whitespace-separated word, operands
     following their instruction *)
  let compile src =
    let rec parse = function
      | [] -> []
      | ("push" | "load" | "store" | "jmpf" | "jmp") :: arg :: rest as ws ->
          let n = int_of_string arg in
          (match List.hd ws with
           | "push" -> Push n | "load" -> Load n | "store" -> Store n
           | "jmpf" -> Jmpf n | _ -> Jmp n)
          :: parse rest
      | w :: rest ->
          (match w with
           | "add" -> Add | "sub" -> Sub | "mul" -> Mul | "mod" -> Mod
           | "less" -> Less | "print" -> Print | "halt" -> Halt
           | _ -> invalid_arg ("acc: bad instruction " ^ w))
          :: parse rest
    in
    let words =
      String.split_on_char '\n' src
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter (( <> ) "")
    in
    let c = (Array.of_list (parse words), Table.fresh_id ()) in
    Table.register c;
    c

  let install_globals _ _ = ()

  module Step (O : Ops_intf.OPS) = struct
    let step cx _globals (f : (O.t, code) Frame.t) =
      let instrs, _ = f.Frame.code in
      let pc = f.Frame.pc in
      let next () = f.Frame.pc <- pc + 1; Frame.Continue in
      match instrs.(pc) with
      | Push k ->
          Frame.push f (O.const cx (Mtj_rt.Value.of_int k));
          next ()
      | Load r ->
          Frame.push f f.Frame.locals.(r);
          next ()
      | Store r ->
          f.Frame.locals.(r) <- Frame.pop f;
          next ()
      | Add -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.add cx a b); next ()
      | Sub -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.sub cx a b); next ()
      | Mul -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.mul cx a b); next ()
      | Mod -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.modulo cx a b); next ()
      | Less -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.compare cx Ops_intf.Lt a b); next ()
      | Jmpf t ->
          let v = Frame.pop f in
          if O.is_true cx v then next () else (f.Frame.pc <- t; Frame.Continue)
      | Jmp t -> f.Frame.pc <- t; Frame.Continue
      | Print ->
          ignore (O.call_builtin cx Builtin.Print [| Frame.pop f |]);
          next ()
      | Halt -> Frame.Return (O.const cx Mtj_rt.Value.nil)

    let step_ref = step
  end

  (* the threaded tier, generic flavour: wrap the reference step in one
     pre-bound closure per pc (pylite/rklite go further and pre-decode
     operands per pc) *)
  module D_ref = Step (Direct_ops)

  let threaded_code dcx globals d c =
    Array.mapi
      (fun pc _ ->
        let target = opcode_at c pc in
        fun f ->
          Threaded.charge d ~target;
          D_ref.step_ref dcx globals f)
      (fst c)
end

module Acc_vm = Vm.Make (Acc_lang)

(* --- an Acc program: sum of i*i mod 9973 for i < 200000 --- *)

let program =
  (* r0 = i, r1 = acc *)
  "push 0 store 0\n\
   push 0 store 1\n\
   load 0 push 60000 less jmpf 21\n\
   load 0 load 0 mul\n\
   load 1 add push 9973 mod store 1\n\
   load 0 push 1 add store 0\n\
   jmp 4\n\
   load 1 print\n\
   push 0 load 1 sub print\n\
   halt"

let run jit =
  let config =
    Mtj_core.Config.with_budget 100_000_000
      (if jit then Mtj_core.Config.default else Mtj_core.Config.no_jit)
  in
  match Acc_vm.run ~config program with
  | Driver.Completed _, vm ->
      ( Acc_vm.output vm,
        Mtj_machine.Engine.total_cycles (Acc_vm.engine vm),
        Acc_vm.jitlog vm )
  | Driver.Budget_exceeded, _ -> failwith "budget"
  | Driver.Runtime_error e, _ -> failwith e

let () =
  print_endline "A new language defined in ~100 lines, JIT included:\n";
  let out_i, cycles_i, _ = run false in
  let out_j, cycles_j, jl = run true in
  assert (out_i = out_j);
  Printf.printf "program result: %s" out_j;
  Printf.printf "\ninterpreted: %.0f cycles\n" cycles_i;
  Printf.printf "with JIT:    %.0f cycles   (%.1fx faster)\n" cycles_j
    (cycles_i /. cycles_j);
  Printf.printf
    "\nthe framework compiled %d trace(s) for the Acc language
(with guards, an optimizer, deoptimization and peeling) —
none of which the language implementer had to write.\n"
    (Jitlog.num_traces jl);
  List.iter
    (fun (tr : Ir.trace) ->
      Printf.printf "  trace %d: %d IR ops, executed %d times\n" tr.Ir.trace_id
        (Array.length tr.Ir.ops) tr.Ir.exec_count)
    (Jitlog.traces jl)
