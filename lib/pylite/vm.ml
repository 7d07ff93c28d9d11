(** The pylite virtual machine.

    Wires the language into the meta-tracing framework: with the JIT
    enabled and the RPython profile this models PyPy; with the JIT
    disabled it models "PyPy w/o JIT"; under the CPython profile (and no
    JIT) it models the reference CPython interpreter (Table I's three
    configurations). *)

open Mtj_rt
module Builtin = Mtj_rjit.Builtin
module Builtins_impl = Mtj_rjit.Builtins_impl
module Globals = Mtj_rjit.Globals

module Lang : Mtj_rjit.Driver.LANG with type code = Bytecode.code = struct
  type code = Bytecode.code

  module Table = Code_table

  let nlocals (c : code) = c.Bytecode.nlocals
  let stack_size (c : code) = c.Bytecode.stacksize
  let name (c : code) = c.Bytecode.name
  let headers (c : code) = c.Bytecode.headers

  module Step = Interp.Step

  let threaded_code = Interp.threaded_code
  let compile = Compiler.compile_source

  (* names exposed as module-level globals *)
  let global_builtins =
    Builtin.
      [ Len; Range2; Abs; Min2; Max2; Ord; Chr; To_int; To_float; To_str;
        Repr; Print; Sorted; Hashf; Sio_new; Annotate; Bigint_of; Powf;
        Encode_json ]

  let install_globals rtc globals =
    List.iter
      (fun b ->
        Globals.define globals (Builtin.name b) (Builtins_impl.builtin_value rtc b))
      global_builtins;
    (* the math module is modelled as a class object with builtin attrs *)
    let math_attrs =
      [ ("sqrt", Builtin.Sqrt); ("sin", Builtin.Sin); ("cos", Builtin.Cos);
        ("floor", Builtin.Floor_f); ("pow", Builtin.Powf) ]
    in
    let math =
      Gc_sim.obj (Ctx.gc rtc)
        (Value.Class
           {
             Value.cls_id = -1;
             cls_name = "math";
             layout = [||];
             attrs =
               List.map
                 (fun (n, b) -> (n, Builtins_impl.builtin_value rtc b))
                 math_attrs;
             parent = None;
           })
    in
    Globals.define globals "math" math
end

include Mtj_rjit.Vm.Make (Lang)
