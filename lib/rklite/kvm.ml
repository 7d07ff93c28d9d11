(** The rklite virtual machine.

    With the JIT enabled on the RPython profile this models Pycket; under
    the custom-JIT profile with the JIT disabled it models the reference
    Racket VM (Table II's two Racket-language configurations). *)

open Mtj_rt
open Mtj_rjit

module Lang : Driver.LANG with type code = Kbytecode.code = struct
  type code = Kbytecode.code

  module Table = Kcode_table

  let nlocals (c : code) = c.Kbytecode.nlocals
  let stack_size (c : code) = c.Kbytecode.stacksize
  let name (c : code) = c.Kbytecode.name
  let headers (c : code) = c.Kbytecode.headers

  module Step = Kinterp.Step

  let threaded_code = Kinterp.threaded_code
  let compile = Kcompiler.compile_source

  (* the pair "struct": rklite's cons cells are 2-field instances, so car
     and cdr trace to plain getfield_gc nodes and non-escaping pairs are
     removed by the JIT's escape analysis *)
  let install_globals rtc globals =
    let cls =
      Gc_sim.obj (Ctx.gc rtc)
        (Value.Class
           {
             Value.cls_id = -2;
             cls_name = "pair";
             layout = [| "car"; "cdr" |];
             attrs = [];
             parent = None;
           })
    in
    Globals.define globals "%pair" cls
end

include Vm.Make (Lang)
