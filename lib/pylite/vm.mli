(** The pylite virtual machine: a CPython-style bytecode interpreter for
    a Python subset, written once against the {!Mtj_rjit.Ops_intf.OPS}
    seam and driven by the generic meta-tracing JIT
    ({!Mtj_rjit.Driver.Make}, wrapped by {!Mtj_rjit.Vm.Make}).

    The same VM models both sides of Table I: with
    {!Mtj_core.Profile.cpython} and the JIT disabled it stands in for
    CPython; with {!Mtj_core.Profile.rpython_interp} it is the
    RPython-translated interpreter, with or without the meta-tracing
    JIT ({!Mtj_core.Config.jit_enabled}).  Globals start with the
    builtins and the [math] module bound; [compile] raises
    {!Lexer.Syntax_error} or {!Compiler.Compile_error}.

    {[
      let vm = Vm.create ~config:Mtj_core.Config.default () in
      match Vm.run_source vm "print(1 + 2)" with
      | Mtj_rjit.Driver.Completed _ -> print_string (Vm.output vm)
      | _ -> prerr_endline "failed"
    ]} *)

module Lang : Mtj_rjit.Driver.LANG with type code = Bytecode.code
(** the language as the framework sees it (tests derive oracles from it) *)

include Mtj_rjit.Vm.S with type code = Bytecode.code
