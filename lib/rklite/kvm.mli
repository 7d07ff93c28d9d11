(** The rklite virtual machine: a Scheme-subset interpreter with proper
    tail calls, written against the {!Mtj_rjit.Ops_intf.OPS} seam and
    driven by the same generic meta-tracing JIT as pylite — the
    Pycket-on-Racket half of Table II and Figure 4.

    Self tail calls compile to an in-frame jump whose target is a loop
    header the JIT can trace; cons pairs are two-field instances of the
    pre-installed [%pair] class, so they participate in escape analysis
    like any other allocation. With {!Mtj_core.Profile.racket_custom}
    and the JIT disabled the VM stands in for the Racket reference
    implementation.  [compile] raises {!Reader.Syntax_error} or
    {!Kcompiler.Compile_error}. *)

module Lang : Mtj_rjit.Driver.LANG with type code = Kbytecode.code
(** the language as the framework sees it (tests derive oracles from it) *)

include Mtj_rjit.Vm.S with type code = Kbytecode.code
