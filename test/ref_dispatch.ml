(** The decode-and-match dispatch loop, kept as a test oracle.

    Production runs every code object as a {!Mtj_rjit.Threaded} step
    array with pre-decoded operands and fused superinstructions.  This
    oracle is the same language with its translator swapped out: the
    step at every pc is the {!Mtj_rjit.Threaded.charge} prologue
    followed by the language's reference handler
    [Step(Direct_ops).step_ref] — exactly one iteration of a
    decode-and-match loop.  It is built through the same [Vm.Make] as
    production, so dispatch-diff, tier-diff and value-repr-diff compare
    the two dispatch strategies under one driver. *)

open Mtj_rjit

module type S = sig
  include Vm.S

  val step_ref_calls : unit -> int
  (** oracle steps entered so far (all VMs of this language), each one
      charge prologue plus one [step_ref] unless the budget ran out in
      between: the liveness check that the oracle really decoded and
      matched *)
end

module Make
    (L : Driver.LANG)
    (Op : sig
      val opcode_at : L.code -> int -> int
      (** the numeric opcode at a pc: the indirect-dispatch target *)
    end) : S with type code = L.code = struct
  let calls = ref 0

  module Lang = struct
    include L
    module R = L.Step (Direct_ops)

    let threaded_code dcx globals d code =
      Array.init
        (Array.length (L.headers code))
        (fun pc ->
          let target = Op.opcode_at code pc in
          fun f ->
            incr calls;
            Threaded.charge d ~target;
            R.step_ref dcx globals f)
  end

  include Vm.Make (Lang)

  let step_ref_calls () = !calls
end

module Py =
  Make
    (Mtj_pylite.Vm.Lang)
    (struct
      let opcode_at (c : Mtj_pylite.Bytecode.code) pc =
        Mtj_pylite.Bytecode.tag c.Mtj_pylite.Bytecode.instrs.(pc)
    end)

module Rk =
  Make
    (Mtj_rklite.Kvm.Lang)
    (struct
      let opcode_at (c : Mtj_rklite.Kbytecode.code) pc =
        Mtj_rklite.Kbytecode.tag c.Mtj_rklite.Kbytecode.instrs.(pc)
    end)

(** The oracle for a registry language. *)
let of_lang : Mtj_benchmarks.Registry.lang -> (module S) = function
  | Mtj_benchmarks.Registry.Py -> (module Py)
  | Mtj_benchmarks.Registry.Rk -> (module Rk)

(** The same, as a plain VM (what the digest differentials take). *)
let vm_of lang : (module Vm.S) =
  let (module O) = of_lang lang in
  (module O)
