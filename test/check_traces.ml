(** The define-before-use check ({!Mtj_rjit.Opt.verify}) as a test
    assertion: over one op sequence, or over every trace a run
    compiled. *)

open Mtj_rjit

let ops ~what (ops : Ir.op array) ~entry_slots ~loop_base =
  match Opt.verify ops ~entry_slots ~loop_base with
  | [] -> ()
  | (i, r) :: _ as all ->
      Alcotest.failf "%s: %d dangling uses, first r%d at op %d: %s" what
        (List.length all) r i
        (Format.asprintf "%a" Ir.pp_op ops.(i))

let jitlog ~what (jl : Jitlog.t) =
  List.iter
    (fun (tr : Ir.trace) ->
      ops
        ~what:(Printf.sprintf "%s trace %d" what tr.Ir.trace_id)
        tr.Ir.ops ~entry_slots:tr.Ir.entry_slots ~loop_base:tr.Ir.loop_base)
    (Jitlog.traces jl)
