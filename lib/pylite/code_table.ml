(** Registry of compiled pylite code objects: one domain-local table,
    reset per VM, with ids starting at zero (see
    {!Mtj_rjit.Code_table}). *)

include Mtj_rjit.Code_table.Make (struct
  type code = Bytecode.code

  let id (c : code) = c.Bytecode.id
  let first_id = 0
  let lang_name = "py"
end)
