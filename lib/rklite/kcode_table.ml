(** Registry of compiled rklite code objects: one domain-local table,
    reset per VM, with ids starting at 1_000_000, disjoint from pylite
    ids (see {!Mtj_rjit.Code_table}). *)

include Mtj_rjit.Code_table.Make (struct
  type code = Kbytecode.code

  let id (c : code) = c.Kbytecode.id
  let first_id = 1_000_000
  let lang_name = "rk"
end)
