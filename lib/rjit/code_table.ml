(** Registry of a hosted language's compiled code objects, resolving the
    [code_ref]s carried by function values and resume snapshots.

    One table per language per domain: a VM is created, compiled and
    run on one domain, and resolves only its own code objects, so
    domains never share entries (and never race).  [reset] — called
    from [Vm.Make.create] — restarts the id sequence at the language's
    [first_id], which matters because code ids feed branch-predictor
    site hashes in the driver: with a per-VM id sequence, a run's
    simulated behaviour is independent of whatever ran before it, on
    any domain.  Entries of a previous VM on the same domain are dropped
    by the reset; they are unreachable by then (a VM only resolves
    code_refs while it runs).

    Beside the code objects the table keeps the threaded-dispatch
    translation cache ({!Threaded}), keyed by code id.  Step closures
    bind the translating VM's engine and context, so the cache is
    dropped whenever the id sequence restarts: on [reset] and on
    [import_bundle]. *)

(** What the table needs to know about the language's code objects. *)
module type CODE = sig
  type code

  val id : code -> int
  (** the code object's [code_ref] *)

  val first_id : int
  (** where every VM's id sequence starts; languages use disjoint
      ranges (pylite 0, rklite 1_000_000) *)

  val lang_name : string
  (** the language's short name ("py", "rk"): the shared cache's key
      prefix and the subject of lookup errors *)
end

module type S = sig
  include CODE

  type threaded = (Direct_ops.t, code) Threaded.step array
  (** a code object's threaded-dispatch translation *)

  val reset : unit -> unit
  val fresh_id : unit -> int
  val register : code -> unit

  val lookup : int -> code
  (** raises [Invalid_argument] naming the language for an unknown ref *)

  val lookup_threaded : int -> threaded option
  val store_threaded : int -> threaded -> unit

  val export_bundle : unit -> code list * int
  (** every registered code object, sorted by id, and the id watermark:
      snapshot right after a fresh reset+compile *)

  val import_bundle : code list -> next_id:int -> unit
  (** replace the table's contents with an exported bundle (dropping
      the threaded cache) *)
end

module Make (C : CODE) : S with type code = C.code = struct
  include C

  type threaded = (Direct_ops.t, code) Threaded.step array

  type store = {
    table : (int, code) Hashtbl.t;
    threaded : (int, threaded) Hashtbl.t;
    mutable next_id : int;
  }

  let store_key : store Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { table = Hashtbl.create 256; threaded = Hashtbl.create 64;
          next_id = first_id })

  let reset () =
    let s = Domain.DLS.get store_key in
    Hashtbl.reset s.table;
    Hashtbl.reset s.threaded;
    s.next_id <- first_id

  let fresh_id () =
    let s = Domain.DLS.get store_key in
    let id = s.next_id in
    s.next_id <- id + 1;
    id

  let register c = Hashtbl.replace (Domain.DLS.get store_key).table (id c) c

  let lookup i =
    match Hashtbl.find_opt (Domain.DLS.get store_key).table i with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "unknown %s code_ref %d" lang_name i)

  let lookup_threaded i = Hashtbl.find_opt (Domain.DLS.get store_key).threaded i

  let store_threaded i (s : threaded) =
    Hashtbl.replace (Domain.DLS.get store_key).threaded i s

  (* --- compiled-program bundles (the shared serving cache) ---

     Bytecode is immutable and its constants are immediate scalars, so a
     freshly compiled program's table contents — every code object plus
     the id watermark — form a context-free artifact that can cross
     domains.  Importing rebuilds an identical table state on any
     domain, so a warm request resolves the very same code_refs a cold
     compile would have produced (ids are deterministic because the
     sequence always restarts at [first_id]). *)

  let export_bundle () =
    let s = Domain.DLS.get store_key in
    let codes = Hashtbl.fold (fun _ c acc -> c :: acc) s.table [] in
    (List.sort (fun a b -> compare (id a) (id b)) codes, s.next_id)

  let import_bundle codes ~next_id =
    let s = Domain.DLS.get store_key in
    Hashtbl.reset s.table;
    Hashtbl.reset s.threaded;
    List.iter (fun c -> Hashtbl.replace s.table (id c) c) codes;
    s.next_id <- next_id
end
