(** The PyPy-Log equivalent (Sec. III).

    Records every compiled trace (loops and bridges) with its IR, the
    bytecode merge points, the per-operation assembly footprint, and the
    dynamic execution counts maintained by the executor.  The JIT-IR-level
    characterization (Figures 6, 7, 8, 9) is computed from here. *)

(* the snapshot types come first, so that an unqualified field access on
   a log of unknown type still resolves to [t] *)
type trace_row = {
  id : int;
  kind : string;
  tier : int;
  loop_code : int;
  static_ops : int;
  entries : int;
  dynamic_ir : int;
  translations : int;
  cache_hits : int;
  deopts : int;
  bridges : int;
}

type snapshot = {
  num_traces : int;
  aborts : int;
  abort_reasons : (string * int) list;
  deopts : int;
  bridges_attached : int;
  blacklisted : int;
  retiers : int;
  translations : int;
  code_cache_hits : int;
  shared_code_hits : int;
  interp_translations : int;
  threaded_code_hits : int;
  tier1_compiles : int;
  tier2_compiles : int;
  demotions : int;
  first_entry_insns : int;
  seeded_sites : int;
  tier1_entries : int;
  tier2_entries : int;
  tier1_dynamic_ir : int;
  tier2_dynamic_ir : int;
  total_ir_compiled : int;
  total_dynamic_ir : int;
  rows : trace_row list;
}

(* documented in jitlog.mli *)
type t = {
  mutable traces : Ir.trace list;  (* newest first *)
  mutable next_trace_id : int;
  mutable aborts : int;
  mutable abort_reasons : (string * int) list;
  mutable blacklisted : int;
  mutable deopts : int;
  mutable bridges_attached : int;
  mutable retiers : int;
  mutable translations : int;
  mutable code_cache_hits : int;
  mutable shared_code_hits : int;
  mutable interp_translations : int;
  mutable threaded_code_hits : int;
  mutable tier1_compiles : int;
  mutable tier2_compiles : int;
  mutable demotions : int;
  mutable first_entry_insns : int;
  mutable seeded_sites : int;
}

let create () =
  {
    traces = [];
    next_trace_id = 0;
    aborts = 0;
    abort_reasons = [];
    blacklisted = 0;
    deopts = 0;
    bridges_attached = 0;
    retiers = 0;
    translations = 0;
    code_cache_hits = 0;
    shared_code_hits = 0;
    interp_translations = 0;
    threaded_code_hits = 0;
    tier1_compiles = 0;
    tier2_compiles = 0;
    demotions = 0;
    first_entry_insns = -1;
    seeded_sites = 0;
  }

let fresh_trace_id t =
  let id = t.next_trace_id in
  t.next_trace_id <- id + 1;
  id

let register t trace = t.traces <- trace :: t.traces

let find t id =
  List.find_opt (fun (tr : Ir.trace) -> tr.Ir.trace_id = id) t.traces

let traces t = List.rev t.traces
let num_traces t = List.length t.traces

let record_abort t reason =
  t.aborts <- t.aborts + 1;
  let n = Option.value ~default:0 (List.assoc_opt reason t.abort_reasons) in
  t.abort_reasons <- (reason, n + 1) :: List.remove_assoc reason t.abort_reasons

let record_deopt t = t.deopts <- t.deopts + 1
let record_bridge t = t.bridges_attached <- t.bridges_attached + 1
let record_blacklist t = t.blacklisted <- t.blacklisted + 1
let record_retier t = t.retiers <- t.retiers + 1
let record_translation t = t.translations <- t.translations + 1
let record_code_cache_hit t = t.code_cache_hits <- t.code_cache_hits + 1

let record_shared_code_hits t ~n =
  if n < 0 then invalid_arg "Jitlog.record_shared_code_hits: n < 0";
  t.shared_code_hits <- t.shared_code_hits + n

let record_interp_translation t =
  t.interp_translations <- t.interp_translations + 1

let record_threaded_code_hit t =
  t.threaded_code_hits <- t.threaded_code_hits + 1

let record_tier_compile t ~tier =
  if tier <= 1 then t.tier1_compiles <- t.tier1_compiles + 1
  else t.tier2_compiles <- t.tier2_compiles + 1

let record_demotion t = t.demotions <- t.demotions + 1

let record_first_entry t ~insns =
  if t.first_entry_insns < 0 then t.first_entry_insns <- insns

let record_seeded_site t = t.seeded_sites <- t.seeded_sites + 1

(* --- aggregate statistics for the figures --- *)

(* counted IR nodes exclude pure debug markers, as the paper's counts do *)
let countable (op : Ir.op) =
  match op.Ir.opcode with Ir.Debug_merge_point _ | Ir.Label -> false | _ -> true

(** total IR nodes compiled (Figure 6a) *)
let total_ir_compiled t =
  List.fold_left
    (fun acc (tr : Ir.trace) ->
      acc + Array.length (Array.of_seq (Seq.filter countable (Array.to_seq tr.Ir.ops))))
    0 t.traces

(** total dynamic IR node executions (Figure 6c numerator) *)
let total_dynamic_ir t =
  List.fold_left
    (fun acc (tr : Ir.trace) ->
      let s = ref 0 in
      Array.iteri
        (fun i op -> if countable op then s := !s + tr.Ir.op_exec.(i))
        tr.Ir.ops;
      acc + !s)
    0 t.traces

(** fraction (in %) of compiled IR nodes that account for [coverage]
    (e.g. 0.95) of all dynamic IR executions (Figure 6b) *)
let hot_ir_fraction t ~coverage =
  let counts = ref [] in
  let compiled = ref 0 in
  List.iter
    (fun (tr : Ir.trace) ->
      Array.iteri
        (fun i op ->
          if countable op then begin
            incr compiled;
            counts := tr.Ir.op_exec.(i) :: !counts
          end)
        tr.Ir.ops)
    t.traces;
  let sorted = List.sort (fun a b -> Int.compare b a) !counts in
  let total = List.fold_left ( + ) 0 sorted in
  if total = 0 || !compiled = 0 then 0.0
  else begin
    let target = coverage *. float_of_int total in
    let rec go acc n = function
      | [] -> n
      | c :: rest ->
          let acc = acc +. float_of_int c in
          if acc >= target then n + 1 else go acc (n + 1) rest
    in
    let needed = go 0.0 0 sorted in
    100.0 *. float_of_int needed /. float_of_int !compiled
  end

(** dynamic execution count per IR node-type name (Figure 8) *)
let dynamic_by_node_type t =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (tr : Ir.trace) ->
      Array.iteri
        (fun i op ->
          if countable op then begin
            let k = Ir.node_type op.Ir.opcode in
            let cur = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
            Hashtbl.replace tbl k (cur + tr.Ir.op_exec.(i))
          end)
        tr.Ir.ops)
    t.traces;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

(** dynamic execution count per IR category (Figure 7) *)
let dynamic_by_category t =
  let counts = Array.make (List.length Ir.all_cats) 0 in
  let idx c =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = c then i else go (i + 1) rest
    in
    go 0 Ir.all_cats
  in
  List.iter
    (fun (tr : Ir.trace) ->
      Array.iteri
        (fun i op ->
          if countable op then begin
            let c = idx (Ir.category op.Ir.opcode) in
            if c >= 0 then counts.(c) <- counts.(c) + tr.Ir.op_exec.(i)
          end)
        tr.Ir.ops)
    t.traces;
  List.mapi (fun i c -> (c, counts.(i))) Ir.all_cats

(** mean x86 instructions per IR node type, dynamically weighted
    (Figure 9) *)
let x86_per_node_type t =
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (tr : Ir.trace) ->
      Array.iteri
        (fun i op ->
          if countable op then begin
            let k = Ir.node_type op.Ir.opcode in
            let x86 = Ir.x86_count op.Ir.opcode in
            let execs, insns =
              Option.value ~default:(0, 0) (Hashtbl.find_opt tbl k)
            in
            Hashtbl.replace tbl k
              (execs + tr.Ir.op_exec.(i), insns + (x86 * max 1 tr.Ir.op_exec.(i)))
          end)
        tr.Ir.ops)
    t.traces;
  Hashtbl.fold
    (fun k (execs, insns) acc ->
      if execs > 0 then (k, float_of_int insns /. float_of_int execs) :: acc
      else (k, float_of_int insns) :: acc)
    tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* --- snapshot --- *)

let trace_row (tr : Ir.trace) : trace_row =
  let kind, loop_code =
    match tr.Ir.kind with
    | Ir.Loop { loop_code; _ } -> ("loop", loop_code)
    | Ir.Bridge { loop_code; _ } -> ("bridge", loop_code)
  in
  {
    id = tr.Ir.trace_id;
    kind;
    tier = tr.Ir.tier;
    loop_code;
    static_ops = Array.length tr.Ir.ops;
    entries = tr.Ir.exec_count;
    dynamic_ir = Array.fold_left ( + ) 0 tr.Ir.op_exec;
    translations = tr.Ir.translations;
    cache_hits = tr.Ir.cache_hits;
    deopts = tr.Ir.deopts;
    bridges = tr.Ir.bridges;
  }

(* per-tier residency is summed from the rows, so it reconciles exactly
   with them in the metrics document *)
let snapshot t : snapshot =
  let rows = List.map trace_row (traces t) in
  let sum f tier1 =
    List.fold_left
      (fun acc r -> if r.tier <= 1 = tier1 then acc + f r else acc)
      0 rows
  in
  {
    num_traces = num_traces t;
    aborts = t.aborts;
    abort_reasons = List.sort compare t.abort_reasons;
    deopts = t.deopts;
    bridges_attached = t.bridges_attached;
    blacklisted = t.blacklisted;
    retiers = t.retiers;
    translations = t.translations;
    code_cache_hits = t.code_cache_hits;
    shared_code_hits = t.shared_code_hits;
    interp_translations = t.interp_translations;
    threaded_code_hits = t.threaded_code_hits;
    tier1_compiles = t.tier1_compiles;
    tier2_compiles = t.tier2_compiles;
    demotions = t.demotions;
    first_entry_insns = t.first_entry_insns;
    seeded_sites = t.seeded_sites;
    tier1_entries = sum (fun r -> r.entries) true;
    tier2_entries = sum (fun r -> r.entries) false;
    tier1_dynamic_ir = sum (fun r -> r.dynamic_ir) true;
    tier2_dynamic_ir = sum (fun r -> r.dynamic_ir) false;
    total_ir_compiled = total_ir_compiled t;
    total_dynamic_ir = total_dynamic_ir t;
    rows;
  }
