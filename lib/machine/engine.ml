open Mtj_core

exception Budget_exhausted

type listener = insns:int -> Annot.t -> unit

type t = {
  cfg : Config.t;
  predictor : Predictor.t;
  dcache : Dcache.t;
  counters : Counters.t;
  mutable phase : Phase.t;
  mutable phase_idx : int;  (* Phase.index phase, cached for the
                               counter fast path *)
  mutable phase_stack : Phase.t list;
  mutable listeners : listener array;  (* first n_listeners slots live;
                                          newest listener last *)
  mutable n_listeners : int;
  mutable insns : int;
}

let create ?(config = Config.default) () =
  {
    cfg = config;
    predictor = Predictor.create ();
    dcache = Dcache.create ();
    counters = Counters.create ();
    phase = Phase.Interpreter;
    phase_idx = Phase.index Phase.Interpreter;
    phase_stack = [];
    listeners = [||];
    n_listeners = 0;
    insns = 0;
  }

let set_interp_width t w =
  if t.insns > 0 then
    invalid_arg "Engine.set_interp_width: instructions already charged";
  Counters.set_interp_width t.counters w

let[@inline] bump_insns t n =
  t.insns <- t.insns + n;
  if t.insns > t.cfg.Config.insn_budget then raise Budget_exhausted

let[@inline] emit t cost =
  let n = Cost.total cost in
  if n > 0 then begin
    Counters.add_bundle t.counters t.phase_idx ~n ~loads:cost.Cost.load
      ~stores:cost.Cost.store;
    bump_insns t n
  end

let emit_static t costs ~lo ~hi =
  if lo < 0 || hi > Array.length costs || lo > hi then
    invalid_arg "Engine.emit_static";
  for i = lo to hi - 1 do
    emit t (Array.unsafe_get costs i)
  done

let[@inline] charge_branch t ~correct =
  Counters.add_branch t.counters t.phase_idx ~mispredicted:(not correct);
  bump_insns t 1

let branch t ~site ~taken =
  charge_branch t ~correct:(Predictor.conditional t.predictor ~site ~taken)

let branch_indirect t ~site ~target =
  charge_branch t ~correct:(Predictor.indirect t.predictor ~site ~target)

let mem_access t ~addr ~write =
  let hit = Dcache.access t.dcache ~addr in
  let stores = Bool.to_int write in
  Counters.add_bundle t.counters t.phase_idx ~n:1 ~loads:(1 - stores) ~stores;
  if not hit then Counters.add_cache_miss t.counters t.phase_idx;
  bump_insns t 1

let annot t a =
  let ls = t.listeners in
  (* newest-first, matching the prepend order the old append-built array
     delivered in *)
  for i = t.n_listeners - 1 downto 0 do
    (Array.unsafe_get ls i) ~insns:t.insns a
  done

let push_phase t p =
  annot t (Annot.Phase_push p);
  t.phase_stack <- t.phase :: t.phase_stack;
  t.phase <- p;
  t.phase_idx <- Phase.index p

let pop_phase t =
  match t.phase_stack with
  | [] -> invalid_arg "Engine.pop_phase: empty phase stack"
  | p :: rest ->
      let popped = t.phase in
      t.phase <- p;
      t.phase_stack <- rest;
      t.phase_idx <- Phase.index p;
      (* delivered after restoring, so listeners reading [current_phase]
         see the parent phase while the annotation names the popped one *)
      annot t (Annot.Phase_pop popped)

let current_phase t = t.phase

let in_phase t p f =
  push_phase t p;
  match f () with
  | v ->
      pop_phase t;
      v
  | exception e ->
      pop_phase t;
      raise e

(* attachment is rare, delivery is the hot path: grow a capacity-doubled
   buffer instead of rebuilding the array per attach *)
let add_listener t l =
  let n = t.n_listeners in
  let cap = Array.length t.listeners in
  if n = cap then begin
    let grown = Array.make (if cap = 0 then 4 else 2 * cap) l in
    Array.blit t.listeners 0 grown 0 n;
    t.listeners <- grown
  end;
  t.listeners.(n) <- l;
  t.n_listeners <- n + 1

let total_insns t = t.insns
let total_cycles t = Counters.total_cycles t.counters
let counters t = t.counters
let charge_flushes t = Counters.charge_flushes t.counters
let fast_path_bundles t = Counters.fast_path_bundles t.counters
let config t = t.cfg
