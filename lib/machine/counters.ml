open Mtj_core

type snapshot = {
  insns : int;
  cycles : float;
  branches : int;
  branch_misses : int;
  loads : int;
  stores : int;
  cache_misses : int;
}

(* Issue widths for code styles that are properties of the framework
   rather than of the hosted VM.  JIT trace code is dense straight-line
   code; the blackhole interpreter is pointer-chasing and serial (the
   paper's Table IV measures it at the lowest IPC of all phases); GC is
   a tight, cache-warm loop. *)
let width ~interp = function
  | Phase.Interpreter | Phase.Tracing | Phase.Native -> interp
  | Phase.Jit -> 1.95
  | Phase.Jit_call -> 1.75
  | Phase.Gc_minor | Phase.Gc_major -> 2.0
  | Phase.Blackhole -> 1.05

let widths ~interp =
  Array.init Phase.count (fun i -> width ~interp (Phase.of_index i))

let mispredict_penalty = 14.0
let miss_penalty = 18.0

(* The committed per-phase tallies live in the arrays.  On top of them
   sits a one-phase staging area: the scalar [s_*] fields always hold
   the current values for phase index [cur], and the array slots for
   [cur] are stale whenever [dirty] is set.  Every query flushes first,
   so readers never observe the split. *)
type t = {
  mutable width : float array;  (* issue width per phase index *)
  insns : int array;
  branches : int array;
  branch_misses : int array;
  loads : int array;
  stores : int array;
  cache_misses : int array;
  mutable cur : int;
  mutable s_insns : int;
  mutable s_branches : int;
  mutable s_branch_misses : int;
  mutable s_loads : int;
  mutable s_stores : int;
  mutable s_cache_misses : int;
  mutable dirty : bool;
  mutable flushes : int;
  mutable fast_bundles : int;
}

let create () =
  let n = Phase.count in
  {
    width = widths ~interp:2.0;
    insns = Array.make n 0;
    branches = Array.make n 0;
    branch_misses = Array.make n 0;
    loads = Array.make n 0;
    stores = Array.make n 0;
    cache_misses = Array.make n 0;
    cur = 0;
    s_insns = 0;
    s_branches = 0;
    s_branch_misses = 0;
    s_loads = 0;
    s_stores = 0;
    s_cache_misses = 0;
    dirty = false;
    flushes = 0;
    fast_bundles = 0;
  }

let set_interp_width t w = t.width <- widths ~interp:w

let flush t =
  if t.dirty then begin
    let i = t.cur in
    t.insns.(i) <- t.s_insns;
    t.branches.(i) <- t.s_branches;
    t.branch_misses.(i) <- t.s_branch_misses;
    t.loads.(i) <- t.s_loads;
    t.stores.(i) <- t.s_stores;
    t.cache_misses.(i) <- t.s_cache_misses;
    t.dirty <- false;
    t.flushes <- t.flushes + 1
  end

(* Point the staging area at phase index [i].  The loads below are
   bounds-checked on purpose: this is the only place an out-of-range
   index could enter the staged state. *)
let[@inline] select t i =
  if i <> t.cur then begin
    flush t;
    t.cur <- i;
    t.s_insns <- t.insns.(i);
    t.s_branches <- t.branches.(i);
    t.s_branch_misses <- t.branch_misses.(i);
    t.s_loads <- t.loads.(i);
    t.s_stores <- t.stores.(i);
    t.s_cache_misses <- t.cache_misses.(i)
  end

(* --- charging (Engine passes a cached Phase.index) --- *)

let[@inline] add_bundle t i ~n ~loads ~stores =
  select t i;
  t.s_insns <- t.s_insns + n;
  t.s_loads <- t.s_loads + loads;
  t.s_stores <- t.s_stores + stores;
  t.dirty <- true;
  t.fast_bundles <- t.fast_bundles + 1

let[@inline] add_branch t i ~mispredicted =
  select t i;
  t.s_insns <- t.s_insns + 1;
  t.s_branches <- t.s_branches + 1;
  if mispredicted then t.s_branch_misses <- t.s_branch_misses + 1;
  t.dirty <- true

let[@inline] add_cache_miss t i =
  select t i;
  t.s_cache_misses <- t.s_cache_misses + 1;
  t.dirty <- true

(* --- fast-path observability --- *)

let charge_flushes t = flush t; t.flushes
let fast_path_bundles t = t.fast_bundles

(* --- queries --- *)

let cycles_of t i ~insns ~branch_misses ~cache_misses =
  (float_of_int insns /. t.width.(i))
  +. (mispredict_penalty *. float_of_int branch_misses)
  +. (miss_penalty *. float_of_int cache_misses)

(* the staged scalars are phase [cur]'s current values, so this reads
   exact cycles without flushing *)
let phase_cycles t i =
  if i = t.cur then
    cycles_of t i ~insns:t.s_insns ~branch_misses:t.s_branch_misses
      ~cache_misses:t.s_cache_misses
  else
    cycles_of t i ~insns:t.insns.(i) ~branch_misses:t.branch_misses.(i)
      ~cache_misses:t.cache_misses.(i)

let total_cycles t =
  let c = ref 0.0 in
  for i = 0 to Phase.count - 1 do
    c := !c +. phase_cycles t i
  done;
  !c

let phase t p : snapshot =
  flush t;
  let i = Phase.index p in
  {
    insns = t.insns.(i);
    cycles = phase_cycles t i;
    branches = t.branches.(i);
    branch_misses = t.branch_misses.(i);
    loads = t.loads.(i);
    stores = t.stores.(i);
    cache_misses = t.cache_misses.(i);
  }

let total t : snapshot =
  flush t;
  let sum = Array.fold_left ( + ) 0 in
  {
    insns = sum t.insns;
    cycles = total_cycles t;
    branches = sum t.branches;
    branch_misses = sum t.branch_misses;
    loads = sum t.loads;
    stores = sum t.stores;
    cache_misses = sum t.cache_misses;
  }

let ipc (s : snapshot) = if s.cycles <= 0.0 then 0.0 else float_of_int s.insns /. s.cycles

let branch_mpki (s : snapshot) =
  if s.insns = 0 then 0.0
  else 1000.0 *. float_of_int s.branch_misses /. float_of_int s.insns

let branch_per_insn (s : snapshot) =
  if s.insns = 0 then 0.0
  else float_of_int s.branches /. float_of_int s.insns

let branch_miss_rate (s : snapshot) =
  if s.branches = 0 then 0.0
  else float_of_int s.branch_misses /. float_of_int s.branches
