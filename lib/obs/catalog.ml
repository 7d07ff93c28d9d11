(** The counter table: every scalar counter of an mtj-metrics document,
    declared once, with its JSON key, object, owning module, unit, value
    domain, doc line and getter.  {!Metrics} builds every run record
    (and the serve block's [shared_cache_stats]) with {!export};
    {!Validate} checks each counter against its domain and every
    {!relations} row; [test/golden/golden_counters.md] prints {!all}.
    Storage stays with the owner: the table only reads it. *)

module Counters = Mtj_machine.Counters
module Hstats = Mtj_rt.Hstats
module Gc_sim = Mtj_rt.Gc_sim
module Jitlog = Mtj_rjit.Jitlog
module Sharedcache = Mtj_rjit.Sharedcache

(** What the run block's counters read. *)
type run = {
  insns : int;
  cycles : float;
  ticks : int;
  charge_flushes : int;
  fast_path_bundles : int;
  hstats : Hstats.t;
}

(** An object holding counters, indexed by what its getters read. *)
type _ block =
  | Run : run block
  | Phase : Counters.snapshot block
  | Gc : Gc_sim.stats block
  | Jit : Jitlog.snapshot block
  | Residency : Jitlog.snapshot block
  | Trace : Jitlog.trace_row block
  | Shared_cache : Sharedcache.stats block

let block_name : type a. a block -> string = function
  | Run -> "run"
  | Phase -> "phases.<phase>"
  | Gc -> "gc"
  | Jit -> "jit"
  | Residency -> "jit.tier_residency"
  | Trace -> "jit.traces[]"
  | Shared_cache -> "serve.shared_cache_stats"

type owner = Engine | Jitlog | Hstats | Gc_sim | Sharedcache

let owner_name = function
  | Engine -> "Engine"
  | Jitlog -> "Jitlog"
  | Hstats -> "Hstats"
  | Gc_sim -> "Gc_sim"
  | Sharedcache -> "Sharedcache"

(** [Nat_or_null] accepts [null] from an exporter without the source;
    [Mark] is an int >= -1, where -1 means the event never happened. *)
type domain = Nat | Nat_or_null | Pos | Mark | Real | Rate

let domain_text = function
  | Nat -> "int >= 0"
  | Nat_or_null -> "int >= 0 or null"
  | Pos -> "int >= 1"
  | Mark -> "int >= -1 (-1: never)"
  | Real -> "float >= 0"
  | Rate -> "float in [0, 1]"

let lower_bound = function Pos -> 1 | Mark -> -1 | _ -> 0

type counter = {
  name : string;
  block : string;
  owner : owner;
  unit_ : string;
  domain : domain;
  doc : string;
}

(** The bare name in the run block, else ["<block>.<name>"]: how
    {!relations} name counters. *)
let path c = if c.block = "run" then c.name else c.block ^ "." ^ c.name

(** A counter with its getter, or the position of a structural key
    (label, sub-object, array) the object's exporter fills in. *)
type 'a row = Counter of counter * ('a -> Json.t) | Slot of string

(* the block fixes the type the getter reads *)
let counter domain (b : 'a block) owner name unit_ (get : 'a -> Json.t) doc =
  Counter ({ name; block = block_name b; owner; unit_; domain; doc }, get)

let int ?(domain = Nat) b owner name unit_ f =
  counter domain b owner name unit_ (fun x -> Json.Int (f x))

let real ?(domain = Real) b owner name unit_ f =
  counter domain b owner name unit_ (fun x -> Json.Float (f x))

let hstat name unit_ f =
  int ~domain:Nat_or_null Run Hstats name unit_ (fun r -> f r.hstats)

(** The table: each object's rows, in JSON key order. *)
let rows : type a. a block -> a row list = function
  | Run ->
      let nat = int Run Engine in
      [
        Slot "bench";
        Slot "config";
        Slot "status";
        nat "insns" "insns" (fun r -> r.insns) "simulated instructions retired";
        real Run Engine "cycles" "cycles" (fun r -> r.cycles)
          "simulated cycles";
        int ~domain:Nat_or_null Run Engine "ticks" "ticks" (fun r -> r.ticks)
          "dispatch-loop work units: application progress across VMs";
        nat "charge_flushes" "writebacks" (fun r -> r.charge_flushes)
          "staged-counter writebacks of the charging fast path";
        nat "fast_path_bundles" "bundles" (fun r -> r.fast_path_bundles)
          "bundles charged through the batched Counters fast path";
        hstat "imm_fast_path_hits" "ops" (fun h -> h.imm_fast_path_hits)
          "typed arithmetic entries that stayed on the immediate path";
        hstat "boxed_slow_path_hits" "ops" (fun h -> h.boxed_slow_path_hits)
          "typed arithmetic entries that fell through to a boxed slow path";
        hstat "typed_ops_total" "ops" (fun h -> h.typed_ops_total)
          "every counted typed arithmetic entry";
        hstat "frame_pool_reuses" "arrays" (fun h -> h.frame_pool_reuses)
          "locals/stack arrays recycled from a frame pool free list";
        hstat "dict_hash_skips" "probes" (fun h -> h.dict_hash_skips)
          "dict/set operations entered with a precomputed key hash";
        Slot "phases";
        Slot "gc";
        Slot "jit";
      ]
  | Phase ->
      let nat = int Phase Engine and num = real Phase Engine in
      [
        nat "insns" "insns" (fun s -> s.insns)
          "instructions retired in the phase";
        num "cycles" "cycles" (fun s -> s.cycles) "cycles charged to the phase";
        nat "branches" "branches" (fun s -> s.branches)
          "conditional and indirect branches";
        nat "branch_misses" "branches" (fun s -> s.branch_misses)
          "mispredicted branches";
        nat "loads" "accesses" (fun s -> s.loads) "memory loads";
        nat "stores" "accesses" (fun s -> s.stores) "memory stores";
        nat "cache_misses" "accesses" (fun s -> s.cache_misses)
          "loads and stores that missed the data cache";
        num "ipc" "insns/cycle" Counters.ipc "instructions per cycle";
        num "branch_mpki" "misses/Kinsn" Counters.branch_mpki
          "branch misses per 1000 instructions";
        real ~domain:Rate Phase Engine "branch_miss_rate" "ratio"
          Counters.branch_miss_rate "fraction of branches mispredicted";
        real ~domain:Rate Phase Engine "cache_miss_rate" "ratio"
          (fun s ->
            let mem = s.loads + s.stores in
            if mem = 0 then 0.0
            else float_of_int s.cache_misses /. float_of_int mem)
          "fraction of loads and stores that missed";
      ]
  | Gc ->
      let nat = int Gc Gc_sim in
      [
        nat "minor_collections" "collections"
          (fun g -> g.minor_collections) "nursery collections";
        nat "major_collections" "collections"
          (fun g -> g.major_collections) "full-heap collections";
        nat "allocated_objects" "objects" (fun g -> g.allocated_objects)
          "objects allocated on the simulated heap";
        nat "allocated_words" "words" (fun g -> g.allocated_words)
          "words allocated on the simulated heap";
        nat "promoted_objects" "objects" (fun g -> g.promoted_objects)
          "nursery survivors promoted to the old generation";
        nat "freed_objects" "objects" (fun g -> g.freed_objects)
          "objects reclaimed";
      ]
  | Jit ->
      let nat = int Jit Jitlog in
      [
        nat "num_traces" "traces" (fun j -> j.num_traces)
          "compiled traces, loops and bridges";
        nat "aborts" "recordings" (fun j -> j.aborts)
          "trace recordings abandoned; per reason in abort_reasons";
        Slot "abort_reasons";
        nat "deopts" "exits" (fun j -> j.deopts)
          "guard failures that left compiled code";
        nat "bridges_attached" "traces" (fun j -> j.bridges_attached)
          "bridges compiled onto failing guards";
        nat "blacklisted" "sites" (fun j -> j.blacklisted)
          "loop sites blacklisted after repeated aborts";
        nat "retiers" "traces" (fun j -> j.retiers)
          "tier-1 loops recompiled at tier 2 (promotions)";
        nat "translations" "traces" (fun j -> j.translations)
          "traces translated to closure-threaded code";
        nat "code_cache_hits" "entries" (fun j -> j.code_cache_hits)
          "trace entries served from this context's code cache";
        nat "shared_code_hits" "code objects" (fun j -> j.shared_code_hits)
          "code objects imported from the shared cache (serving only)";
        nat "code_cache_total_hits" "hits"
          (fun j -> j.code_cache_hits + j.shared_code_hits)
          "local plus shared hits, derived at export";
        nat "interp_translations" "code objects"
          (fun j -> j.interp_translations)
          "interpreter code objects translated to threaded steps";
        nat "threaded_code_hits" "switches" (fun j -> j.threaded_code_hits)
          "interpreter code switches served from the threaded-code cache";
        nat "tier1_compiles" "traces" (fun j -> j.tier1_compiles)
          "baseline-tier trace compiles";
        nat "tier2_compiles" "traces" (fun j -> j.tier2_compiles)
          "optimizing-tier trace compiles";
        nat "demotions" "traces" (fun j -> j.demotions)
          "optimized loops recompiled back at tier 1";
        int ~domain:Mark Jit Jitlog "first_entry_insns" "insns"
          (fun j -> j.first_entry_insns)
          "instructions retired before the first compiled-trace entry";
        nat "seeded_sites" "sites" (fun j -> j.seeded_sites)
          "loop sites seeded from an imported trace profile (serving only)";
        Slot "tier_residency";
        nat "total_ir_compiled" "IR ops" (fun j -> j.total_ir_compiled)
          "IR nodes compiled, debug markers excluded (Figure 6a)";
        nat "total_dynamic_ir" "IR ops" (fun j -> j.total_dynamic_ir)
          "IR node executions, debug markers excluded (Figure 6c)";
        Slot "traces";
      ]
  | Residency ->
      let nat = int Residency Jitlog in
      [
        nat "tier1_entries" "entries" (fun j -> j.tier1_entries)
          "trace entries at tier 1";
        nat "tier2_entries" "entries" (fun j -> j.tier2_entries)
          "trace entries at tier 2";
        nat "tier1_dynamic_ir" "IR ops" (fun j -> j.tier1_dynamic_ir)
          "IR executions at tier 1, debug markers included";
        nat "tier2_dynamic_ir" "IR ops" (fun j -> j.tier2_dynamic_ir)
          "IR executions at tier 2, debug markers included";
      ]
  | Trace ->
      let nat = int Trace Jitlog in
      [
        nat "id" "id" (fun t -> t.id) "trace id";
        Slot "kind";
        int ~domain:Pos Trace Jitlog "tier" "tier" (fun t -> t.tier)
          "compile tier: 1 baseline, 2 optimizing";
        nat "loop_code" "id" (fun t -> t.loop_code)
          "code object of the loop the trace belongs to";
        nat "static_ops" "IR ops" (fun t -> t.static_ops)
          "ops in the compiled trace";
        nat "entries" "entries" (fun t -> t.entries)
          "times the trace was entered";
        nat "dynamic_ir" "IR ops" (fun t -> t.dynamic_ir)
          "op executions, debug markers included";
        int ~domain:Pos Trace Jitlog "translations" "builds"
          (fun t -> t.translations)
          "threaded-code builds; every registered trace is translated";
        nat "cache_hits" "entries" (fun t -> t.cache_hits)
          "entries served from the code cache";
        nat "deopts" "exits" (fun t -> t.deopts)
          "guard-fail exits taken from the trace";
        nat "bridges" "traces" (fun t -> t.bridges)
          "bridges attached to the trace's guards";
      ]
  | Shared_cache ->
      let nat = int Shared_cache Sharedcache in
      [
        nat "shared_hits" "lookups" (fun s -> s.shared_hits)
          "hits on entries published by another context";
        nat "local_hits" "lookups" (fun s -> s.local_hits)
          "hits on entries the looking-up context published";
        nat "misses" "lookups" (fun s -> s.misses)
          "lookups that found no entry";
        nat "publications" "entries" (fun s -> s.publications)
          "first-writer-wins publications";
        nat "invalidations" "entries" (fun s -> s.invalidations)
          "entries dropped by key";
        nat "evictions" "entries" (fun s -> s.evictions)
          "LRU victims of over-capacity publications";
        nat "requeues" "entries" (fun s -> s.requeues)
          "publications of previously evicted keys";
        nat "quota_rejections" "publications" (fun s -> s.quota_rejections)
          "publications refused at the tenant quota";
        nat "profile_publications" "profiles" (fun s -> s.profile_publications)
          "trace profiles attached to entries";
        nat "seeded_imports" "lookups" (fun s -> s.seeded_imports)
          "hits that also returned a trace profile";
        nat "contention" "lock attempts" (fun s -> s.contention)
          "shard locks found held";
      ]

let counters b =
  List.filter_map (function Counter (c, _) -> Some c | Slot _ -> None) (rows b)

(** Every key {!export} writes for the object. *)
let keys b =
  List.map (function Counter (c, _) -> c.name | Slot s -> s) (rows b)

(** Every counter, in table order. *)
let all =
  List.concat
    [ counters Run; counters Phase; counters Gc; counters Jit;
      counters Residency; counters Trace; counters Shared_cache ]

(** The object for one source value; [slots] give the structural keys. *)
let export b x ~slots =
  let field = function
    | Counter (c, get) -> (c.name, get x)
    | Slot s -> (
        match List.assoc_opt s slots with
        | Some v -> (s, v)
        | None -> invalid_arg ("Catalog.export: no value for " ^ s))
  in
  Json.Obj (List.map field (rows b))

(** A cross-counter invariant over a run record, on {!path}s. *)
type relation =
  | Sum of string * string * string  (** [a + b = total] *)
  | Le of string * string  (** [a <= b] *)
  | Implies_pos of string * string  (** [a > 0 => b > 0] *)

let relations =
  [
    (* each compile is one tier's; each typed op takes one path; a code
       lookup is resolved by exactly one of the two caches *)
    Sum ("jit.tier1_compiles", "jit.tier2_compiles", "jit.num_traces");
    Sum ("imm_fast_path_hits", "boxed_slow_path_hits", "typed_ops_total");
    Sum
      ( "jit.code_cache_hits",
        "jit.shared_code_hits",
        "jit.code_cache_total_hits" );
    (* a promotion recompiles a tier-1 loop, a demotion a tier-2 one;
       every registered trace is translated *)
    Le ("jit.retiers", "jit.tier1_compiles");
    Le ("jit.demotions", "jit.tier2_compiles");
    Le ("jit.num_traces", "jit.translations");
    (* the first trace entry happens within the run; each counted host
       fast path accompanies at least one simulated instruction *)
    Le ("jit.first_entry_insns", "insns");
    Le ("typed_ops_total", "insns");
    Le ("frame_pool_reuses", "insns");
    Le ("dict_hash_skips", "insns");
    (* the threaded cache hits only what was translated into it;
       exporting the counters writes the staged state back *)
    Implies_pos ("jit.threaded_code_hits", "jit.interp_translations");
    Implies_pos ("insns", "charge_flushes");
  ]

let relation_text = function
  | Sum (a, b, t) -> Printf.sprintf "%s + %s = %s" a b t
  | Le (a, b) -> Printf.sprintf "%s <= %s" a b
  | Implies_pos (a, b) -> Printf.sprintf "%s > 0 => %s > 0" a b

let operands = function
  | Sum (a, b, t) -> [ a; b; t ]
  | Le (a, b) | Implies_pos (a, b) -> [ a; b ]

(** [lookup run path]: the integer at [path] in a run record. *)
let lookup run path =
  List.fold_left
    (fun j key -> Option.bind j (Json.member key))
    (Some run)
    (String.split_on_char '.' path)
  |> fun v -> Option.bind v Json.get_int

(** The relations a run record breaks; one with an absent or [null]
    operand is skipped. *)
let violations run =
  List.filter
    (fun rel ->
      match (rel, List.map (lookup run) (operands rel)) with
      | Sum _, [ Some a; Some b; Some t ] -> a + b <> t
      | Le _, [ Some a; Some b ] -> a > b
      | Implies_pos _, [ Some a; Some b ] -> a > 0 && b <= 0
      | _ -> false)
    relations
