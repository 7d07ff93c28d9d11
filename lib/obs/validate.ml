type trace_stats = {
  events : int;
  duration_tracks : int;
  counter_tracks : int;
  instants : int;
  auto_closed : int;
  phase_self_cycles : (string * float) list;
}

exception Invalid of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Invalid msg)) fmt

let need what = function Some v -> v | None -> fail "missing %s" what

let str_field j key =
  need (key ^ " (string)") (Option.bind (Json.member key j) Json.get_str)

let int_field j key =
  need (key ^ " (int)") (Option.bind (Json.member key j) Json.get_int)

let num_field j key =
  need (key ^ " (number)") (Option.bind (Json.member key j) Json.get_num)

let arr_field j key =
  need (key ^ " (array)") (Option.bind (Json.member key j) Json.get_arr)

let check_schema j expected =
  let s = str_field j "schema" in
  if s <> expected then fail "schema %S, expected %S" s expected

let wrap f j = match f j with v -> Ok v | exception Invalid msg -> Error msg

(* --- chrome trace --- *)

let trace_exn j =
  check_schema j "mtj-trace/1";
  let events = arr_field j "traceEvents" in
  (* per-tid span stacks: tid -> (name, begin ts) list *)
  let stacks : (int, (string * float) list) Hashtbl.t = Hashtbl.create 8 in
  let counter_names = Hashtbl.create 8 in
  let duration_tids = Hashtbl.create 8 in
  let instants = ref 0 in
  let auto_closed = ref 0 in
  let prev_ts = ref neg_infinity in
  (* innermost-phase attribution over the combined phase/gc stream *)
  let phase_self : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let phase_stack = ref [] in
  let phase_last_ts = ref 0.0 in
  let accrue ts =
    (match !phase_stack with
    | [] -> ()
    | top :: _ ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt phase_self top) in
        Hashtbl.replace phase_self top (prev +. (ts -. !phase_last_ts)));
    phase_last_ts := ts
  in
  let n = ref 0 in
  List.iteri
    (fun i ev ->
      incr n;
      let ph = str_field ev "ph" in
      if ph = "M" then ()
      else begin
        let ts = num_field ev "ts" in
        if Float.is_nan ts then fail "event %d: NaN timestamp" i;
        if ts < !prev_ts then
          fail "event %d: timestamp %g before previous %g" i ts !prev_ts;
        prev_ts := ts;
        let tid = int_field ev "tid" in
        match ph with
        | "B" ->
            let name = str_field ev "name" in
            let cat = str_field ev "cat" in
            Hashtbl.replace duration_tids tid ();
            let st =
              Option.value ~default:[] (Hashtbl.find_opt stacks tid)
            in
            Hashtbl.replace stacks tid ((name, ts) :: st);
            if cat = "phase" || cat = "gc" then begin
              accrue ts;
              phase_stack := name :: !phase_stack
            end
        | "E" -> (
            let name = str_field ev "name" in
            let cat = str_field ev "cat" in
            (match Option.bind (Json.member "args" ev)
                     (Json.member "auto_closed")
             with
            | Some (Json.Bool true) -> incr auto_closed
            | _ -> ());
            (match Hashtbl.find_opt stacks tid with
            | Some ((open_name, _) :: rest) ->
                if open_name <> name then
                  fail "event %d: E %S closes open span %S on tid %d" i name
                    open_name tid;
                Hashtbl.replace stacks tid rest
            | _ -> fail "event %d: E %S on tid %d with no open span" i name tid);
            match cat with
            | "phase" | "gc" -> (
                accrue ts;
                match !phase_stack with
                | top :: rest ->
                    if top <> name then
                      fail "event %d: phase E %S but innermost phase is %S" i
                        name top;
                    phase_stack := rest
                | [] -> fail "event %d: phase E %S with empty phase stack" i name)
            | _ -> ())
        | "i" ->
            ignore (str_field ev "name");
            incr instants
        | "C" ->
            let name = str_field ev "name" in
            let v =
              need "counter args.value"
                (Option.bind
                   (Option.bind (Json.member "args" ev) (Json.member "value"))
                   Json.get_num)
            in
            if Float.is_nan v || v = Float.infinity || v < 0.0 then
              fail "event %d: counter %S has bad value %g" i name v;
            Hashtbl.replace counter_names name ()
        | ph -> fail "event %d: unknown ph %S" i ph
      end)
    events;
  Hashtbl.iter
    (fun tid st ->
      match st with
      | [] -> ()
      | (name, _) :: _ -> fail "span %S left open on tid %d" name tid)
    stacks;
  if !phase_stack <> [] then fail "phase stack not empty at end of stream";
  let phase_self_cycles =
    List.filter_map
      (fun p ->
        let name = Mtj_core.Phase.name p in
        Option.map (fun c -> (name, c)) (Hashtbl.find_opt phase_self name))
      Mtj_core.Phase.all
  in
  {
    events = !n;
    duration_tracks = Hashtbl.length duration_tids;
    counter_tracks = Hashtbl.length counter_names;
    instants = !instants;
    auto_closed = !auto_closed;
    phase_self_cycles;
  }

let trace = wrap trace_exn

(* --- metrics --- *)

(* every counter the table declares for [block], against its domain *)
let check_counters where block obj =
  List.iter
    (fun (c : Catalog.counter) ->
      let bad () =
        fail "%s: %s is not %s" where c.name (Catalog.domain_text c.domain)
      in
      match (Json.member c.name obj, c.domain) with
      | None, _ -> fail "%s: missing %s" where c.name
      | Some Json.Null, Catalog.Nat_or_null -> ()
      | Some v, (Catalog.Real | Catalog.Rate) -> (
          match Json.get_num v with
          | Some x when x >= 0.0 && (x <= 1.0 || c.domain = Catalog.Real) -> ()
          | _ -> bad ())
      | Some v, d -> (
          match Json.get_int v with
          | Some n when n >= Catalog.lower_bound d -> ()
          | _ -> bad ()))
    (Catalog.counters block)

(* per-phase insns sum to the total, which is the run's; and every
   memory access charges through the staged bundle path, so a run with
   loads or stores reports at least one fast-path bundle *)
let check_phases run j =
  let phases =
    need "phases (object)" (Option.bind (Json.member "phases" j) Json.get_obj)
  in
  let total = need (run ^ " phases.total") (List.assoc_opt "total" phases) in
  let sum = ref 0 in
  List.iter
    (fun (name, snap) ->
      check_counters (run ^ " phase " ^ name) Catalog.Phase snap;
      if name <> "total" then sum := !sum + int_field snap "insns")
    phases;
  let total_insns = int_field total "insns" in
  if !sum <> total_insns then
    fail "%s: per-phase insns sum %d <> total %d" run !sum total_insns;
  if total_insns <> int_field j "insns" then
    fail "%s: phases.total.insns %d <> run insns %d" run total_insns
      (int_field j "insns");
  let mem = int_field total "loads" + int_field total "stores" in
  if int_field j "fast_path_bundles" = 0 && mem > 0 then
    fail "%s: %d loads+stores but no fast-path bundles" run mem

(* the jit block's counters, then what spans its structure: per-tier
   residency and the local code-cache hits are exactly the trace-row
   sums (each hit is attributed to one row) *)
let check_jit run jit =
  check_counters (run ^ " jit") Catalog.Jit jit;
  let residency =
    need (run ^ " jit.tier_residency") (Json.member "tier_residency" jit)
  in
  check_counters (run ^ " jit.tier_residency") Catalog.Residency residency;
  let rows = arr_field jit "traces" in
  List.iteri
    (fun i tr ->
      check_counters (Printf.sprintf "%s trace row %d" run i) Catalog.Trace tr;
      match str_field tr "kind" with
      | "loop" | "bridge" -> ()
      | k -> fail "%s: trace row %d has kind %S" run i k)
    rows;
  let sum key tier =
    List.fold_left
      (fun acc tr ->
        if tier (int_field tr "tier") then acc + int_field tr key else acc)
      0 rows
  in
  List.iter
    (fun (obj, key, row_key, tier) ->
      let v = int_field obj key and s = sum row_key tier in
      if v <> s then
        fail "%s: %s %d <> trace-row %s sum %d" run key v row_key s)
    [
      (residency, "tier1_entries", "entries", fun t -> t <= 1);
      (residency, "tier2_entries", "entries", fun t -> t > 1);
      (residency, "tier1_dynamic_ir", "dynamic_ir", fun t -> t <= 1);
      (residency, "tier2_dynamic_ir", "dynamic_ir", fun t -> t > 1);
      (jit, "code_cache_hits", "cache_hits", fun _ -> true);
    ]

(* serve block (v7): a serving session's latency/throughput summary and
   shared-cache counters.  Invariants: percentiles are ordered; every
   request is either cold or warm; with the shared cache off nothing may
   touch it (a session resets the counters); with it on, every request
   performs exactly one lookup, every hit is a warm request, and only a
   miss can publish. *)
let check_serve j =
  match Json.member "serve" j with
  | None | Some Json.Null -> ()
  | Some s ->
      let bool_field key =
        match Json.member key s with
        | Some (Json.Bool b) -> b
        | _ -> fail "serve: missing %s (bool)" key
      in
      let requests = int_field s "requests" in
      if requests < 1 then fail "serve: requests < 1";
      if int_field s "jobs" < 1 then fail "serve: jobs < 1";
      if num_field s "wall_s" < 0.0 then fail "serve: negative wall_s";
      if num_field s "throughput_rps" < 0.0 then
        fail "serve: negative throughput_rps";
      let lat = need "serve.latency_ms" (Json.member "latency_ms" s) in
      let p50 = num_field lat "p50" in
      let p95 = num_field lat "p95" in
      let p99 = num_field lat "p99" in
      if p50 < 0.0 then fail "serve: negative p50";
      if not (p50 <= p95 && p95 <= p99) then
        fail "serve: percentiles not ordered (p50 %g, p95 %g, p99 %g)" p50 p95
          p99;
      let cold = need "serve.cold" (Json.member "cold" s) in
      let warm = need "serve.warm" (Json.member "warm" s) in
      let n_cold = int_field cold "count" in
      let n_warm = int_field warm "count" in
      if n_cold < 0 || n_warm < 0 then fail "serve: negative warm/cold count";
      if n_cold + n_warm <> requests then
        fail "serve: cold %d + warm %d <> requests %d" n_cold n_warm requests;
      if num_field cold "p50_ms" < 0.0 || num_field warm "p50_ms" < 0.0 then
        fail "serve: negative warm/cold p50";
      (* bounded-cache and seeding knobs (v9) *)
      let capacity = int_field s "cache_capacity" in
      let quota = int_field s "tenant_quota" in
      let corpus_size = int_field s "corpus_size" in
      let cache_entries = int_field s "cache_entries" in
      if capacity < 0 then fail "serve: negative cache_capacity";
      if quota < 0 then fail "serve: negative tenant_quota";
      if corpus_size < 1 then fail "serve: corpus_size < 1";
      if cache_entries < 0 then fail "serve: negative cache_entries";
      if capacity > 0 && cache_entries > capacity then
        fail "serve: cache_entries %d exceeds cache_capacity %d" cache_entries
          capacity;
      let seeded = need "serve.seeded" (Json.member "seeded" s) in
      let n_seeded = int_field seeded "count" in
      if n_seeded < 0 then fail "serve: negative seeded count";
      if n_seeded > n_warm then
        fail "serve: seeded %d > warm %d" n_seeded n_warm;
      if num_field seeded "first_entry_insns_mean" < 0.0 then
        fail "serve: negative seeded first-entry mean";
      if num_field s "unseeded_first_entry_insns_mean" < 0.0 then
        fail "serve: negative unseeded first-entry mean";
      let st = need "serve.shared_cache_stats" (Json.member "shared_cache_stats" s) in
      let shared_hits = int_field st "shared_hits" in
      let local_hits = int_field st "local_hits" in
      let misses = int_field st "misses" in
      let pubs = int_field st "publications" in
      let evictions = int_field st "evictions" in
      let requeues = int_field st "requeues" in
      let quota_rejections = int_field st "quota_rejections" in
      let profile_pubs = int_field st "profile_publications" in
      let seeded_imports = int_field st "seeded_imports" in
      check_counters "serve: shared_cache_stats" Catalog.Shared_cache st;
      if bool_field "shared_cache" then begin
        if shared_hits + local_hits + misses <> requests then
          fail "serve: hits %d+%d + misses %d <> requests %d" shared_hits
            local_hits misses requests;
        if shared_hits + local_hits <> n_warm then
          fail "serve: hits %d+%d <> warm count %d" shared_hits local_hits
            n_warm;
        (* a publication is attempted exactly on a miss, and resolves to
           a success or a quota rejection — the attempts cannot exceed
           the misses *)
        if pubs + quota_rejections > misses then
          fail "serve: publications %d + quota_rejections %d > misses %d" pubs
            quota_rejections misses;
        (* each eviction (and each requeue) is triggered by a successful
           publication; each attached profile annotates one *)
        if evictions > pubs then
          fail "serve: evictions %d > publications %d" evictions pubs;
        if requeues > pubs then
          fail "serve: requeues %d > publications %d" requeues pubs;
        if profile_pubs > pubs then
          fail "serve: profile_publications %d > publications %d" profile_pubs
            pubs;
        (* a seeded import is a cache hit that carried a profile, and
           every seeded request made exactly one *)
        if seeded_imports > shared_hits + local_hits then
          fail "serve: seeded_imports %d > hits %d" seeded_imports
            (shared_hits + local_hits);
        if n_seeded > seeded_imports then
          fail "serve: seeded requests %d > seeded_imports %d" n_seeded
            seeded_imports;
        if capacity = 0 && evictions + requeues > 0 then
          fail "serve: unbounded cache but evictions/requeues nonzero";
        if quota = 0 && quota_rejections > 0 then
          fail "serve: unbounded quota but quota_rejections nonzero";
        if not (bool_field "profile_seed")
           && n_seeded + seeded_imports + profile_pubs > 0
        then fail "serve: profile_seed off but seeding counters nonzero"
      end
      else if shared_hits + local_hits + misses + pubs > 0 then
        fail "serve: shared cache off but cache counters nonzero"

let metrics_exn j =
  check_schema j Metrics.schema;
  check_serve j;
  let runs = arr_field j "runs" in
  List.iter
    (fun run ->
      let label =
        Printf.sprintf "run %s/%s" (str_field run "bench")
          (str_field run "config")
      in
      ignore (str_field run "status");
      (* [gc] and [jit] may be absent or null (a native kernel has no JIT) *)
      let block key f =
        match Json.member key run with
        | None | Some Json.Null -> ()
        | Some o -> f o
      in
      check_counters label Catalog.Run run;
      check_phases label run;
      block "gc" (check_counters (label ^ " gc") Catalog.Gc);
      block "jit" (check_jit label);
      match Catalog.violations run with
      | [] -> ()
      | rel :: _ ->
          let value p =
            Printf.sprintf "%s=%d" p
              (Option.value ~default:0 (Catalog.lookup run p))
          in
          fail "%s: %s does not hold (%s)" label (Catalog.relation_text rel)
            (String.concat ", " (List.map value (Catalog.operands rel))))
    runs;
  List.length runs

let metrics = wrap metrics_exn

(* --- bench timings --- *)

let timings_exn j =
  check_schema j "mtj-bench-timings/2";
  if int_field j "jobs" < 1 then fail "jobs < 1";
  if num_field j "total_wall_s" < 0.0 then fail "negative total_wall_s";
  List.iter
    (fun e ->
      ignore (str_field e "name");
      if num_field e "wall_s" < 0.0 then
        fail "experiment %s: negative wall_s" (str_field e "name"))
    (arr_field j "experiments");
  let runs = arr_field j "runs" in
  List.iter
    (fun r ->
      let label =
        Printf.sprintf "%s/%s" (str_field r "bench") (str_field r "config")
      in
      if num_field r "wall_s" < 0.0 then fail "run %s: negative wall_s" label;
      if int_field r "insns" < 0 then fail "run %s: negative insns" label;
      if num_field r "cycles" < 0.0 then fail "run %s: negative cycles" label;
      (* v2: host minor-heap allocation of the run, for the CI
         allocation gate *)
      if num_field r "minor_words" < 0.0 then
        fail "run %s: negative minor_words" label)
    runs;
  List.length runs

let timings = wrap timings_exn
