(* The serve-churn workload: [Serve.serve] on the default Zipf stream
   (s = 1.1, the 8-program corpus, the 300k-insn request budget) on one
   worker domain, with the shared cache bounded to 4 entries, half the
   working set.  Cold requests run the front end and publish, evicting
   under LRU; warm ones import a bundle and seed from its profile.  The
   seed is the request stream's seed. *)

module R = Mtj_harness.Runner
module S = Mtj_harness.Serve
module B = Mtj_benchmarks.Registry
module Sharedcache = Mtj_rjit.Sharedcache

(* enough that cold and warm each keep ten samples beyond their p99 *)
let requests = 3000
let capacity = 4
let zipf_s = 1.1
let config () = R.config_of ~budget:S.default_budget R.Pypy_jit

type reference = {
  out : (string, string) Hashtbl.t;  (** program -> [r_out_digest] *)
  sim : (string, Lang.run * Lang.run) Hashtbl.t;
      (** program -> simulated work of a cold and a seeded warm request *)
}

(* Set-up: each corpus program once alone with the cache off — whose
   output digest every request of the program must reproduce — and once
   cold then warm, for the simulated work a request does. *)
let setup () =
  let config = config () in
  let r = { out = Hashtbl.create 8; sim = Hashtbl.create 8 } in
  List.iter
    (fun ((l, b) as prog) ->
      let alone = S.serve ~jobs:1 ~shared:false ~corpus:[ prog ] ~requests:1 () in
      Hashtbl.replace r.out b alone.S.sv_records.(0).S.r_out_digest;
      Hashtbl.replace r.sim b
        (match l with
        | B.Py -> Lang.Py.cold_and_warm ~config b
        | B.Rk -> Lang.Rk.cold_and_warm ~config b))
    S.default_corpus;
  r

let session ~seed = S.serve ~jobs:1 ~seed ~zipf_s ~cache_capacity:capacity ~requests ()

(* Requests stop at the budget by design; a failed one, or one whose
   status and output differ from the program's alone run, is bad. *)
let bad (r : reference) (x : S.record) =
  String.starts_with ~prefix:"failed" x.S.r_status
  || Hashtbl.find_opt r.out x.S.r_bench <> Some x.S.r_out_digest

(* simulated (insns, cycles) of a session: a request's work is a pure
   function of its program and of whether it was profile-seeded *)
let sim_work (r : reference) (sv : S.summary) =
  Array.fold_left
    (fun (i, c) (x : S.record) ->
      let cold, warm = Hashtbl.find r.sim x.S.r_bench in
      let w = if x.S.r_seeded then warm else cold in
      (i + w.Lang.insns, c +. w.Lang.cycles))
    (0, 0.0) sv.S.sv_records

(* what the metrics keep of a session: the summary itself is dropped,
   so the heap does not grow with the number of sessions *)
type kept = {
  wall : float;
  words : float;
  lat : (float * float) list;  (** (p50, p99) of all, cold, warm requests *)
  failed : int;
  split : int * int * int;     (** cold, warm, seeded *)
  sim : int * float;           (** simulated insns and cycles *)
}

let keep refs (sv : S.summary) words =
  let lat pick =
    let ms =
      List.filter_map
        (fun (x : S.record) -> if pick x then Some (x.S.r_wall_s *. 1000.0) else None)
        (Array.to_list sv.S.sv_records)
    in
    (Util.percentile ms 50.0, Util.percentile ms 99.0)
  in
  {
    wall = sv.S.sv_wall_s;
    words;
    lat = [ lat (fun _ -> true); lat (fun x -> not x.S.r_warm); lat (fun x -> x.S.r_warm) ];
    failed = Array.fold_left (fun n x -> if bad refs x then n + 1 else n) 0 sv.S.sv_records;
    split = (sv.S.sv_cold, sv.S.sv_warm, sv.S.sv_seeded);
    sim = sim_work refs sv;
  }

(* [seconds / 3] sessions, rounded, at least one: a fixed count rather
   than the clock, so the run, and with it the peak RSS, is the same for
   a seed.  Set-up runs again before each session, so that its median
   samples the host at different moments rather than in one window. *)
let measure ~seed ~seconds =
  let refs, first = Util.time setup in
  let setups = ref [ first ] in
  let n = max 1 (int_of_float (Float.round (seconds /. 3.0))) in
  let sessions =
    List.init n (fun i ->
        if i > 0 then setups := snd (Util.time setup) :: !setups;
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let sv = session ~seed in
        let words = Gc.minor_words () -. w0 in
        keep refs sv words)
  in
  let peak = Util.peak_rss_mb () in
  let insns, cycles = (List.hd sessions).sim in
  let insns = float_of_int insns in
  let med (f : kept -> float) = Util.median (List.map f sessions) in
  let wall = med (fun k -> k.wall) in
  (* a percentile of one session's latencies, median over sessions *)
  let lat cls pick = med (fun k -> pick (List.nth k.lat cls)) in
  let cold, warm, seeded = (List.hd sessions).split in
  let open Util in
  {
    attempted = requests * n;
    failed =
      sumi (List.map (fun (k : kept) -> k.failed + Bool.to_int (k.split <> (cold, warm, seeded))) sessions);
    notes =
      [
        Printf.sprintf "%d sessions x %d requests; cold %d, warm %d, seeded %d per session" n requests cold
          warm seeded;
      ];
    metrics =
      [
        m "setup_s" "s" (median !setups);
        m "wall_s" "s" wall;
        m "sim_minsn_per_s" "Minsn/s" (insns /. wall /. 1e6);
        m "minor_words_per_insn" "words/insn" (med (fun k -> k.words) /. insns);
        m "peak_rss_mb" "MB" peak;
        m "sim_gcycles" "Gcycles" (cycles /. 1e9);
        m "req_per_s" "1/s" (float_of_int requests /. wall);
        m "p50_ms" "ms" (lat 0 fst);
        m "p99_ms" "ms" (lat 0 snd);
        m "cold_p50_ms" "ms" (lat 1 fst);
        m "cold_p99_ms" "ms" (lat 1 snd);
        m "warm_p50_ms" "ms" (lat 2 fst);
        m "warm_p99_ms" "ms" (lat 2 snd);
      ];
  }

(* cold and warm entries whose simulated work moved from the recorded *)
let drift (r : reference) =
  Hashtbl.fold
    (fun b ((cold : Lang.run), (warm : Lang.run)) n ->
      let moved mode (w : Lang.run) =
        match Reference.serve b mode with
        | Some (insns, cycles) -> w.Lang.insns <> insns || Printf.sprintf "%h" w.Lang.cycles <> cycles
        | None -> true
      in
      n + Bool.to_int (moved "cold" cold) + Bool.to_int (moved "warm" warm))
    r.sim 0

(* The traced run: one untraced session, then the same stream replayed
   through the public request path with every stage timed and the
   probe on every request's engine.  The replay must reproduce the
   session's cold/warm/seeded split and every output digest. *)
let traced ~seed =
  let refs = setup () in
  let sv = session ~seed in
  let p = Probe.create () in
  let config = config () in
  let cfg_digest = Digest.to_hex (Digest.string (Marshal.to_string config [])) in
  let cache = Sharedcache.create ~capacity () in
  let reqs = S.gen_requests ~corpus:S.default_corpus ~requests ~zipf_s ~seed in
  let replay, wall_t =
    Util.time (fun () ->
        Array.map
          (fun (q : S.request) ->
            match q.S.req_lang with
            | B.Py -> Lang.Py.serve_request p ~cache ~config ~cfg_digest q.S.req_bench
            | B.Rk -> Lang.Rk.serve_request p ~cache ~config ~cfg_digest q.S.req_bench)
          reqs)
  in
  (* a second session after the replay, so host speed drifting during
     the run cancels out of the overhead; it must repeat the first *)
  let sv2 = session ~seed in
  let wall_u = (sv.S.sv_wall_s +. sv2.S.sv_wall_s) /. 2.0 in
  let count f = Array.fold_left (fun n x -> if f x then n + 1 else n) 0 replay in
  let split_differs =
    count (fun (w, _, _) -> not w) <> sv.S.sv_cold
    || count (fun (w, _, _) -> w) <> sv.S.sv_warm
    || count (fun (_, s, _) -> s) <> sv.S.sv_seeded
    || (sv2.S.sv_cold, sv2.S.sv_warm, sv2.S.sv_seeded) <> (sv.S.sv_cold, sv.S.sv_warm, sv.S.sv_seeded)
  in
  let digest_mismatches =
    Util.sumi
      (Array.to_list
         (Array.mapi
            (fun i (_, _, (run : Lang.run)) ->
              let x = sv.S.sv_records.(i) in
              Bool.to_int
                (Lang.out_digest ~status:run.Lang.status ~output:run.Lang.output <> x.S.r_out_digest
                || x.S.r_out_digest <> sv2.S.sv_records.(i).S.r_out_digest
                || bad refs x))
            replay))
  in
  let baseline = R.config_of ~budget:S.default_budget R.Pypy_baseline in
  Probe.replay p ~config
    (List.concat_map
       (fun (l, b) ->
         match l with
         | B.Py -> Lang.Py.recordings ~config:baseline b
         | B.Rk -> Lang.Rk.recordings ~config:baseline b)
       S.default_corpus);
  let overhead = wall_t -. wall_u in
  {
    Util.attempted = 3 * requests;
    failed = digest_mismatches + (if split_differs then 1 else 0);
    notes =
      [
        Printf.sprintf "%d requests; sessions %.3f s and %.3f s (cold %d, warm %d, seeded %d), replay %.3f s"
          requests sv.S.sv_wall_s sv2.S.sv_wall_s sv.S.sv_cold sv.S.sv_warm sv.S.sv_seeded wall_t;
      ];
    metrics =
      Probe.metrics p ~cache:sv.S.sv_cache
        ~seeded_share:(float_of_int sv.S.sv_seeded /. float_of_int requests)
        ~overhead_s:overhead ~overhead_share:(overhead /. wall_u) ~drift:(drift refs);
  }
