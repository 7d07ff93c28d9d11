(** Differential test of the engine's staged (batched) charging fast
    path against a straight-line reference implementation of the
    unstaged algorithm.

    The reference model below replays every charging rule event by
    event: per-event integer counter-array updates, per-bundle budget
    checks, and the sink's record-then-sample annotation behaviour.
    Cycles are not charged but derived from the integer counters, so the
    model restates that derivation.  Random interleavings of bundle
    emits / [emit_static] blocks / conditional + indirect branches /
    memory accesses / phase pushes + pops / mid-stream counter reads —
    plus deterministic budget-exhaustion boundaries — are driven through
    a real [Engine] (with a [Sink] attached) and through the model.
    Everything observable must be BYTE-IDENTICAL: per-phase counters,
    derived cycles (via [%.17g]), engine totals, the budget-exhaustion
    point, ring-buffer events and counter samples.

    The model also keeps the per-event float cycle accumulation the
    derivation replaced ([float n *. inv_width] plus penalty adds); a
    property holds the derived cycles within 1e-9 relative of it. *)

module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters
module Predictor = Mtj_machine.Predictor
module Dcache = Mtj_machine.Dcache
module Sink = Mtj_obs.Sink
module Phase = Mtj_core.Phase
module Cost = Mtj_core.Cost
module Config = Mtj_core.Config
module Annot = Mtj_core.Annot

let all_phases = Array.of_list Phase.all

(* ---------- the event language ---------- *)

type ev =
  | Emit of Cost.t
  | Emit_block of Cost.t array * int * int  (* costs, lo, hi *)
  | Branch of int * bool                    (* site, taken *)
  | Branch_ind of int * int                 (* site, target *)
  | Mem of int * bool                       (* addr, write *)
  | Push of Phase.t
  | Pop
  | Tick                                    (* Dispatch_tick annotation *)
  | Marker of int                           (* App_marker annotation *)
  | Read                                    (* mid-stream counter read *)

(* ---------- reference model: the unstaged charging algorithm ---------- *)

module Ref_model = struct
  exception Budget

  type t = {
    pred : Predictor.t;
    dc : Dcache.t;
    insns_a : int array;
    branches_a : int array;
    misses_a : int array;
    loads_a : int array;
    stores_a : int array;
    cmisses_a : int array;
    mutable phase : Phase.t;
    mutable stack : Phase.t list;
    interp_width : float;
    mutable insns : int;
    budget : int;
    (* the per-event float accumulation, per phase and in total *)
    fcycles_a : float array;
    mutable fcycles : float;
    (* sink mirror *)
    window : int;
    mutable next_mark : int;
    mutable ticks : int;
    mutable rev_events : (string * int * float) list;
    mutable rev_samples : string list;
  }

  let width t = function
    | Phase.Interpreter | Phase.Tracing | Phase.Native -> t.interp_width
    | Phase.Jit -> 1.95
    | Phase.Jit_call -> 1.75
    | Phase.Gc_minor | Phase.Gc_major -> 2.0
    | Phase.Blackhole -> 1.05

  (* the cycle derivation: insns / width + 14 x branch misses + 18 x
     cache misses per phase, summed in phase order *)
  let phase_cycles t i =
    (float_of_int t.insns_a.(i) /. width t (Phase.of_index i))
    +. (14.0 *. float_of_int t.misses_a.(i))
    +. (18.0 *. float_of_int t.cmisses_a.(i))

  let cycles t =
    let c = ref 0.0 in
    for i = 0 to Phase.count - 1 do
      c := !c +. phase_cycles t i
    done;
    !c

  let total_snapshot t =
    let sum = Array.fold_left ( + ) 0 in
    Printf.sprintf "i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" (sum t.insns_a)
      (cycles t) (sum t.branches_a) (sum t.misses_a) (sum t.loads_a)
      (sum t.stores_a) (sum t.cmisses_a)

  let take_sample t insns =
    t.rev_samples <-
      Printf.sprintf "@%d ticks=%d %s" insns t.ticks (total_snapshot t)
      :: t.rev_samples

  let create ~budget ~interp_width ~window =
    let n = Phase.count in
    let t =
      {
        pred = Predictor.create ();
        dc = Dcache.create ();
        insns_a = Array.make n 0;
        branches_a = Array.make n 0;
        misses_a = Array.make n 0;
        loads_a = Array.make n 0;
        stores_a = Array.make n 0;
        cmisses_a = Array.make n 0;
        phase = Phase.Interpreter;
        stack = [];
        interp_width;
        insns = 0;
        budget;
        fcycles_a = Array.make n 0.0;
        fcycles = 0.0;
        window;
        next_mark = window;
        ticks = 0;
        rev_events = [];
        rev_samples = [];
      }
    in
    (* mirror of Sink.attach's baseline sample *)
    take_sample t 0;
    t

  let bump t n =
    t.insns <- t.insns + n;
    if t.insns > t.budget then raise Budget

  let add_fcycles t i cy =
    t.fcycles <- t.fcycles +. cy;
    t.fcycles_a.(i) <- t.fcycles_a.(i) +. cy

  let inv_width t = 1.0 /. width t t.phase

  let emit t (c : Cost.t) =
    let n = Cost.total c in
    if n > 0 then begin
      let i = Phase.index t.phase in
      add_fcycles t i (float_of_int n *. inv_width t);
      t.insns_a.(i) <- t.insns_a.(i) + n;
      t.loads_a.(i) <- t.loads_a.(i) + c.Cost.load;
      t.stores_a.(i) <- t.stores_a.(i) + c.Cost.store;
      bump t n
    end

  let charge_branch t correct =
    let i = Phase.index t.phase in
    add_fcycles t i (inv_width t +. if correct then 0.0 else 14.0);
    t.insns_a.(i) <- t.insns_a.(i) + 1;
    t.branches_a.(i) <- t.branches_a.(i) + 1;
    if not correct then t.misses_a.(i) <- t.misses_a.(i) + 1;
    bump t 1

  let mem t ~addr ~write =
    let hit = Dcache.access t.dc ~addr in
    let i = Phase.index t.phase in
    add_fcycles t i (inv_width t);
    t.insns_a.(i) <- t.insns_a.(i) + 1;
    if write then t.stores_a.(i) <- t.stores_a.(i) + 1
    else t.loads_a.(i) <- t.loads_a.(i) + 1;
    if not hit then begin
      add_fcycles t i 18.0;
      t.cmisses_a.(i) <- t.cmisses_a.(i) + 1
    end;
    bump t 1

  (* mirror of Sink.on_annot: record the event, then the sampling check *)
  let annot t tag =
    let record name =
      t.rev_events <- (name, t.insns, cycles t) :: t.rev_events
    in
    (match tag with
    | `Tick -> t.ticks <- t.ticks + 1
    | `Push p -> record ("push:" ^ Phase.name p)
    | `Pop p -> record ("pop:" ^ Phase.name p)
    | `Marker n -> record (Printf.sprintf "marker:%d" n));
    if t.insns >= t.next_mark then begin
      take_sample t t.insns;
      t.next_mark <- t.next_mark + t.window
    end

  let push t p =
    annot t (`Push p);
    t.stack <- t.phase :: t.stack;
    t.phase <- p

  let pop t =
    match t.stack with
    | [] -> invalid_arg "Ref_model.pop"
    | p :: rest ->
        let popped = t.phase in
        t.phase <- p;
        t.stack <- rest;
        annot t (`Pop popped)

  let phase_digest t p =
    let i = Phase.index p in
    Printf.sprintf "%s: i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" (Phase.name p)
      t.insns_a.(i) (phase_cycles t i) t.branches_a.(i) t.misses_a.(i)
      t.loads_a.(i) t.stores_a.(i) t.cmisses_a.(i)

  let read_digest t =
    String.concat "\n"
      (List.map (phase_digest t) Phase.all
      @ [
          "total " ^ total_snapshot t;
          Printf.sprintf "eng i=%d cy=%.17g" t.insns (cycles t);
        ])

  let apply t = function
    | Emit c -> emit t c
    | Emit_block (costs, lo, hi) ->
        for i = lo to hi - 1 do
          emit t costs.(i)
        done
    | Branch (site, taken) ->
        charge_branch t (Predictor.conditional t.pred ~site ~taken)
    | Branch_ind (site, target) ->
        charge_branch t (Predictor.indirect t.pred ~site ~target)
    | Mem (addr, write) -> mem t ~addr ~write
    | Push p -> push t p
    | Pop -> pop t
    | Tick -> annot t `Tick
    | Marker n -> annot t (`Marker n)
    | Read -> ()
end

(* ---------- engine-side digests ---------- *)

let snap_str (s : Counters.snapshot) =
  Printf.sprintf "i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" s.Counters.insns
    s.Counters.cycles s.Counters.branches s.Counters.branch_misses
    s.Counters.loads s.Counters.stores s.Counters.cache_misses

let eng_read_digest eng =
  let c = Engine.counters eng in
  String.concat "\n"
    (List.map
       (fun p -> Phase.name p ^ ": " ^ snap_str (Counters.phase c p))
       Phase.all
    @ [
        "total " ^ snap_str (Counters.total c);
        Printf.sprintf "eng i=%d cy=%.17g" (Engine.total_insns eng)
          (Engine.total_cycles eng);
      ])

let sink_events_digest sink =
  let buf = Buffer.create 256 in
  Sink.iter_events sink (fun e ->
      let name =
        match e.Sink.kind with
        | Sink.Phase_begin p -> "push:" ^ Phase.name p
        | Sink.Phase_end p -> "pop:" ^ Phase.name p
        | Sink.Marker n -> Printf.sprintf "marker:%d" n
        | Sink.Trace_enter _ | Sink.Trace_exit _ | Sink.Guard_fail _
        | Sink.Trace_compile _ | Sink.Trace_abort _ ->
            "unexpected"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s@%d cy=%.17g\n" name e.Sink.at_insns
           e.Sink.at_cycles));
  Buffer.contents buf

let model_events_digest (m : Ref_model.t) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, insns, cycles) ->
      Buffer.add_string buf
        (Printf.sprintf "%s@%d cy=%.17g\n" name insns cycles))
    (List.rev m.Ref_model.rev_events);
  Buffer.contents buf

let sink_samples_digest sink =
  String.concat "\n"
    (List.map
       (fun (s : Sink.sample) ->
         Printf.sprintf "@%d ticks=%d %s" s.Sink.s_insns s.Sink.s_ticks
           (snap_str s.Sink.s_counters))
       (Sink.samples sink))

let model_samples_digest (m : Ref_model.t) =
  String.concat "\n" (List.rev m.Ref_model.rev_samples)

(* ---------- the differential driver ---------- *)

type outcome = {
  stopped_at : int option;  (* event index where the budget raised *)
  reads : string list;      (* digests collected at [Read] events *)
  final : string;
  events : string;
  samples : string;
}

let window = 64

(* [after] runs after every event that did not exhaust the budget *)
let engine_run ?(after = ignore) ~budget ~interp_width (events : ev array) =
  let cfg = { Config.default with Config.insn_budget = budget } in
  let eng = Engine.create ~config:cfg () in
  Engine.set_interp_width eng interp_width;
  let sink = Sink.attach ~capacity:4096 ~counter_window:window eng in
  let reads = ref [] in
  let stopped = ref None in
  (try
     Array.iteri
       (fun i ev ->
         (try
            match ev with
            | Emit c -> Engine.emit eng c
            | Emit_block (costs, lo, hi) -> Engine.emit_static eng costs ~lo ~hi
            | Branch (site, taken) -> Engine.branch eng ~site ~taken
            | Branch_ind (site, target) ->
                Engine.branch_indirect eng ~site ~target
            | Mem (addr, write) -> Engine.mem_access eng ~addr ~write
            | Push p -> Engine.push_phase eng p
            | Pop -> Engine.pop_phase eng
            | Tick -> Engine.annot eng Annot.Dispatch_tick
            | Marker n -> Engine.annot eng (Annot.App_marker n)
            | Read -> reads := eng_read_digest eng :: !reads
          with Engine.Budget_exhausted ->
            stopped := Some i;
            raise Exit);
         after eng)
       events
   with Exit -> ());
  ( eng,
    {
      stopped_at = !stopped;
      reads = List.rev !reads;
      final = eng_read_digest eng;
      events = sink_events_digest sink;
      samples = sink_samples_digest sink;
    } )

let run_engine ~budget ~interp_width events =
  snd (engine_run ~budget ~interp_width events)

let model_run ~budget ~interp_width (events : ev array) =
  let m = Ref_model.create ~budget ~interp_width ~window in
  let reads = ref [] in
  let stopped = ref None in
  (try
     Array.iteri
       (fun i ev ->
         match ev with
         | Read -> reads := Ref_model.read_digest m :: !reads
         | ev -> (
             try Ref_model.apply m ev
             with Ref_model.Budget ->
               stopped := Some i;
               raise Exit))
       events
   with Exit -> ());
  ( m,
    {
      stopped_at = !stopped;
      reads = List.rev !reads;
      final = Ref_model.read_digest m;
      events = model_events_digest m;
      samples = model_samples_digest m;
    } )

let run_model ~budget ~interp_width events =
  snd (model_run ~budget ~interp_width events)

let outcome_str (o : outcome) =
  Printf.sprintf
    "stopped=%s\n--- reads:\n%s\n--- final:\n%s\n--- events:\n%s--- samples:\n%s\n"
    (match o.stopped_at with None -> "-" | Some i -> string_of_int i)
    (String.concat "\n~\n" o.reads)
    o.final o.events o.samples

let check_same name events ~budget ~interp_width =
  let e = run_engine ~budget ~interp_width events in
  let m = run_model ~budget ~interp_width events in
  Alcotest.(check string) name (outcome_str m) (outcome_str e)

(* ---------- generators ---------- *)

let gen_cost rng =
  let f () = if Random.State.int rng 3 = 0 then Random.State.int rng 5 else 0 in
  let c =
    Cost.make ~alu:(f ()) ~fpu:(f ()) ~load:(f ()) ~store:(f ()) ~other:(f ())
      ()
  in
  if Cost.total c = 0 && Random.State.bool rng then Cost.make ~alu:1 () else c

let gen_events rng n : ev array =
  (* explicit loop: [depth] tracking needs in-index-order generation so a
     generated [Pop] never precedes its [Push] in the replayed stream *)
  let out = Array.make n Read in
  let depth = ref 0 in
  for idx = 0 to n - 1 do
    out.(idx) <-
      (match Random.State.int rng 100 with
      | k when k < 30 -> Emit (gen_cost rng)
      | k when k < 40 ->
          let len = 1 + Random.State.int rng 4 in
          let costs = Array.init len (fun _ -> gen_cost rng) in
          let lo = Random.State.int rng (len + 1) in
          let hi = lo + Random.State.int rng (len - lo + 1) in
          Emit_block (costs, lo, hi)
      | k when k < 55 ->
          Branch (Random.State.int rng 8, Random.State.bool rng)
      | k when k < 65 ->
          Branch_ind (Random.State.int rng 8, Random.State.int rng 5)
      | k when k < 78 ->
          Mem (Random.State.int rng 100_000, Random.State.bool rng)
      | k when k < 86 ->
          incr depth;
          Push all_phases.(Random.State.int rng (Array.length all_phases))
      | k when k < 92 ->
          if !depth > 0 then begin
            decr depth;
            Pop
          end
          else Emit (gen_cost rng)
      | k when k < 95 -> Tick
      | k when k < 98 -> Marker (Random.State.int rng 10)
      | _ -> Read)
  done;
  out

let widths = [| 1.0; 2.0; 2.8; 3.5 |]

(* a random event stream from [seed], plus its budget and the rng for
   further draws *)
let stream seed =
  let rng = Random.State.make [| seed; 0xC4A6 |] in
  let n = 20 + Random.State.int rng 400 in
  let events = gen_events rng n in
  (* small budgets sometimes, to land the exhaustion boundary inside
     the stream (including inside emit_static blocks) *)
  let budget =
    if Random.State.int rng 3 = 0 then 50 + Random.State.int rng 400
    else Config.default.Config.insn_budget
  in
  (rng, events, budget)

let seed_arb = QCheck.make QCheck.Gen.(int_range 1 1_000_000)

let prop_batched_identical =
  QCheck.Test.make ~count:300
    ~name:"staged charging is byte-identical to the reference algorithm"
    seed_arb
    (fun seed ->
      let rng, events, budget = stream seed in
      let interp_width = widths.(Random.State.int rng 4) in
      let e = run_engine ~budget ~interp_width events in
      let m = run_model ~budget ~interp_width events in
      if outcome_str e <> outcome_str m then
        QCheck.Test.fail_reportf
          "seed %d diverged:\n--- reference:\n%s\n--- staged:\n%s" seed
          (outcome_str m) (outcome_str e)
      else true)

let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let prop_derived_near_float =
  QCheck.Test.make ~count:100
    ~name:"derived cycles within 1e-9 of the per-event float sums"
    seed_arb
    (fun seed ->
      let _, events, budget = stream seed in
      Array.for_all
        (fun interp_width ->
          let eng, _ = engine_run ~budget ~interp_width events in
          let m, _ = model_run ~budget ~interp_width events in
          let c = Engine.counters eng in
          let near what derived summed =
            rel_close derived summed
            || QCheck.Test.fail_reportf
                 "seed %d width %g %s: derived %.17g, float sum %.17g" seed
                 interp_width what derived summed
          in
          near "total" (Engine.total_cycles eng) m.Ref_model.fcycles
          && List.for_all
               (fun p ->
                 near (Phase.name p) (Counters.phase c p).Counters.cycles
                   m.Ref_model.fcycles_a.(Phase.index p))
               Phase.all)
        widths)

let prop_total_cycles_unflushed =
  QCheck.Test.make ~count:200
    ~name:"total_cycles is the total's cycles and never flushes"
    seed_arb
    (fun seed ->
      let rng, events, budget = stream seed in
      let interp_width = widths.(Random.State.int rng 4) in
      let run after = engine_run ~after ~budget ~interp_width events in
      (* read mid-stream, before [Counters.total] flushes the staged state *)
      let exact = ref true in
      ignore
        (run (fun eng ->
             let staged = Engine.total_cycles eng in
             if staged <> (Counters.total (Engine.counters eng)).Counters.cycles
             then exact := false));
      let peeked, o_peeked =
        run (fun eng -> ignore (Engine.total_cycles eng))
      in
      let plain, o_plain = run ignore in
      !exact
      && Engine.charge_flushes peeked = Engine.charge_flushes plain
      && outcome_str o_peeked = outcome_str o_plain)

(* ---------- deterministic scenarios ---------- *)

let scenario_phases () =
  check_same "phase interleaving" ~budget:1_000_000 ~interp_width:2.0
    [|
      Emit (Cost.make ~alu:3 ~load:1 ());
      Push Phase.Tracing;
      Emit (Cost.make ~alu:2 ~store:2 ());
      Push Phase.Jit;
      Emit (Cost.make ~other:4 ());
      Branch (3, true);
      Pop;
      Mem (42, false);
      Mem (42, true);
      Pop;
      Read;
      Emit (Cost.make ~alu:1 ());
      Read;
    |]

let scenario_reads_every_event () =
  let rng = Random.State.make [| 7; 0xC4A6 |] in
  let evs = gen_events rng 120 in
  let interleaved =
    Array.concat (Array.to_list (Array.map (fun e -> [| e; Read |]) evs))
  in
  check_same "read after every event" ~budget:1_000_000 ~interp_width:2.8
    interleaved

let scenario_budget_boundary () =
  (* budget 10: the bundle that takes insns from 9 to 12 must raise, and
     the counters must retain the full bundle exactly as before *)
  check_same "budget exhaustion mid-stream" ~budget:10 ~interp_width:2.0
    [|
      Emit (Cost.make ~alu:9 ());
      Read;
      Emit (Cost.make ~alu:3 ());
      Emit (Cost.make ~alu:100 ());
    |];
  (* landing exactly ON the budget does not raise (only crossing it) *)
  check_same "budget exact boundary" ~budget:10 ~interp_width:2.0
    [| Emit (Cost.make ~alu:10 ()); Read; Branch (1, true) |];
  (* exhaustion inside an emit_static block: partial charges retained *)
  let costs = Array.init 8 (fun i -> Cost.make ~alu:(i + 1) ()) in
  check_same "budget inside emit_static" ~budget:12 ~interp_width:2.0
    [| Emit_block (costs, 0, 8) |]

let scenario_emit_static_equivalence () =
  (* emit_static over a slice == the equivalent per-element emit calls,
     engine vs engine *)
  let costs =
    [|
      Cost.make ~alu:3 ~load:1 ();
      Cost.make ~store:2 ();
      Cost.zero;
      Cost.make ~fpu:4 ~other:1 ();
    |]
  in
  let block = run_engine ~budget:1_000_000 ~interp_width:2.0
      [| Push Phase.Jit; Emit_block (costs, 1, 4); Pop; Read |]
  in
  let seq =
    run_engine ~budget:1_000_000 ~interp_width:2.0
      [|
        Push Phase.Jit;
        Emit costs.(1);
        Emit costs.(2);
        Emit costs.(3);
        Pop;
        Read;
      |]
  in
  Alcotest.(check string)
    "emit_static == emit sequence" (outcome_str seq) (outcome_str block)

let scenario_emit_static_bounds () =
  let eng = Engine.create () in
  let costs = [| Cost.make ~alu:1 () |] in
  let raises lo hi =
    match Engine.emit_static eng costs ~lo ~hi with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "lo < 0 raises" true (raises (-1) 0);
  Alcotest.(check bool) "hi > len raises" true (raises 0 2);
  Alcotest.(check bool) "lo > hi raises" true (raises 1 0);
  Engine.emit_static eng costs ~lo:0 ~hi:0;
  Engine.emit_static eng costs ~lo:1 ~hi:1;
  Alcotest.(check int) "empty slices charge nothing" 0 (Engine.total_insns eng)

let scenario_listener_order () =
  (* add_listener's growth buffer must deliver newest-first, like the
     prepend semantics it replaced, across the initial-capacity boundary *)
  let eng = Engine.create () in
  let log = ref [] in
  for k = 1 to 7 do
    Engine.add_listener eng (fun ~insns:_ _ -> log := k :: !log)
  done;
  Engine.annot eng Annot.Dispatch_tick;
  Alcotest.(check (list int))
    "newest-first delivery, all 7 listeners" [ 7; 6; 5; 4; 3; 2; 1 ]
    (List.rev !log)

let scenario_flush_stats () =
  let eng = Engine.create () in
  Alcotest.(check int) "no bundles yet" 0 (Engine.fast_path_bundles eng);
  Engine.emit eng (Cost.make ~alu:2 ());
  Engine.emit eng (Cost.make ~alu:1 ());
  Alcotest.(check int) "two bundles charged" 2 (Engine.fast_path_bundles eng);
  let flushes_before = Engine.charge_flushes eng in
  ignore (Counters.total (Engine.counters eng));
  let flushes_after = Engine.charge_flushes eng in
  Alcotest.(check bool)
    "query flushed the staged state" true
    (flushes_after >= 1 && flushes_after >= flushes_before);
  (* a clean flush (nothing staged) does not count *)
  ignore (Counters.total (Engine.counters eng));
  Alcotest.(check int)
    "idempotent flush not recounted" flushes_after (Engine.charge_flushes eng)

let suite =
  [
    Alcotest.test_case "phase interleaving" `Quick scenario_phases;
    Alcotest.test_case "read after every event" `Quick
      scenario_reads_every_event;
    Alcotest.test_case "budget boundaries" `Quick scenario_budget_boundary;
    Alcotest.test_case "emit_static equivalence" `Quick
      scenario_emit_static_equivalence;
    Alcotest.test_case "emit_static bounds" `Quick scenario_emit_static_bounds;
    Alcotest.test_case "listener order across growth" `Quick
      scenario_listener_order;
    Alcotest.test_case "fast-path stats" `Quick scenario_flush_stats;
    QCheck_alcotest.to_alcotest prop_batched_identical;
    QCheck_alcotest.to_alcotest prop_derived_near_float;
    QCheck_alcotest.to_alcotest prop_total_cycles_unflushed;
  ]
