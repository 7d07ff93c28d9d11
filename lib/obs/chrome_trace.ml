open Mtj_core
module Counters = Mtj_machine.Counters

let schema = "mtj-trace/1"
let pid = 1
let tid_phases = 1
let tid_traces = 2
let tid_gc = 3

let phase_tid p = if Phase.is_gc p then tid_gc else tid_phases
let phase_cat p = if Phase.is_gc p then "gc" else "phase"

let duration ph ~name ~cat ~tid ~ts ~insns ?(extra = []) () =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
       ("ts", Json.Float ts);
     ]
    @ [ ("args", Json.Obj (("insns", Json.Int insns) :: extra)) ])

let instant ~name ~cat ~tid ~ts ~insns ~extra =
  Json.Obj
    [
      ("name", Json.Str name);
      ("cat", Json.Str cat);
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", Json.Float ts);
      ("args", Json.Obj (("insns", Json.Int insns) :: extra));
    ]

let counter ~name ~ts ~value =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "C");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("ts", Json.Float ts);
      ("args", Json.Obj [ ("value", Json.Float value) ]);
    ]

let metadata ~name ~tid ~value =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str value) ]);
    ]

(* counter events for the window between two cumulative samples *)
let counter_events (prev : Sink.sample) (cur : Sink.sample) =
  let ts = cur.Sink.s_counters.Counters.cycles in
  let p = prev.Sink.s_counters and c = cur.Sink.s_counters in
  let d_insns = c.Counters.insns - p.Counters.insns in
  let d_cycles = c.Counters.cycles -. p.Counters.cycles in
  let d_br = c.Counters.branches - p.Counters.branches in
  let d_miss = c.Counters.branch_misses - p.Counters.branch_misses in
  let d_mem =
    c.Counters.loads + c.Counters.stores - p.Counters.loads
    - p.Counters.stores
  in
  let d_cmiss = c.Counters.cache_misses - p.Counters.cache_misses in
  let d_ticks = cur.Sink.s_ticks - prev.Sink.s_ticks in
  let ratio num den = if den <= 0.0 then 0.0 else num /. den in
  [
    counter ~name:"IPC" ~ts
      ~value:(ratio (float_of_int d_insns) d_cycles);
    counter ~name:"branch_miss_rate" ~ts
      ~value:(ratio (float_of_int d_miss) (float_of_int d_br));
    counter ~name:"cache_miss_rate" ~ts
      ~value:(ratio (float_of_int d_cmiss) (float_of_int d_mem));
    (* dispatch ticks per 1000 instructions: the application-work rate
       that makes warmup visible on the timeline (Fig. 5) *)
    counter ~name:"work_rate" ~ts
      ~value:(ratio (1000.0 *. float_of_int d_ticks) (float_of_int d_insns));
  ]

let export ?bench ?vm (sink : Sink.t) : Json.t =
  Sink.finalize sink;
  let end_ts = Sink.end_cycles sink in
  let end_insns = Sink.end_insns sink in
  let rev_events = ref [] in
  let push e = rev_events := e :: !rev_events in
  (* open spans, innermost first: (name, cat, tid) *)
  let open_spans = ref [] in
  let begin_span ~name ~cat ~tid ~ts ~insns ?extra () =
    open_spans := (name, cat, tid) :: !open_spans;
    push (duration "B" ~name ~cat ~tid ~ts ~insns ?extra ())
  in
  let end_span ~ts ~insns ?(extra = []) () =
    match !open_spans with
    | [] -> ()
    | (name, cat, tid) :: rest ->
        open_spans := rest;
        push (duration "E" ~name ~cat ~tid ~ts ~insns ~extra ())
  in
  (* the root span: whatever phase the engine was in at attach *)
  let root = Sink.start_phase sink in
  begin_span ~name:(Phase.name root) ~cat:(phase_cat root)
    ~tid:(phase_tid root) ~ts:(Sink.start_cycles sink)
    ~insns:(Sink.start_insns sink) ();
  let trace_depth = ref 0 in
  let on_event (e : Sink.event) =
    let ts = e.Sink.at_cycles and insns = e.Sink.at_insns in
    match e.Sink.kind with
    | Sink.Phase_begin p ->
        begin_span ~name:(Phase.name p) ~cat:(phase_cat p)
          ~tid:(phase_tid p) ~ts ~insns ()
    | Sink.Phase_end _ -> end_span ~ts ~insns ()
    | Sink.Trace_enter id ->
        incr trace_depth;
        begin_span
          ~name:(Printf.sprintf "trace-%d" id)
          ~cat:"trace" ~tid:tid_traces ~ts ~insns
          ~extra:[ ("trace_id", Json.Int id) ]
          ()
    | Sink.Trace_exit _ ->
        if !trace_depth > 0 then begin
          decr trace_depth;
          end_span ~ts ~insns ()
        end
    | Sink.Guard_fail id ->
        push
          (instant ~name:"guard_fail" ~cat:"jit" ~tid:tid_traces ~ts ~insns
             ~extra:[ ("guard_id", Json.Int id) ])
    | Sink.Trace_compile id ->
        push
          (instant ~name:"trace_compile" ~cat:"jit" ~tid:tid_traces ~ts
             ~insns
             ~extra:[ ("trace_id", Json.Int id) ])
    | Sink.Trace_abort code ->
        push
          (instant ~name:"trace_abort" ~cat:"jit" ~tid:tid_traces ~ts ~insns
             ~extra:[ ("code_ref", Json.Int code) ])
    | Sink.Marker n ->
        push
          (instant ~name:"app_marker" ~cat:"app" ~tid:tid_phases ~ts ~insns
             ~extra:[ ("value", Json.Int n) ])
  in
  (* merge the event stream with the counter-sample stream so the whole
     array is timestamp-ordered *)
  let samples = Array.of_list (Sink.samples sink) in
  let si = ref 1 (* samples.(0) is the attach baseline *) in
  let flush_samples_upto ts =
    while
      !si < Array.length samples
      && samples.(!si).Sink.s_counters.Counters.cycles <= ts
    do
      List.iter push (counter_events samples.(!si - 1) samples.(!si));
      incr si
    done
  in
  Sink.iter_events sink (fun e ->
      flush_samples_upto e.Sink.at_cycles;
      on_event e);
  flush_samples_upto end_ts;
  (* close everything still open (budget-exhausted runs, dropped pops),
     innermost first, at the final timestamp *)
  while !open_spans <> [] do
    end_span ~ts:end_ts ~insns:end_insns
      ~extra:[ ("auto_closed", Json.Bool true) ]
      ()
  done;
  let process_label =
    match (bench, vm) with
    | Some b, Some v -> Printf.sprintf "mtj %s (%s)" b v
    | Some b, None -> Printf.sprintf "mtj %s" b
    | _ -> "mtj-sim"
  in
  let meta =
    [
      metadata ~name:"process_name" ~tid:0 ~value:process_label;
      metadata ~name:"thread_name" ~tid:tid_phases ~value:"phases";
      metadata ~name:"thread_name" ~tid:tid_traces ~value:"jit-traces";
      metadata ~name:"thread_name" ~tid:tid_gc ~value:"gc";
    ]
  in
  let other =
    [
      ("bench", match bench with Some b -> Json.Str b | None -> Json.Null);
      ("vm", match vm with Some v -> Json.Str v | None -> Json.Null);
      ("events", Json.Int (Sink.num_events sink));
      ("dropped", Json.Int (Sink.dropped sink));
      ("ticks", Json.Int (Sink.ticks sink));
      ("start_insns", Json.Int (Sink.start_insns sink));
      ("end_insns", Json.Int end_insns);
      ("start_cycles", Json.Float (Sink.start_cycles sink));
      ("end_cycles", Json.Float end_ts);
    ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj other);
      ("traceEvents", Json.Arr (meta @ List.rev !rev_events));
    ]

let write ?bench ?vm ~file sink =
  Json.write_file ~file (export ?bench ?vm sink)
