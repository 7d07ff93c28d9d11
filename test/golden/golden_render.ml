(* Golden-file driver for lib/harness/render.ml.

   Renders two small experiments over live (deterministic) simulated
   runs; dune diffs the output byte-for-byte against the committed
   .expected files, so any drift in table layout, bar/sparkline
   rendering, number formatting, or the simulation itself fails
   `dune runtest`.  After an intentional change, refresh with
   `dune promote`. *)

module R = Mtj_harness.Runner
module Rd = Mtj_harness.Render

let budget = 2_000_000
let benches = [ "nbody"; "richards" ]
let configs = [ R.Cpython; R.Pypy_nojit; R.Pypy_jit ]

let pairs =
  List.concat_map (fun b -> List.map (fun c -> (b, c)) configs) benches

(* experiment 1: the Table-I-style per-VM summary *)
let table () =
  R.prefetch ~jobs:2 ~budget pairs;
  Rd.heading "golden: per-VM cycle summary (2 M insn budget)";
  Rd.table
    ~header:[ "bench"; "vm"; "Mcycles"; "IPC"; "MPKI" ]
    ~rows:
      (List.map
         (fun (b, c) ->
           let r = R.run ~budget b c in
           [
             b;
             R.config_name c;
             Rd.f2 (R.mcycles r);
             Rd.f2 (R.ipc r);
             Rd.f1 (R.mpki r);
           ])
         pairs)

(* experiment 2: the Figure-2/5-style phase bars and warmup sparkline *)
let figures () =
  R.prefetch ~jobs:2 ~budget
    (List.map (fun b -> (b, R.Pypy_jit)) benches);
  Rd.heading "golden: phase mix and warmup (pypy)";
  List.iter
    (fun b ->
      let r = R.run ~budget b R.Pypy_jit in
      let parts =
        List.map (fun p -> (p, R.phase_fraction r p)) Mtj_core.Phase.all
      in
      Rd.pr "%-10s |%s|\n" b (Rd.stacked_bar ~width:40 parts))
    benches;
  Rd.pr "%s\n" Rd.phase_legend;
  Rd.subheading "dispatch-tick rate over time (nbody)";
  let r = R.run ~budget "nbody" R.Pypy_jit in
  let values = Array.map (fun (_, v) -> float_of_int v) r.R.samples in
  Rd.pr "|%s|\n" (Rd.sparkline values);
  Rd.pr "ticks total: %d   simple_bar(jit frac): |%s|\n" r.R.ticks
    (Rd.simple_bar ~width:30 (R.phase_fraction r Mtj_core.Phase.Jit))

(* experiment 3: the tier-policy extension — warmup latch, per-tier
   residency, and tier compile counts across the three policies *)
let tier_configs =
  [ ("optimizing", R.Pypy_jit); ("baseline", R.Pypy_baseline);
    ("adaptive", R.Pypy_tiered) ]

let tiers () =
  R.prefetch ~jobs:2 ~budget
    (List.concat_map
       (fun b -> List.map (fun (_, c) -> (b, c)) tier_configs)
       benches);
  Rd.heading "golden: tier policies (2 M insn budget)";
  Rd.table
    ~header:
      ("bench"
      :: List.concat_map
           (fun (n, _) -> [ n ^ " 1st (Ki)"; n ^ " t1/t2" ])
           tier_configs)
    ~rows:
      (List.map
         (fun b ->
           b
           :: List.concat_map
                (fun (_, c) ->
                  let r = R.run ~budget b c in
                  match r.R.jit with
                  | None -> [ "-"; "-" ]
                  | Some { R.log = l; _ } ->
                      [
                        (if l.first_entry_insns < 0 then "never"
                         else
                           Rd.f1
                             (float_of_int l.first_entry_insns /. 1.0e3));
                        Printf.sprintf "%d/%d" l.tier1_compiles
                          l.tier2_compiles;
                      ])
                tier_configs)
         benches);
  Rd.subheading "adaptive tier residency";
  Rd.table
    ~header:
      [ "bench"; "t1 entries"; "t2 entries"; "t1 dyn-IR"; "t2 dyn-IR";
        "promoted"; "demoted" ]
    ~rows:
      (List.map
         (fun b ->
           let r = R.run ~budget b R.Pypy_tiered in
           match r.R.jit with
           | None -> [ b; "-"; "-"; "-"; "-"; "-"; "-" ]
           | Some { R.log = l; _ } ->
               [
                 b;
                 string_of_int l.tier1_entries;
                 string_of_int l.tier2_entries;
                 string_of_int l.tier1_dynamic_ir;
                 string_of_int l.tier2_dynamic_ir;
                 string_of_int l.retiers;
                 string_of_int l.demotions;
               ])
         benches)

(* experiment 4: the mtj-metrics document itself — built from a tiered
   run, validated (schema + tier invariants), round-tripped through the
   parser, and printed; any drift in the export format fails the diff *)
let metrics () =
  let module J = Mtj_obs.Json in
  let r = R.run ~budget "richards" R.Pypy_tiered in
  let doc =
    Mtj_obs.Metrics.document ~runs:[ Mtj_harness.Report.metrics_json r ] ()
  in
  (match Mtj_obs.Validate.metrics doc with
  | Ok n -> Rd.pr "validate: OK, %d run record(s)\n" n
  | Error e -> Rd.pr "validate: INVALID: %s\n" e);
  let printed = J.to_string ~indent:2 doc in
  (match J.parse printed with
  | Ok reparsed when J.to_string ~indent:2 reparsed = printed ->
      Rd.pr "round-trip: stable\n"
  | Ok _ -> Rd.pr "round-trip: UNSTABLE\n"
  | Error e -> Rd.pr "round-trip: PARSE ERROR: %s\n" e);
  print_string printed;
  print_newline ()

(* experiment 5: the counter table of OBS_SCHEMA.md, printed from
   Mtj_obs.Catalog — the table the exporter, the validator and this
   document all read *)
let counters () =
  let module C = Mtj_obs.Catalog in
  print_string
    "<!-- generated from lib/obs/catalog.ml by `golden_render.exe counters`;\n\
    \     dune runtest diffs it, dune promote refreshes it -->\n\n\
     # mtj-metrics counters\n\n\
     Every scalar counter of an `mtj-metrics` document.  `block` is the\n\
     object holding it (`run` is the run record itself), `owner` the\n\
     module whose state it reads, and `relations` the cross-counter\n\
     invariants `Validate.metrics` checks on every run record (skipped\n\
     when an operand is absent or `null`).\n\n\
     | counter | block | unit | owner | domain | relations | doc |\n\
     | --- | --- | --- | --- | --- | --- | --- |\n";
  List.iter
    (fun (c : C.counter) ->
      let rels =
        List.filter_map
          (fun r ->
            if List.mem (C.path c) (C.operands r) then
              Some ("`" ^ C.relation_text r ^ "`")
            else None)
          C.relations
      in
      Printf.printf "| `%s` | %s | %s | %s | %s | %s | %s |\n" c.C.name
        c.C.block c.C.unit_ (C.owner_name c.C.owner) (C.domain_text c.C.domain)
        (String.concat "<br>" rels) c.C.doc)
    C.all;
  print_string "\n## Relations\n\n";
  List.iter
    (fun r -> Printf.printf "- `%s`\n" (C.relation_text r))
    C.relations

(* not a rendering: the define-before-use check (Opt.verify) over every
   trace the JIT rows above compile.  The runner's cached results keep
   no traces, so each JIT row runs again under the same config; exits
   non-zero on a dangling use. *)
let verify () =
  let bad = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun c ->
          let config = R.config_of ~budget c in
          let src =
            (Mtj_benchmarks.Registry.find_exn ~lang:Mtj_benchmarks.Registry.Py b)
              .Mtj_benchmarks.Registry.source
          in
          let _, vm = Mtj_pylite.Vm.run ~config ~profile:(R.profile_of c) src in
          List.iter
            (fun (tr : Mtj_rjit.Ir.trace) ->
              List.iter
                (fun (i, r) ->
                  incr bad;
                  Printf.eprintf "%s/%s trace %d: op %d uses undefined r%d\n" b
                    (R.config_name c) tr.Mtj_rjit.Ir.trace_id i r)
                (Mtj_rjit.Opt.verify tr.Mtj_rjit.Ir.ops
                   ~entry_slots:tr.Mtj_rjit.Ir.entry_slots
                   ~loop_base:tr.Mtj_rjit.Ir.loop_base))
            (Mtj_rjit.Jitlog.traces (Mtj_pylite.Vm.jitlog vm)))
        (List.map snd tier_configs))
    benches;
  if !bad > 0 then exit 1

let () =
  match Sys.argv with
  | [| _; "table" |] -> table ()
  | [| _; "figures" |] -> figures ()
  | [| _; "tiers" |] -> tiers ()
  | [| _; "metrics" |] -> metrics ()
  | [| _; "counters" |] -> counters ()
  | [| _; "verify" |] -> verify ()
  | _ ->
      prerr_endline
        "usage: golden_render.exe \
         (table|figures|tiers|metrics|counters|verify)";
      exit 2
