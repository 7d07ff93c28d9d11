open Mtj_core
module Counters = Mtj_machine.Counters
module Engine = Mtj_machine.Engine

(* Bump the suffix on any change that breaks consumers; the version
   history is in test/OBS_SCHEMA.md, the counters in Catalog. *)
let schema = "mtj-metrics/9"

let record ~bench ~config ~status ~run ~per_phase ~total ~gc ~jit =
  let phase_json s = Catalog.export Catalog.Phase s ~slots:[] in
  let phase_rows =
    List.filter_map
      (fun (p, s) ->
        if s.Counters.insns = 0 then None
        else Some (Phase.name p, phase_json s))
      per_phase
  in
  let jit_json (j : Mtj_rjit.Jitlog.snapshot) =
    Catalog.export Catalog.Jit j
      ~slots:
        [
          ( "abort_reasons",
            Json.Obj (List.map (fun (r, n) -> (r, Json.Int n)) j.abort_reasons)
          );
          ("tier_residency", Catalog.export Catalog.Residency j ~slots:[]);
          ( "traces",
            Json.Arr
              (List.map
                 (fun tr ->
                   Catalog.export Catalog.Trace tr
                     ~slots:[ ("kind", Json.Str tr.Mtj_rjit.Jitlog.kind) ])
                 j.rows) );
        ]
  in
  Catalog.export Catalog.Run run
    ~slots:
      [
        ("bench", Json.Str bench);
        ("config", Json.Str config);
        ("status", Json.Str status);
        ("phases", Json.Obj (phase_rows @ [ ("total", phase_json total) ]));
        ("gc", Catalog.export Catalog.Gc gc ~slots:[]);
        ("jit", match jit with Some j -> jit_json j | None -> Json.Null);
      ]

let run_json ~bench ~config ~status ~engine ~jitlog ~gc ~ticks ~hstats =
  let counters = Engine.counters engine in
  let run =
    {
      Catalog.insns = Engine.total_insns engine;
      cycles = Engine.total_cycles engine;
      ticks;
      charge_flushes = Engine.charge_flushes engine;
      fast_path_bundles = Engine.fast_path_bundles engine;
      hstats;
    }
  in
  record ~bench ~config ~status ~run ~gc
    ~total:(Counters.total counters)
    ~per_phase:(List.map (fun p -> (p, Counters.phase counters p)) Phase.all)
    ~jit:(Some (Mtj_rjit.Jitlog.snapshot jitlog))

let document ?serve ~runs () =
  Json.Obj
    ([ ("schema", Json.Str schema); ("runs", Json.Arr runs) ]
    @ match serve with Some s -> [ ("serve", s) ] | None -> [])

let write ?serve ~file ~runs () =
  Json.write_file ~indent:2 ~file (document ?serve ~runs ())
