(** Property-based soundness test for the trace optimizer.

    Generates random straight-line traces (integer arithmetic, always-true
    class guards with live resume snapshots, and heap traffic through
    cells, tuples and lists) and checks that executing the raw IR and the
    IR after every optimizer configuration yields the same [Finish]
    value. This attacks exactly the class of bug we found during bring-up
    (virtuals/substitution corruption): any unsound rewrite of data flow
    changes the xor-accumulated result. *)

open Mtj_rjit
module V = Mtj_rt.Value

type rkind = RInt | RArr | RCell | RList

let guard_ctr = ref 0

type gen_state = {
  rng : Random.State.t;
  mutable ops : Ir.op list; (* reversed *)
  mutable regs : (int * rkind) list; (* newest first *)
  mutable bound : (int * int) list; (* int reg -> magnitude bound *)
  mutable next : int;
}

let fresh st kind =
  let r = st.next in
  st.next <- r + 1;
  st.regs <- (r, kind) :: st.regs;
  r

let push st op = st.ops <- op :: st.ops

let pick_kind st kind =
  let cands = List.filter (fun (_, k) -> k = kind) st.regs in
  match cands with
  | [] -> None
  | _ -> Some (fst (List.nth cands (Random.State.int st.rng (List.length cands))))

let bound_of st r = try List.assoc r st.bound with Not_found -> 1 lsl 20

let set_bound st r b = st.bound <- (r, b) :: st.bound

let emit st ?(result = -1) opcode args = push st { Ir.opcode; args; result }

let emit_guard st =
  match pick_kind st RInt with
  | None -> ()
  | Some r ->
      incr guard_ctr;
      (* a resume snapshot keeping up to 4 random registers live *)
      let n = 1 + Random.State.int st.rng 4 in
      let all = Array.of_list (List.map fst st.regs) in
      let live =
        Array.init n (fun _ ->
            Ir.S_reg all.(Random.State.int st.rng (Array.length all)))
      in
      push st
        {
          Ir.opcode =
            Ir.Guard
              {
                Ir.guard_id = 500_000 + !guard_ctr;
                gkind = Ir.G_class Ir.Ty_int;
                resume =
                  {
                    Ir.frames =
                      [
                        {
                          Ir.snap_code = 1;
                          snap_pc = 0;
                          snap_locals = live;
                          snap_stack = [||];
                          snap_discard = false;
                        };
                      ];
                    r_virtuals = [||];
                  };
                fail_count = 0;
                bridge = None;
                bridgeable = true;
              };
          args = [| Ir.Reg r |];
          result = -1;
        }

let gen_step st =
  let rnd n = Random.State.int st.rng n in
  let int_reg () = Option.get (pick_kind st RInt) in
  match rnd 13 with
  | 0 | 1 | 2 ->
      (* add/sub/xor/and/or on two int regs *)
      let a = int_reg () and b = int_reg () in
      let ba = bound_of st a and bb = bound_of st b in
      let opc, bnd =
        match rnd 5 with
        | 0 -> (Ir.Int_add, ba + bb)
        | 1 -> (Ir.Int_sub, ba + bb)
        | 2 -> (Ir.Int_xor, 2 * max ba bb)
        | 3 -> (Ir.Int_and, 2 * max ba bb)
        | _ -> (Ir.Int_or, 2 * max ba bb)
      in
      if bnd < 1 lsl 50 then begin
        let r = fresh st RInt in
        emit st ~result:r opc [| Ir.Reg a; Ir.Reg b |];
        set_bound st r bnd
      end
  | 3 ->
      (* multiply by a small constant *)
      let a = int_reg () in
      let c = rnd 15 - 7 in
      let bnd = bound_of st a * (abs c + 1) in
      if bnd < 1 lsl 50 then begin
        let r = fresh st RInt in
        emit st ~result:r Ir.Int_mul [| Ir.Reg a; Ir.Const (V.of_int c) |];
        set_bound st r bnd
      end
  | 4 ->
      (* re-bound through mod *)
      let a = int_reg () in
      let c = 2 + rnd 49 in
      let r = fresh st RInt in
      emit st ~result:r Ir.Int_mod [| Ir.Reg a; Ir.Const (V.of_int c) |];
      set_bound st r c
  | 5 ->
      (* a cell: create with a value, read back *)
      let v = int_reg () in
      let cell = fresh st RCell in
      emit st ~result:cell Ir.New_cell [| Ir.Reg v |];
      let r = fresh st RInt in
      emit st ~result:r Ir.Getcell [| Ir.Reg cell |];
      set_bound st r (bound_of st v)
  | 6 -> (
      (* mutate an existing cell *)
      match pick_kind st RCell with
      | None -> ()
      | Some cell ->
          let v = int_reg () in
          emit st Ir.Setcell [| Ir.Reg cell; Ir.Reg v |])
  | 7 -> (
      (* read an existing cell *)
      match pick_kind st RCell with
      | None -> ()
      | Some cell ->
          let r = fresh st RInt in
          emit st ~result:r Ir.Getcell [| Ir.Reg cell |];
          set_bound st r (1 lsl 21))
  | 8 ->
      (* a 2-tuple *)
      let a = int_reg () and b = int_reg () in
      let t = fresh st RArr in
      emit st ~result:t (Ir.New_array 2) [| Ir.Reg a; Ir.Reg b |]
  | 9 -> (
      (* read a tuple element *)
      match pick_kind st RArr with
      | None -> ()
      | Some t ->
          let r = fresh st RInt in
          emit st ~result:r Ir.Getarrayitem_gc
            [| Ir.Reg t; Ir.Const (V.of_int (rnd 2)) |];
          set_bound st r (1 lsl 21))
  | 10 -> (
      (* lists: create or mutate+read *)
      match pick_kind st RList with
      | None ->
          let a = int_reg () and b = int_reg () in
          let l = fresh st RList in
          emit st ~result:l (Ir.New_list 2) [| Ir.Reg a; Ir.Reg b |]
      | Some l ->
          let v = int_reg () in
          emit st Ir.Setlistitem
            [| Ir.Reg l; Ir.Const (V.of_int (rnd 2)); Ir.Reg v |];
          let r = fresh st RInt in
          emit st ~result:r Ir.Getlistitem
            [| Ir.Reg l; Ir.Const (V.of_int (rnd 2)) |];
          set_bound st r (1 lsl 21))
  | 11 -> (
      (* a guard that CAN fail: the run then deoptimizes, and the
         materialized frames must match the unoptimized run's exactly *)
      match pick_kind st RInt with
      | None -> ()
      | Some r ->
          incr guard_ctr;
          let n = 1 + Random.State.int st.rng 4 in
          let all = Array.of_list (List.map fst st.regs) in
          let live =
            Array.init n (fun _ ->
                Ir.S_reg all.(Random.State.int st.rng (Array.length all)))
          in
          let gkind =
            if Random.State.bool st.rng then
              Ir.G_index_lt (* fails when r outside [0, bound) *)
            else Ir.G_class Ir.Ty_int (* always holds: control case *)
          in
          let args =
            match gkind with
            | Ir.G_index_lt ->
                [| Ir.Reg r; Ir.Const (V.of_int (Random.State.int st.rng 40)) |]
            | _ -> [| Ir.Reg r |]
          in
          push st
            {
              Ir.opcode =
                Ir.Guard
                  {
                    Ir.guard_id = 700_000 + !guard_ctr;
                    gkind;
                    resume =
                      {
                        Ir.frames =
                          [
                            {
                              Ir.snap_code = 1;
                              snap_pc = !guard_ctr;
                              snap_locals = live;
                              snap_stack = [||];
                              snap_discard = false;
                            };
                          ];
                        r_virtuals = [||];
                      };
                    fail_count = 0;
                    bridge = None;
                    bridgeable = true;
                  };
              args;
              result = -1;
            })
  | _ -> emit_guard st

(* fold every live register into one result so any dataflow corruption
   changes the final answer *)
let epilogue st =
  let acc = ref 0 in
  let xor_in src =
    let r = fresh st RInt in
    emit st ~result:r Ir.Int_xor [| Ir.Reg !acc; src |];
    acc := r
  in
  List.iter
    (fun (r, k) ->
      match k with
      | RInt -> xor_in (Ir.Reg r)
      | RCell ->
          let v = fresh st RInt in
          emit st ~result:v Ir.Getcell [| Ir.Reg r |];
          xor_in (Ir.Reg v)
      | RArr ->
          let v = fresh st RInt in
          emit st ~result:v Ir.Getarrayitem_gc [| Ir.Reg r; Ir.Const (V.of_int 0) |];
          xor_in (Ir.Reg v)
      | RList ->
          let v = fresh st RInt in
          emit st ~result:v Ir.Getlistitem [| Ir.Reg r; Ir.Const (V.of_int 1) |];
          xor_in (Ir.Reg v))
    st.regs;
  emit st Ir.Finish [| Ir.Reg !acc |]

let entry_slots = 3

let gen_program seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let st = { rng; ops = []; regs = []; bound = []; next = entry_slots } in
  for r = 0 to entry_slots - 1 do
    st.regs <- (r, RInt) :: st.regs;
    set_bound st r 101
  done;
  let nsteps = 4 + Random.State.int rng 28 in
  for _ = 1 to nsteps do
    gen_step st
  done;
  epilogue st;
  let entry =
    Array.init entry_slots (fun _ -> V.of_int (Random.State.int rng 201 - 100))
  in
  (Array.of_list (List.rev st.ops), entry)

(* deep-copy ops so each optimizer run sees pristine guards (optimize
   mutates nothing, but Backend/Executor update fail counts in place) *)
let copy_ops ops =
  Array.map
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.Guard g ->
          {
            op with
            Ir.opcode =
              Ir.Guard
                {
                  g with
                  Ir.resume =
                    {
                      Ir.frames =
                        List.map
                          (fun (f : Ir.frame_snap) ->
                            { f with Ir.snap_locals = Array.copy f.Ir.snap_locals })
                          g.Ir.resume.Ir.frames;
                      r_virtuals = Array.copy g.Ir.resume.Ir.r_virtuals;
                    };
                };
          }
      | _ -> { op with Ir.args = Array.copy op.Ir.args })
    ops

let run_config (cfg : Mtj_core.Config.t) ~optimizing ops entry =
  let rtc = Mtj_rt.Ctx.create ~config:cfg () in
  let jitlog = Jitlog.create () in
  let ops = copy_ops ops in
  let ops, loop_base, loop_start =
    if optimizing then Opt.optimize cfg ~kind:`Bridge ops ~entry_slots
    else (ops, 0, 0)
  in
  Check_traces.ops ~what:"random trace" ops ~entry_slots ~loop_base;
  let trace =
    Backend.compile jitlog rtc
      ~kind:(Ir.Bridge { from_guard = -1; loop_code = 0; loop_pc = 0 })
      ~entry_slots ~loop_base ~loop_start ops
  in
  let exit = Executor.run rtc jitlog ~trace ~entry:(Array.copy entry) in
  match (exit.Executor.finished, exit.Executor.failed_guard) with
  | Some v, None -> "finish:" ^ V.repr v
  | None, Some g ->
      (* deopt: fingerprint the failed guard and every materialized
         frame slot (virtual objects print their rebuilt contents) *)
      let buf = Buffer.create 64 in
      Buffer.add_string buf (Printf.sprintf "deopt:%d" g.Ir.guard_id);
      ignore
        (List.fold_left
           (fun base (f : Ir.frame_snap) ->
             Buffer.add_string buf (Printf.sprintf "|pc=%d:" f.Ir.snap_pc);
             let nlocals = Array.length f.Ir.snap_locals in
             for i = base to base + nlocals - 1 do
               Buffer.add_string buf (V.repr exit.Executor.values.(i) ^ ",")
             done;
             base + nlocals + Array.length f.Ir.snap_stack)
           0 exit.Executor.frames
          : int);
      Buffer.contents buf
  | _ -> Alcotest.fail "trace did not finish"

let base = Mtj_core.Config.default

let configs =
  [
    ("noopt", { base with Mtj_core.Config.opt_fold = false;
                opt_guard_elim = false; opt_forward = false;
                opt_virtuals = false; opt_peel = false });
    ("full", base);
    ("novirtuals", { base with Mtj_core.Config.opt_virtuals = false });
    ("noforward", { base with Mtj_core.Config.opt_forward = false });
    ("nofold", { base with Mtj_core.Config.opt_fold = false });
  ]

let prop_opt_sound =
  QCheck.Test.make ~name:"optimizer preserves random trace semantics"
    ~count:400
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let ops, entry = gen_program seed in
      let reference = run_config base ~optimizing:false ops entry in
      List.for_all
        (fun (name, cfg) ->
          let v = run_config cfg ~optimizing:true ops entry in
          if String.equal v reference then true
          else
            QCheck.Test.fail_reportf
              "seed %d config %s: optimized=%s reference=%s" seed name v
              reference)
        configs)

(* meta-check: the generator really produces both outcomes, so the
   property above is exercising the deopt path, not just Finish *)
let test_generator_covers_deopt () =
  let finishes = ref 0 and deopts = ref 0 in
  for seed = 1 to 200 do
    let ops, entry = gen_program seed in
    let r = run_config base ~optimizing:false ops entry in
    if String.length r >= 6 && String.sub r 0 6 = "deopt:" then incr deopts
    else incr finishes
  done;
  Alcotest.(check bool) "some runs finish" true (!finishes > 20);
  Alcotest.(check bool) "some runs deopt" true (!deopts > 20)

(* --- sharing oracle ---

   Recorded snapshots share frames and locals arrays between
   consecutive bytecodes, and the optimizer rewrites each shared piece
   once. The oracle: optimizing a trace gives, op for op, what
   optimizing a copy with every snapshot record, frame and array
   pulled apart gives — resume sources and virtual numbering
   included. *)

let unshare (ops : Ir.op array) =
  let sources = Array.copy in
  let resume (r : Ir.resume) =
    {
      Ir.frames =
        List.map
          (fun (f : Ir.frame_snap) ->
            {
              f with
              Ir.snap_locals = sources f.Ir.snap_locals;
              snap_stack = sources f.Ir.snap_stack;
            })
          r.Ir.frames;
      r_virtuals =
        Array.map
          (function
            | Ir.V_instance { v_cls; v_fields } ->
                Ir.V_instance { v_cls; v_fields = sources v_fields }
            | Ir.V_tuple a -> Ir.V_tuple (sources a)
            | Ir.V_list a -> Ir.V_list (sources a)
            | Ir.V_cell s -> Ir.V_cell s)
          r.Ir.r_virtuals;
    }
  in
  Array.map
    (fun (op : Ir.op) ->
      let opcode =
        match op.Ir.opcode with
        | Ir.Guard g ->
            Ir.Guard
              { g with Ir.resume = resume g.Ir.resume; fail_count = 0;
                bridge = None }
        | Ir.Debug_merge_point d ->
            Ir.Debug_merge_point { d with dmp_resume = resume d.dmp_resume }
        | other -> other
      in
      { op with Ir.opcode; args = Array.copy op.Ir.args })
    ops

(* constants the two runs folded separately are equal boxes, not one *)
let const_eq x y =
  x == y
  || (V.is_float x && V.is_float y
     && Int64.equal
          (Int64.bits_of_float (V.to_float_unchecked x))
          (Int64.bits_of_float (V.to_float_unchecked y)))
  || (V.is_str x && V.is_str y
     && String.equal (V.to_str_unchecked x) (V.to_str_unchecked y))

let source_eq (a : Ir.source) (b : Ir.source) =
  match (a, b) with
  | Ir.S_reg x, Ir.S_reg y | Ir.S_virtual x, Ir.S_virtual y -> x = y
  | Ir.S_const x, Ir.S_const y -> const_eq x y
  | _ -> false

let sources_eq a b =
  Array.length a = Array.length b && Array.for_all2 source_eq a b

let resume_eq (a : Ir.resume) (b : Ir.resume) =
  List.equal
    (fun (f : Ir.frame_snap) (g : Ir.frame_snap) ->
      f.Ir.snap_code = g.Ir.snap_code
      && f.Ir.snap_pc = g.Ir.snap_pc
      && f.Ir.snap_discard = g.Ir.snap_discard
      && sources_eq f.Ir.snap_locals g.Ir.snap_locals
      && sources_eq f.Ir.snap_stack g.Ir.snap_stack)
    a.Ir.frames b.Ir.frames
  && Array.length a.Ir.r_virtuals = Array.length b.Ir.r_virtuals
  && Array.for_all2
       (fun (x : Ir.vdesc) (y : Ir.vdesc) ->
         match (x, y) with
         | Ir.V_instance x, Ir.V_instance y ->
             x.v_cls == y.v_cls && sources_eq x.v_fields y.v_fields
         | Ir.V_tuple x, Ir.V_tuple y | Ir.V_list x, Ir.V_list y ->
             sources_eq x y
         | Ir.V_cell x, Ir.V_cell y -> source_eq x y
         | _ -> false)
       a.Ir.r_virtuals b.Ir.r_virtuals

let pp_resume fmt (r : Ir.resume) =
  let src = function
    | Ir.S_reg r -> Printf.sprintf "r%d" r
    | Ir.S_const v -> V.repr v
    | Ir.S_virtual k -> Printf.sprintf "v%d" k
  in
  let srcs a = String.concat "," (Array.to_list (Array.map src a)) in
  List.iter
    (fun (f : Ir.frame_snap) ->
      Format.fprintf fmt "[%d@%d L(%s) S(%s)]" f.Ir.snap_code f.Ir.snap_pc
        (srcs f.Ir.snap_locals) (srcs f.Ir.snap_stack))
    r.Ir.frames;
  Array.iteri
    (fun i (d : Ir.vdesc) ->
      Format.fprintf fmt " v%d=%s" i
        (match d with
        | Ir.V_instance { v_fields; _ } -> "inst(" ^ srcs v_fields ^ ")"
        | Ir.V_tuple a -> "tuple(" ^ srcs a ^ ")"
        | Ir.V_list a -> "list(" ^ srcs a ^ ")"
        | Ir.V_cell s -> "cell(" ^ src s ^ ")"))
    r.Ir.r_virtuals

let pp_op fmt (op : Ir.op) =
  Ir.pp_op fmt op;
  match op.Ir.opcode with
  | Ir.Guard g -> Format.fprintf fmt " %a" pp_resume g.Ir.resume
  | Ir.Debug_merge_point d -> Format.fprintf fmt " %a" pp_resume d.dmp_resume
  | _ -> ()

let op_eq (a : Ir.op) (b : Ir.op) =
  a.Ir.result = b.Ir.result
  && Array.length a.Ir.args = Array.length b.Ir.args
  && Array.for_all2
       (fun (x : Ir.operand) (y : Ir.operand) ->
         match (x, y) with
         | Ir.Reg x, Ir.Reg y -> x = y
         | Ir.Const x, Ir.Const y -> const_eq x y
         | _ -> false)
       a.Ir.args b.Ir.args
  &&
  match (a.Ir.opcode, b.Ir.opcode) with
  | Ir.Guard g, Ir.Guard h ->
      g.Ir.guard_id = h.Ir.guard_id
      && g.Ir.gkind == h.Ir.gkind
      && g.Ir.bridgeable = h.Ir.bridgeable
      && resume_eq g.Ir.resume h.Ir.resume
  | Ir.Debug_merge_point d, Ir.Debug_merge_point e ->
      d.dmp_code = e.dmp_code && d.dmp_pc = e.dmp_pc
      && resume_eq d.dmp_resume e.dmp_resume
  | x, y -> x == y

(* optimize [ops] shared and pulled apart; both runs mint the same guard
   ids for the peeled body *)
let check_oracle ~what cfg ~kind ops ~entry_slots =
  let optimize ops =
    Recorder.reset_guard_ids ();
    Opt.optimize cfg ~kind ops ~entry_slots
  in
  let shared, base, start = optimize (Ir.copy_ops ops) in
  let apart, base', start' = optimize (unshare ops) in
  if base <> base' || start <> start' || Array.length shared <> Array.length apart
  then
    Alcotest.failf "%s: shape %d/%d/%d shared vs %d/%d/%d apart" what
      (Array.length shared) base start (Array.length apart) base' start';
  Array.iteri
    (fun i op ->
      if not (op_eq op apart.(i)) then
        Alcotest.failf "%s: op %d differs:\n%s\nvs\n%s" what i
          (Format.asprintf "%a" pp_op op)
          (Format.asprintf "%a" pp_op apart.(i)))
    shared;
  Check_traces.ops ~what shared ~entry_slots ~loop_base:base

(* every benchmark's raw recordings: the baseline tier compiles traces
   without optimizing them *)
let corpus_traces =
  lazy
    (let module B = Mtj_benchmarks.Registry in
     let config = Mtj_core.Config.with_budget 1_500_000 Mtj_core.Config.baseline_tier in
     List.concat_map
       (fun (b : B.bench) ->
         let jitlog =
           match b.B.lang with
           | B.Py -> Mtj_pylite.Vm.jitlog (snd (Mtj_pylite.Vm.run ~config b.B.source))
           | B.Rk -> Mtj_rklite.Kvm.jitlog (snd (Mtj_rklite.Kvm.run ~config b.B.source))
         in
         List.filter_map
           (fun (tr : Ir.trace) ->
             if tr.Ir.tier = 1 then Some (b.B.name, tr) else None)
           (Jitlog.traces jitlog))
       B.all)

let test_oracle_corpus () =
  let traces = Lazy.force corpus_traces in
  Alcotest.(check bool) "corpus recorded traces" true (List.length traces > 100);
  List.iter
    (fun (name, (tr : Ir.trace)) ->
      let kind = match tr.Ir.kind with Ir.Loop _ -> `Loop | Ir.Bridge _ -> `Bridge in
      List.iter
        (fun (cname, cfg) ->
          check_oracle
            ~what:(Printf.sprintf "%s trace %d (%s)" name tr.Ir.trace_id cname)
            cfg ~kind tr.Ir.ops ~entry_slots:tr.Ir.entry_slots)
        (List.filter (fun (n, _) -> n = "full") configs))
    traces

(* a variant of a random trace whose guards share snapshot pieces the
   way recorded ones do: a guard keeps the previous guard's frame whole,
   or only its locals array under its own pc. Registers are SSA, so the
   shared sources are defined at both guards. *)
let share_snapshots seed (ops : Ir.op array) =
  let rng = Random.State.make [| seed; 0x5ba4e |] in
  let prev = ref None in
  Array.map
    (fun (op : Ir.op) ->
      match (op.Ir.opcode, !prev) with
      | Ir.Guard g, Some (p : Ir.frame_snap) -> (
          match g.Ir.resume.Ir.frames with
          | [ f ] ->
              let f =
                match Random.State.int rng 3 with
                | 0 -> p
                | 1 -> { f with Ir.snap_locals = p.Ir.snap_locals }
                | _ -> f
              in
              prev := Some f;
              {
                op with
                Ir.opcode =
                  Ir.Guard { g with Ir.resume = { g.Ir.resume with Ir.frames = [ f ] } };
              }
          | _ -> op)
      | Ir.Guard { Ir.resume = { Ir.frames = [ f ]; _ }; _ }, None ->
          prev := Some f;
          op
      | _ -> op)
    ops

let prop_oracle_random =
  QCheck.Test.make ~name:"shared snapshots optimize like unshared copies"
    ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let ops, entry = gen_program seed in
      let ops = share_snapshots seed ops in
      List.iter
        (fun (name, cfg) ->
          List.iter
            (fun kind ->
              check_oracle
                ~what:(Printf.sprintf "seed %d config %s" seed name)
                cfg ~kind ops ~entry_slots)
            [ `Bridge; `Loop ])
        configs;
      (* sharing changes what a deopt rebuilds, not whether the
         optimizer preserves it *)
      String.equal
        (run_config base ~optimizing:false ops entry)
        (run_config base ~optimizing:true ops entry))

(* distinct (physical) snapshot arrays and frames of a trace's resumes *)
module Phys_arrays = Hashtbl.Make (struct
  type t = Ir.source array

  let equal = ( == )
  let hash = Hashtbl.hash
end)

module Phys_frames = Hashtbl.Make (struct
  type t = Ir.frame_snap

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let snapshot_pieces (ops : Ir.op array) =
  let arrays = Phys_arrays.create 64 and frames = Phys_frames.create 64 in
  Array.iter
    (fun (op : Ir.op) ->
      let resume =
        match op.Ir.opcode with
        | Ir.Guard g -> Some g.Ir.resume
        | Ir.Debug_merge_point d -> Some d.dmp_resume
        | _ -> None
      in
      Option.iter
        (fun (r : Ir.resume) ->
          List.iter
            (fun (f : Ir.frame_snap) ->
              Phys_frames.replace frames f ();
              Phys_arrays.replace arrays f.Ir.snap_locals ();
              Phys_arrays.replace arrays f.Ir.snap_stack ())
            r.Ir.frames)
        resume)
    ops;
  (Phys_frames.length frames, Phys_arrays.length arrays)

let test_copy_ops_keeps_sharing () =
  List.iter
    (fun (name, (tr : Ir.trace)) ->
      let frames, arrays = snapshot_pieces tr.Ir.ops in
      let frames', arrays' = snapshot_pieces (Ir.copy_ops tr.Ir.ops) in
      if frames' > frames || arrays' > arrays then
        Alcotest.failf "%s trace %d: copy has %d frames / %d arrays, input %d / %d"
          name tr.Ir.trace_id frames' arrays' frames arrays)
    (Lazy.force corpus_traces)

(* consecutive bytecodes inside an inlined call leave the caller's
   frame unchanged: its snapshot is one shared frame, not a copy *)
let test_recorded_outer_frames_shared () =
  let shared = ref 0 in
  List.iter
    (fun (name, (tr : Ir.trace)) ->
      if name = "richards" then begin
        let prev = ref [] in
        Array.iter
          (fun (op : Ir.op) ->
            match op.Ir.opcode with
            | Ir.Debug_merge_point d ->
                let frames = d.dmp_resume.Ir.frames in
                (match (frames, !prev) with
                | outer :: _ :: _, outer' :: _ :: _ ->
                    let same =
                      resume_eq
                        { Ir.frames = [ outer ]; r_virtuals = [||] }
                        { Ir.frames = [ outer' ]; r_virtuals = [||] }
                    in
                    if same && outer != outer' then
                      Alcotest.failf "richards trace %d: unchanged outer frame copied"
                        tr.Ir.trace_id;
                    if same then incr shared
                | _ -> ());
                prev := frames
            | _ -> ())
          tr.Ir.ops
      end)
    (Lazy.force corpus_traces);
  Alcotest.(check bool) "richards shares outer frames" true (!shared > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_opt_sound;
    Alcotest.test_case "generator covers finish and deopt" `Quick
      test_generator_covers_deopt;
    Alcotest.test_case "shared snapshots optimize like unshared copies (corpus)"
      `Quick test_oracle_corpus;
    QCheck_alcotest.to_alcotest prop_oracle_random;
    Alcotest.test_case "recorded outer frames are shared" `Quick
      test_recorded_outer_frames_shared;
    Alcotest.test_case "copy_ops adds no snapshot arrays" `Quick
      test_copy_ops_keeps_sharing;
  ]
