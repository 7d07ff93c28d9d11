(** Differential testing of the JIT on the Scheme-subset VM: randomly
    generated rklite programs must print exactly the same output under
    the plain interpreter, the full JIT, each pass-ablated JIT, and the
    two-tier JIT. Complements the pylite generator with proper tail
    calls, closures, vectors and cons pairs — the code shapes rklite
    compiles differently (self-tail-jump loops instead of FOR_RANGE). *)

module V = Mtj_rklite.Kvm
module C = Mtj_core.Config

type rng = { mutable st : int }

let next r =
  let x = r.st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  r.st <- x land max_int;
  r.st

let rand r n = if n <= 0 then 0 else next r mod n
let pick r l = List.nth l (rand r (List.length l))

let vars = [ "a"; "b"; "i" ]

(* integer expression over the loop variables; modulo keeps everything
   bounded and division-free (no divide-by-zero divergence) *)
let rec gen_expr r depth =
  if depth = 0 || rand r 3 = 0 then
    match rand r 3 with
    | 0 -> string_of_int (rand r 100)
    | 1 -> pick r vars
    | _ -> Printf.sprintf "(modulo %s %d)" (pick r vars) (2 + rand r 9)
  else
    let op = pick r [ "+"; "-"; "*" ] in
    let wrap e =
      (* keep products bounded *)
      if op = "*" then Printf.sprintf "(modulo %s 97)" e else e
    in
    Printf.sprintf "(%s %s %s)" op
      (wrap (gen_expr r (depth - 1)))
      (wrap (gen_expr r (depth - 1)))

let gen_cond r =
  Printf.sprintf "(%s %s %s)"
    (pick r [ "<"; "<="; ">"; ">="; "=" ])
    (pick r vars) (gen_expr r 1)

(* one step of the accumulator: a branchy, vector-touching expression *)
let gen_step r =
  match rand r 5 with
  | 0 -> gen_expr r 2
  | 1 ->
      Printf.sprintf "(if %s %s %s)" (gen_cond r) (gen_expr r 2)
        (gen_expr r 2)
  | 2 ->
      let k = rand r 8 in
      Printf.sprintf
        "(begin (vector-set! v %d (modulo (+ (vector-ref v %d) %s) 256)) \
         (vector-ref v %d))"
        k k (gen_expr r 1) k
  | 3 ->
      (* a cons pair built and torn down *)
      Printf.sprintf "(car (cons %s %s))" (gen_expr r 1) (gen_expr r 1)
  | _ ->
      (* call a small helper closure *)
      Printf.sprintf "(f %s)" (gen_expr r 1)

let gen_program seed =
  let r = { st = (seed * 2654435761) lor 1 } in
  let helper_body = gen_expr r 2 in
  let steps = List.init (1 + rand r 3) (fun _ -> gen_step r) in
  let acc_update =
    List.fold_left
      (fun acc s -> Printf.sprintf "(modulo (+ %s %s) 1000003)" acc s)
      "acc" steps
  in
  Printf.sprintf
    {|
(define v (make-vector 8 3))
(define (f x) (modulo %s 1009))
(define (work n)
  (let loop ((i 0) (a 1) (b 2) (acc 0))
    (if (= i n) acc
        (let ((a (modulo (+ a i) 97))
              (b (modulo (+ b a) 89)))
          (loop (+ i 1) a b %s)))))
(display (work 150))
(newline)
(display (work 43))
(newline)
|}
    helper_body acc_update

let budget = 80_000_000

let configs =
  [
    ("interp", { C.no_jit with C.insn_budget = budget });
    ( "jit",
      { C.default with C.jit_threshold = 9; bridge_threshold = 3;
        insn_budget = budget } );
    ( "jit-noopt",
      { C.default with C.jit_threshold = 9; bridge_threshold = 3;
        insn_budget = budget; opt_fold = false; opt_guard_elim = false;
        opt_forward = false; opt_virtuals = false; opt_peel = false } );
    ( "jit-novirtuals",
      { C.default with C.jit_threshold = 9; bridge_threshold = 3;
        insn_budget = budget; opt_virtuals = false } );
    ( "jit-2tier",
      { C.default with C.jit_threshold = 9; bridge_threshold = 3;
        insn_budget = budget; tier_policy = C.Adaptive; tier2_threshold = 5 } );
  ]

let run_one config src =
  let outcome, vm = V.run ~config src in
  Check_traces.jitlog ~what:"generated program" (V.jitlog vm);
  match outcome with
  | Mtj_rjit.Driver.Completed _ -> V.output vm
  | Mtj_rjit.Driver.Budget_exceeded -> "<budget>"
  | Mtj_rjit.Driver.Runtime_error e -> "<error: " ^ e ^ ">"

let check_seed seed () =
  let src = gen_program seed in
  let results = List.map (fun (name, c) -> (name, run_one c src)) configs in
  let _, reference = List.hd results in
  List.iter
    (fun (name, out) ->
      if out <> reference then
        Alcotest.failf "seed %d: %s diverged\nprogram:\n%s\n%s=%S\ninterp=%S"
          seed name src name out reference)
    results

(* the generator must actually exercise the JIT: the hot named-let loop
   in a generated program compiles at least one trace *)
let test_generated_programs_compile () =
  let src = gen_program 2000 in
  let config = List.assoc "jit" configs in
  let vm = V.create ~config () in
  (match V.run_source vm src with
  | Mtj_rjit.Driver.Completed _ -> ()
  | _ -> Alcotest.fail "run failed");
  Alcotest.(check bool) "traces compiled" true
    (Mtj_rjit.Jitlog.num_traces (V.jitlog vm) >= 1);
  Alcotest.(check bool) "trace ran hot" true
    (List.exists
       (fun (tr : Mtj_rjit.Ir.trace) -> tr.Mtj_rjit.Ir.exec_count > 100)
       (Mtj_rjit.Jitlog.traces (V.jitlog vm)))

let prop_random_programs =
  QCheck.Test.make ~name:"random scheme programs: interp = all jits"
    ~count:25
    (QCheck.make QCheck.Gen.(int_range 1 100000))
    (fun seed ->
      let src = gen_program seed in
      let results = List.map (fun (_, c) -> run_one c src) configs in
      List.for_all (fun o -> o = List.hd results) results)

let suite =
  List.init 10 (fun i ->
      Alcotest.test_case
        (Printf.sprintf "generated scheme program %d" i)
        `Quick
        (check_seed (2000 + (i * 7919))))
  @ [
      Alcotest.test_case "generated programs compile" `Quick
        test_generated_programs_compile;
      QCheck_alcotest.to_alcotest prop_random_programs;
    ]
