(** Differential testing of the JIT: randomly generated pylite programs
    must print exactly the same output under the plain interpreter, the
    full JIT, and the JIT with each optimizer pass disabled.  This is the
    main semantic-preservation property of the whole framework (trace
    recording, optimization, execution, deoptimization). *)

module V = Mtj_pylite.Vm
module C = Mtj_core.Config

(* --- a small random program generator --- *)

type rng = { mutable st : int }

let next r =
  (* xorshift, deterministic across runs *)
  let x = r.st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  r.st <- x land max_int;
  r.st

let rand r n = if n <= 0 then 0 else next r mod n

let pick r l = List.nth l (rand r (List.length l))

let vars = [ "a"; "b"; "c"; "d" ]

(* arithmetic expression over int variables; division-free to avoid
   divide-by-zero control flow differences *)
let rec gen_expr r depth =
  if depth = 0 || rand r 3 = 0 then
    match rand r 3 with
    | 0 -> string_of_int (rand r 100)
    | 1 -> pick r vars
    | _ -> Printf.sprintf "(%s %% %d + %d)" (pick r vars) (2 + rand r 7) (rand r 5)
  else
    let op = pick r [ "+"; "-"; "*"; "&"; "|"; "^" ] in
    Printf.sprintf "(%s %s %s)" (gen_expr r (depth - 1)) op
      (gen_expr r (depth - 1))

let gen_cond r =
  Printf.sprintf "%s %s %s" (pick r vars)
    (pick r [ "<"; "<="; ">"; ">="; "=="; "!=" ])
    (gen_expr r 1)

let rec gen_stmt r indent depth =
  let pad = String.make indent ' ' in
  match rand r (if depth > 0 then 6 else 3) with
  | 0 -> Printf.sprintf "%s%s = %s\n" pad (pick r vars) (gen_expr r 2)
  | 1 -> Printf.sprintf "%s%s = %s + %s\n" pad (pick r vars) (pick r vars) (pick r vars)
  | 2 ->
      Printf.sprintf "%sacc = (acc + %s) %% 1000003\n" pad (gen_expr r 2)
  | 3 ->
      Printf.sprintf "%sif %s:\n%s%selse:\n%s" pad (gen_cond r)
        (gen_block r (indent + 4) (depth - 1))
        pad
        (gen_block r (indent + 4) (depth - 1))
  | 4 ->
      (* an inner counted loop *)
      Printf.sprintf "%sfor k in range(%d):\n%s" pad
        (1 + rand r 5)
        (gen_block r (indent + 4) (depth - 1))
  | _ ->
      Printf.sprintf "%sl[%d] = (l[%d] + %s) %% 256\n%sacc = acc + l[%d]\n"
        pad (rand r 8) (rand r 8) (pick r vars) pad (rand r 8)

and gen_block r indent depth =
  let n = 1 + rand r 3 in
  String.concat "" (List.init n (fun _ -> gen_stmt r indent depth))

let gen_program seed =
  let r = { st = (seed * 2654435761) lor 1 } in
  let body = gen_block r 8 2 in
  Printf.sprintf
    {|
def work(n):
    acc = 0
    a = 1
    b = 2
    c = 3
    d = 4
    l = [0, 1, 2, 3, 4, 5, 6, 7]
    for i in range(n):
        a = (a + i) %% 97
        b = (b + a) %% 89
%s        acc = (acc + a + b + c + d) %% 1000003
    return acc

print(work(120))
print(work(35))
|}
    body

(* --- run one source under many configurations --- *)

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
    ( "jit-nopeel",
      { C.default with C.jit_threshold = 9; bridge_threshold = 3;
        insn_budget = budget; opt_peel = false } );
    ( "jit-novirtuals",
      { C.default with C.jit_threshold = 9; bridge_threshold = 3;
        insn_budget = budget; opt_virtuals = false } );
    ( "jit-2tier",
      (* tiny tier-2 threshold so recompiles actually fire in small tests *)
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

let prop_random_programs =
  QCheck.Test.make ~name:"random programs: interp = jit = ablated jits"
    ~count:25
    (QCheck.make QCheck.Gen.(int_range 1 100000))
    (fun seed ->
      let src = gen_program seed in
      let results = List.map (fun (_, c) -> run_one c src) configs in
      List.for_all (fun o -> o = List.hd results) results)

let suite =
  List.init 12 (fun i ->
      Alcotest.test_case
        (Printf.sprintf "generated program %d" i)
        `Quick
        (check_seed (1000 + (i * 7919))))
  @ [ QCheck_alcotest.to_alcotest prop_random_programs ]
