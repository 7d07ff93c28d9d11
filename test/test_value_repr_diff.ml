(** Representation-differential tests for the immediate-tagged value
    model.

    The abstract [Value.t] packs nil/bool/int into OCaml native tagged
    immediates and keeps float/str/obj boxed; everything observable —
    arithmetic semantics, overflow normalization, hashing, simulated
    digests — must be indistinguishable from the old concrete variant.
    Three layers of evidence:

    - unit tests pinning EVERY constructor/destructor pair in
      [value.mli] as an identity (and the tag predicates as mutually
      exclusive), so no future repacking can silently change a kind;
    - QCheck properties holding [Rarith] to an exact [Rbigint] oracle
      at the native-int boundary (min_int negation, lshift past the
      word, add/sub/mul overflow → bigint promotion, and the
      fits-back-in-an-int ⇒ immediate normalization direction);
    - digest differentials over RANDOM generated programs: the host-side
      paths (threaded dispatch vs the decode-and-match oracle, pooled vs
      unpooled frames) must leave the simulated machine counters and
      program output byte-identical in both VMs. *)

module V = Mtj_rt.Value
module Ctx = Mtj_rt.Ctx
module Rarith = Mtj_rt.Rarith
module Rbigint = Mtj_rt.Rbigint
module Config = Mtj_core.Config
module Counters = Mtj_machine.Counters
module Engine = Mtj_machine.Engine

let ctx () = Ctx.create ~config:Config.no_jit ()

(* ---------- constructor/destructor identities ---------- *)

let boundary_ints =
  [ 0; 1; -1; 7; -42; 255; 256; 65_535; 1 lsl 40; max_int - 1; max_int;
    min_int + 1; min_int ]

let test_int_identity () =
  List.iter
    (fun i ->
      let v = V.of_int i in
      Alcotest.(check bool) (Printf.sprintf "is_int %d" i) true (V.is_int v);
      Alcotest.(check int)
        (Printf.sprintf "to_int (of_int %d)" i)
        i (V.to_int_unchecked v);
      (match V.view v with
      | V.Int j ->
          Alcotest.(check int) (Printf.sprintf "view Int %d" i) i j
      | _ -> Alcotest.failf "view (of_int %d) is not Int" i);
      (* immediates: building the same int twice is the same word *)
      if not (V.of_int i == V.of_int i) then
        Alcotest.failf "of_int %d allocated" i)
    boundary_ints

let test_bool_nil_identity () =
  Alcotest.(check bool) "to_bool true_" true (V.to_bool_unchecked V.true_);
  Alcotest.(check bool) "to_bool false_" false (V.to_bool_unchecked V.false_);
  Alcotest.(check bool) "of_bool true == true_" true
    (V.of_bool true == V.true_);
  Alcotest.(check bool) "of_bool false == false_" true
    (V.of_bool false == V.false_);
  (match V.view V.true_ with
  | V.Bool true -> ()
  | _ -> Alcotest.fail "view true_ is not Bool true");
  (match V.view V.false_ with
  | V.Bool false -> ()
  | _ -> Alcotest.fail "view false_ is not Bool false");
  (match V.view V.nil with
  | V.Nil -> ()
  | _ -> Alcotest.fail "view nil is not Nil");
  Alcotest.(check bool) "is_nil nil" true (V.is_nil V.nil)

let test_float_identity () =
  List.iter
    (fun f ->
      let v = V.of_float f in
      Alcotest.(check bool) (Printf.sprintf "is_float %h" f) true
        (V.is_float v);
      (* bit-exact round-trip: covers nan, -0. and infinities *)
      Alcotest.(check int64)
        (Printf.sprintf "to_float (of_float %h) bits" f)
        (Int64.bits_of_float f)
        (Int64.bits_of_float (V.to_float_unchecked v));
      match V.view v with
      | V.Float g ->
          Alcotest.(check int64)
            (Printf.sprintf "view Float %h bits" f)
            (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> Alcotest.failf "view (of_float %h) is not Float" f)
    [ 0.0; -0.0; 1.5; -3.25; Float.nan; Float.infinity; Float.neg_infinity;
      1e300; 4.2e-310 (* subnormal *) ]

let test_str_identity () =
  let s = "hello" in
  let v = V.of_str s in
  Alcotest.(check bool) "is_str" true (V.is_str v);
  (* the destructor returns the very same host string, not a copy *)
  Alcotest.(check bool) "to_str physical" true (V.to_str_unchecked v == s);
  (match V.view v with
  | V.Str s' -> Alcotest.(check bool) "view Str physical" true (s' == s)
  | _ -> Alcotest.fail "view (of_str s) is not Str");
  let e = V.of_str "" in
  Alcotest.(check string) "empty string" "" (V.to_str_unchecked e)

let mk_obj payload =
  {
    V.uid = 424_242;
    payload;
    gc_gen = 0;
    gc_age = 0;
    gc_mark = false;
    remembered = false;
    words = 0;
  }

let test_obj_identity () =
  let o = mk_obj (V.Tuple [| V.of_int 1; V.nil |]) in
  let v = V.of_obj o in
  Alcotest.(check bool) "is_obj" true (V.is_obj v);
  Alcotest.(check bool) "to_obj physical" true (V.to_obj_unchecked v == o);
  match V.view v with
  | V.Obj o' -> Alcotest.(check bool) "view Obj physical" true (o' == o)
  | _ -> Alcotest.fail "view (of_obj o) is not Obj"

let test_predicate_exclusivity () =
  let kinds =
    [
      ("nil", V.nil);
      ("true", V.true_);
      ("int 0", V.of_int 0);
      ("int 1", V.of_int 1);
      ("int min_int", V.of_int min_int);
      ("float 0.", V.of_float 0.0);
      ("str \"\"", V.of_str "");
      ("obj", V.of_obj (mk_obj (V.Tuple [||])));
    ]
  in
  List.iter
    (fun (label, v) ->
      let n =
        List.length
          (List.filter
             (fun p -> p v)
             [ V.is_nil; V.is_bool; V.is_int; V.is_float; V.is_str; V.is_obj ])
      in
      Alcotest.(check int) (label ^ ": exactly one tag") 1 n)
    kinds

(* ---------- arithmetic against the bigint oracle ---------- *)

(* a runtime number must agree with the exact oracle AND sit on the
   right side of the immediate/bigint divide: results that fit a native
   int are immediates, results that do not are bigint objects *)
let agrees_with_oracle v (expected : Rbigint.t) =
  match V.view v with
  | V.Int i ->
      Rbigint.equal (Rbigint.of_int i) expected
      && Rbigint.to_int_opt expected <> None
  | V.Obj { payload = V.Bigint b; _ } ->
      Rbigint.equal b expected && Rbigint.to_int_opt expected = None
  | _ -> false

let gen_boundary_int =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (-1000) 1000);
        (3, int);
        ( 2,
          oneofl
            [
              min_int; min_int + 1; max_int; max_int - 1; 0; 1; -1;
              1 lsl 61; -(1 lsl 61); (1 lsl 62) - 1;
            ] );
      ])

let arb_boundary_int = QCheck.make ~print:string_of_int gen_boundary_int

let arb_boundary_pair =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
    QCheck.Gen.(pair gen_boundary_int gen_boundary_int)

let prop_addsubmul_oracle =
  QCheck.Test.make ~name:"add/sub/mul match the bigint oracle" ~count:1000
    arb_boundary_pair (fun (a, b) ->
      let c = ctx () in
      let va = V.of_int a and vb = V.of_int b in
      let big = Rbigint.of_int in
      agrees_with_oracle (Rarith.add c va vb) (Rbigint.add (big a) (big b))
      && agrees_with_oracle (Rarith.sub c va vb) (Rbigint.sub (big a) (big b))
      && agrees_with_oracle (Rarith.mul c va vb) (Rbigint.mul (big a) (big b)))

let prop_neg_oracle =
  QCheck.Test.make ~name:"negation matches the bigint oracle (incl. min_int)"
    ~count:500 arb_boundary_int (fun a ->
      let c = ctx () in
      agrees_with_oracle (Rarith.neg c (V.of_int a))
        (Rbigint.neg (Rbigint.of_int a)))

let prop_shift_oracle =
  QCheck.Test.make ~name:"lshift/rshift match the bigint oracle" ~count:500
    (QCheck.make
       ~print:(fun (a, k) -> Printf.sprintf "(%d, %d)" a k)
       QCheck.Gen.(pair gen_boundary_int (int_range 0 70)))
    (fun (a, k) ->
      let c = ctx () in
      let big = Rbigint.of_int a in
      agrees_with_oracle (Rarith.lshift c (V.of_int a) k) (Rbigint.lshift big k)
      && agrees_with_oracle (Rarith.rshift c (V.of_int a) k)
           (Rbigint.rshift big k))

(* the pinned corner cases the properties are built around *)
let test_overflow_pins () =
  let c = ctx () in
  let s v = V.repr v in
  (* -min_int = 2^62: one past max_int, must promote *)
  Alcotest.(check string) "-min_int" "4611686018427387904"
    (s (Rarith.neg c (V.of_int min_int)));
  Alcotest.(check string) "max_int + 1" "4611686018427387904"
    (s (Rarith.add c (V.of_int max_int) (V.of_int 1)));
  Alcotest.(check string) "min_int - 1" "-4611686018427387905"
    (s (Rarith.sub c (V.of_int min_int) (V.of_int 1)));
  Alcotest.(check string) "min_int << 1" "-9223372036854775808"
    (s (Rarith.lshift c (V.of_int min_int) 1));
  (* ...and the normalization direction back down to an immediate *)
  let back = Rarith.sub c (Rarith.add c (V.of_int max_int) (V.of_int 1))
      (V.of_int 1) in
  Alcotest.(check bool) "(max_int + 1) - 1 is immediate again" true
    (V.is_int back);
  Alcotest.(check int) "(max_int + 1) - 1 value" max_int
    (V.to_int_unchecked back)

(* hash/equality agreement across the immediate/boxed divide *)
let prop_imm_float_hash =
  QCheck.Test.make
    ~name:"immediate int and boxed float twins agree on py_eq/py_hash"
    ~count:1000
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof
           [
             int_range (-5000) 5000;
             int_range (-9_000_000_000_000_000) 9_000_000_000_000_000;
           ]))
    (fun i ->
      let vi = V.of_int i and vf = V.of_float (float_of_int i) in
      V.py_eq vi vf && V.py_hash vi = V.py_hash vf)

(* ---------- random-program digest differentials ---------- *)

(* tiny arithmetic expression language rendered to both guest syntaxes;
   division is kept away from zero by construction *)
type expr =
  | Lit of int
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Neg of expr

let rec py_str = function
  | Lit n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (py_str a) (py_str b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (py_str a) (py_str b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (py_str a) (py_str b)
  | Neg a -> Printf.sprintf "(0 - %s)" (py_str a)

let rec rk_str = function
  | Lit n -> if n < 0 then Printf.sprintf "(- 0 %d)" (-n) else string_of_int n
  | Add (a, b) -> Printf.sprintf "(+ %s %s)" (rk_str a) (rk_str b)
  | Sub (a, b) -> Printf.sprintf "(- %s %s)" (rk_str a) (rk_str b)
  | Mul (a, b) -> Printf.sprintf "(* %s %s)" (rk_str a) (rk_str b)
  | Neg a -> Printf.sprintf "(- 0 %s)" (rk_str a)

let gen_expr =
  QCheck.Gen.(
    sized_size (int_range 0 4) @@ fix (fun self n ->
        let lit =
          map
            (fun i -> Lit i)
            (oneof
               [
                 int_range (-100) 100;
                 oneofl [ 4611686018427387903 (* max_int *); 1000000007; 0; 1 ];
               ])
        in
        if n = 0 then lit
        else
          frequency
            [
              (1, lit);
              ( 4,
                map2
                  (fun op (a, b) -> op a b)
                  (oneofl
                     [
                       (fun a b -> Add (a, b));
                       (fun a b -> Sub (a, b));
                       (fun a b -> Mul (a, b));
                     ])
                  (pair (self (n / 2)) (self (n / 2))) );
              (1, map (fun a -> Neg a) (self (n / 2)));
            ]))

let arb_expr = QCheck.make ~print:py_str gen_expr

let snap_str (s : Counters.snapshot) =
  Printf.sprintf "i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" s.Counters.insns
    s.Counters.cycles s.Counters.branches s.Counters.branch_misses
    s.Counters.loads s.Counters.stores s.Counters.cache_misses

let status_of = function
  | Mtj_rjit.Driver.Completed _ -> "ok"
  | Mtj_rjit.Driver.Budget_exceeded -> "budget"
  | Mtj_rjit.Driver.Runtime_error e -> "failed: " ^ e

let digest (module V : Mtj_rjit.Vm.S) ~config src =
  let vm = V.create ~config () in
  let outcome = V.run_source vm src in
  Printf.sprintf "%s|%s|%s" (status_of outcome) (V.output vm)
    (snap_str (Counters.total (Engine.counters (V.engine vm))))

(* the four host-side paths that must be indistinguishable in the
   simulation: threaded dispatch or the decode-and-match oracle, frame
   pooling on or off *)
let host_paths lang base =
  List.concat_map
    (fun vm ->
      List.map
        (fun pool -> (vm, { base with Config.frame_pool = pool }))
        [ true; false ])
    [ Mtj_harness.Runner.vm_of lang; Ref_dispatch.vm_of lang ]

let digests lang base src =
  List.map (fun (vm, config) -> digest vm ~config src) (host_paths lang base)

let all_equal = function
  | [] | [ _ ] -> true
  | d :: rest -> List.for_all (String.equal d) rest

let base_config = Config.with_budget 500_000 Config.no_jit

let prop_py_digest =
  QCheck.Test.make
    ~name:"pylite: random expr digest invariant under host knobs" ~count:40
    arb_expr (fun e ->
      let src = Printf.sprintf "print(%s)\n" (py_str e) in
      all_equal (digests Mtj_benchmarks.Registry.Py base_config src))

let prop_rk_digest =
  QCheck.Test.make
    ~name:"rklite: random expr digest invariant under host knobs" ~count:40
    arb_expr (fun e ->
      let src = Printf.sprintf "(display %s)" (rk_str e) in
      all_equal (digests Mtj_benchmarks.Registry.Rk base_config src))

(* a JITted loop over a random expression: the trace executor and both
   interpreter tiers must tell the same story *)
let prop_py_loop_digest =
  QCheck.Test.make
    ~name:"pylite: random JITted loop digest invariant under host knobs"
    ~count:10 arb_expr (fun e ->
      let src =
        Printf.sprintf
          "acc = 0\ni = 0\nwhile i < 300:\n    acc = acc + %s\n    i = i + 1\nprint(acc)\n"
          (py_str e)
      in
      let base = Config.with_budget 2_000_000 Config.default in
      all_equal (digests Mtj_benchmarks.Registry.Py base src))

let suite =
  [
    Alcotest.test_case "int constructor/destructor identity" `Quick
      test_int_identity;
    Alcotest.test_case "bool/nil constructor/destructor identity" `Quick
      test_bool_nil_identity;
    Alcotest.test_case "float constructor/destructor identity" `Quick
      test_float_identity;
    Alcotest.test_case "str constructor/destructor identity" `Quick
      test_str_identity;
    Alcotest.test_case "obj constructor/destructor identity" `Quick
      test_obj_identity;
    Alcotest.test_case "tag predicates mutually exclusive" `Quick
      test_predicate_exclusivity;
    Alcotest.test_case "overflow promotion/normalization pins" `Quick
      test_overflow_pins;
    QCheck_alcotest.to_alcotest prop_addsubmul_oracle;
    QCheck_alcotest.to_alcotest prop_neg_oracle;
    QCheck_alcotest.to_alcotest prop_shift_oracle;
    QCheck_alcotest.to_alcotest prop_imm_float_hash;
    QCheck_alcotest.to_alcotest prop_py_digest;
    QCheck_alcotest.to_alcotest prop_rk_digest;
    QCheck_alcotest.to_alcotest prop_py_loop_digest;
  ]
