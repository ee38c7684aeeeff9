(* Tests for the LP substrate: raw simplex and the model builder. *)

let check_float tol = Alcotest.(check (float tol))

(* --- Raw simplex ------------------------------------------------------- *)

(* min -x - y  s.t.  x + y + s1 = 4, x + s2 = 3, y + s3 = 2  -> x=3, y=1 *)
let test_simplex_basic () =
  match
    Lp.Simplex.solve
      ~a:
        [|
          [| 1.0; 1.0; 1.0; 0.0; 0.0 |];
          [| 1.0; 0.0; 0.0; 1.0; 0.0 |];
          [| 0.0; 1.0; 0.0; 0.0; 1.0 |];
        |]
      ~b:[| 4.0; 3.0; 2.0 |]
      ~c:[| -1.0; -1.0; 0.0; 0.0; 0.0 |]
      ()
  with
  | Lp.Simplex.Optimal { objective; x; _ } ->
      check_float 1e-8 "objective" (-4.0) objective;
      check_float 1e-8 "x" 3.0 x.(0);
      check_float 1e-8 "y" 1.0 x.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  (* x = 1 and x = 2 simultaneously *)
  match
    Lp.Simplex.solve
      ~a:[| [| 1.0 |]; [| 1.0 |] |]
      ~b:[| 1.0; 2.0 |] ~c:[| 0.0 |] ()
  with
  | Lp.Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  (* min -x s.t. x - y = 0: x can grow with y *)
  match
    Lp.Simplex.solve ~a:[| [| 1.0; -1.0 |] |] ~b:[| 0.0 |] ~c:[| -1.0; 0.0 |] ()
  with
  | Lp.Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_negative_rhs () =
  (* -x = -5  <=>  x = 5 *)
  match Lp.Simplex.solve ~a:[| [| -1.0 |] |] ~b:[| -5.0 |] ~c:[| 1.0 |] () with
  | Lp.Simplex.Optimal { x; _ } -> check_float 1e-8 "x" 5.0 x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_degenerate () =
  (* A degenerate corner: multiple constraints meet at the optimum. *)
  match
    Lp.Simplex.solve
      ~a:
        [|
          [| 1.0; 1.0; 1.0; 0.0 |];
          [| 1.0; 1.0; 0.0; 1.0 |];
        |]
      ~b:[| 1.0; 1.0 |]
      ~c:[| -1.0; -2.0; 0.0; 0.0 |]
      ()
  with
  | Lp.Simplex.Optimal { objective; _ } ->
      check_float 1e-8 "objective" (-2.0) objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_shape_validation () =
  Alcotest.(check bool) "ragged rejected" true
    (try
       ignore (Lp.Simplex.solve ~a:[| [| 1.0 |] |] ~b:[| 1.0; 2.0 |] ~c:[| 0.0 |] ());
       false
     with Invalid_argument _ -> true)

(* Klee-Minty cube in d dimensions: max Σ 2^(d-i) x_i subject to the
   classic staircase constraints. The optimum is 5^d at the last vertex;
   simplex may walk many vertices but must land there. *)
let test_simplex_klee_minty () =
  List.iter
    (fun d ->
      let m = Lp.create () in
      let xs =
        Array.init d (fun i -> Lp.add_var ~obj:(2.0 ** float_of_int (d - 1 - i)) m (Printf.sprintf "x%d" i))
      in
      for i = 0 to d - 1 do
        let terms = ref [ (1.0, xs.(i)) ] in
        for j = 0 to i - 1 do
          terms := (2.0 ** float_of_int (i - j + 1), xs.(j)) :: !terms
        done;
        Lp.add_constraint m !terms Lp.Le (5.0 ** float_of_int (i + 1))
      done;
      match Lp.solve ~maximize:true m with
      | Lp.Optimal s ->
          check_float 1e-4
            (Printf.sprintf "Klee-Minty d=%d" d)
            (5.0 ** float_of_int d)
            (Lp.objective_value s)
      | _ -> Alcotest.fail "expected optimal")
    [ 2; 3; 4; 5; 6 ]

let test_simplex_redundant_rows () =
  (* the same constraint thrice plus an implied one: must not confuse
     phase 1 or the driving-out of artificials *)
  let m = Lp.create () in
  let x = Lp.add_var ~obj:1.0 m "x" in
  let y = Lp.add_var ~obj:1.0 m "y" in
  Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Eq 4.0;
  Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Eq 4.0;
  Lp.add_constraint m [ (2.0, x); (2.0, y) ] Lp.Eq 8.0;
  Lp.add_constraint m [ (1.0, x) ] Lp.Ge 1.0;
  match Lp.solve m with
  | Lp.Optimal s -> check_float 1e-7 "objective" 4.0 (Lp.objective_value s)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_badly_scaled () =
  let m = Lp.create () in
  let x = Lp.add_var ~obj:1e6 m "x" in
  let y = Lp.add_var ~obj:1e-4 m "y" in
  Lp.add_constraint m [ (1e5, x); (1e-3, y) ] Lp.Ge 10.0;
  Lp.add_constraint m [ (1.0, y) ] Lp.Le 1e6;
  match Lp.solve m with
  | Lp.Optimal s ->
      (* cost(y) = 1e6·(10 - 1e-3·y)/1e5 + 1e-4·y = 100 - 0.0099·y while
         x > 0, so the optimum sits at y = 1e4 (x = 0) with cost 1 *)
      check_float 1e-3 "scaled objective" 1.0 (Lp.objective_value s)
  | _ -> Alcotest.fail "expected optimal"

(* --- Model builder ----------------------------------------------------- *)

let test_lp_minimize () =
  let m = Lp.create () in
  let x = Lp.add_var ~obj:2.0 m "x" in
  let y = Lp.add_var ~obj:3.0 m "y" in
  Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Ge 10.0;
  Lp.add_constraint m [ (1.0, x) ] Lp.Le 4.0;
  match Lp.solve m with
  | Lp.Optimal s ->
      (* x = 4, y = 6 -> 8 + 18 = 26 *)
      check_float 1e-7 "objective" 26.0 (Lp.objective_value s);
      check_float 1e-7 "x" 4.0 (Lp.value s x);
      check_float 1e-7 "y" 6.0 (Lp.value s y)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_maximize () =
  let m = Lp.create () in
  let x = Lp.add_var ~obj:3.0 ~ub:2.0 m "x" in
  let y = Lp.add_var ~obj:1.0 m "y" in
  Lp.add_constraint m [ (1.0, x); (2.0, y) ] Lp.Le 8.0;
  match Lp.solve ~maximize:true m with
  | Lp.Optimal s ->
      (* x = 2 (ub), y = 3 -> 9 *)
      check_float 1e-7 "objective" 9.0 (Lp.objective_value s);
      check_float 1e-7 "x at ub" 2.0 (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_lower_bound_shift () =
  let m = Lp.create () in
  let x = Lp.add_var ~lb:5.0 ~obj:1.0 m "x" in
  Lp.add_constraint m [ (1.0, x) ] Lp.Le 100.0;
  match Lp.solve m with
  | Lp.Optimal s -> check_float 1e-7 "x sits at lb" 5.0 (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_free_variable () =
  let m = Lp.create () in
  let x = Lp.add_var ~lb:neg_infinity ~obj:1.0 m "x" in
  Lp.add_constraint m [ (1.0, x) ] Lp.Ge (-7.0);
  match Lp.solve m with
  | Lp.Optimal s -> check_float 1e-7 "negative optimum" (-7.0) (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_equality () =
  let m = Lp.create () in
  let x = Lp.add_var ~obj:1.0 m "x" in
  let y = Lp.add_var ~obj:1.0 m "y" in
  Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Eq 3.0;
  Lp.add_constraint m [ (1.0, x); (-1.0, y) ] Lp.Eq 1.0;
  match Lp.solve m with
  | Lp.Optimal s ->
      check_float 1e-7 "x" 2.0 (Lp.value s x);
      check_float 1e-7 "y" 1.0 (Lp.value s y)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let m = Lp.create () in
  let x = Lp.add_var ~ub:1.0 m "x" in
  Lp.add_constraint m [ (1.0, x) ] Lp.Ge 2.0;
  Alcotest.(check bool) "infeasible" true (Lp.solve m = Lp.Infeasible)

let test_lp_unbounded () =
  let m = Lp.create () in
  let x = Lp.add_var ~obj:(-1.0) m "x" in
  ignore x;
  Alcotest.(check bool) "unbounded" true (Lp.solve m = Lp.Unbounded)

let test_lp_duplicate_terms () =
  let m = Lp.create () in
  let x = Lp.add_var ~obj:1.0 m "x" in
  (* x + x >= 4  <=>  x >= 2 *)
  Lp.add_constraint m [ (1.0, x); (1.0, x) ] Lp.Ge 4.0;
  match Lp.solve m with
  | Lp.Optimal s -> check_float 1e-7 "summed coeffs" 2.0 (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_resolve_after_extend () =
  let m = Lp.create () in
  let x = Lp.add_var ~obj:1.0 m "x" in
  Lp.add_constraint m [ (1.0, x) ] Lp.Ge 1.0;
  (match Lp.solve m with
  | Lp.Optimal s -> check_float 1e-7 "first" 1.0 (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal");
  Lp.add_constraint m [ (1.0, x) ] Lp.Ge 5.0;
  match Lp.solve m with
  | Lp.Optimal s -> check_float 1e-7 "second" 5.0 (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_var_validation () =
  let m = Lp.create () in
  Alcotest.(check bool) "lb > ub rejected" true
    (try
       ignore (Lp.add_var ~lb:2.0 ~ub:1.0 m "x");
       false
     with Invalid_argument _ -> true);
  let m2 = Lp.create () in
  let x2 = Lp.add_var m2 "x" in
  ignore x2;
  Alcotest.(check int) "num_vars" 1 (Lp.num_vars m2)

let test_lp_overrides () =
  let m = Lp.create () in
  let x = Lp.add_var ~obj:1.0 ~ub:10.0 m "x" in
  Lp.add_constraint m [ (1.0, x) ] Lp.Ge 2.0;
  (* tightened bounds apply to a single solve only *)
  (match Lp.solve ~overrides:[ (x, (5.0, 10.0)) ] m with
  | Lp.Optimal s -> check_float 1e-7 "override floor" 5.0 (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal");
  (match Lp.solve m with
  | Lp.Optimal s -> check_float 1e-7 "original bounds restored" 2.0 (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal");
  (* overrides intersect with the declared bounds *)
  (match Lp.solve ~overrides:[ (x, (neg_infinity, 3.0)) ] m with
  | Lp.Optimal s -> check_float 1e-7 "ceiling respected" 2.0 (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal");
  (* contradictory overrides are cleanly infeasible *)
  Alcotest.(check bool) "contradiction infeasible" true
    (Lp.solve ~overrides:[ (x, (4.0, 4.0)); (x, (6.0, 6.0)) ] m
    = Lp.Infeasible);
  Alcotest.(check bool) "fixing works" true
    (match Lp.solve ~overrides:[ (x, (7.0, 7.0)) ] m with
    | Lp.Optimal s -> Float.abs (Lp.value s x -. 7.0) < 1e-7
    | _ -> false)

(* --- Warm starts ---------------------------------------------------------- *)

let counter name = Obs.Counter.value (Option.get (Obs.Counter.find name))

(* A small ILP-UM-like feasibility chain: 3 jobs on 2 machines, loads
   against a guess variable T that each solve fixes. *)
let chain_model () =
  let m = Lp.create () in
  let p = [| [| 4.0; 2.0; 3.0 |]; [| 2.0; 5.0; 3.0 |] |] in
  let x = Array.init 2 (fun i -> Array.init 3 (fun j -> Lp.add_var m (Printf.sprintf "x%d%d" i j))) in
  let y = Array.init 2 (fun i -> Lp.add_var ~ub:1.0 m (Printf.sprintf "y%d" i)) in
  let t = Lp.add_var m "T" in
  for j = 0 to 2 do
    Lp.add_constraint m [ (1.0, x.(0).(j)); (1.0, x.(1).(j)) ] Lp.Eq 1.0
  done;
  for i = 0 to 1 do
    Lp.add_constraint m
      ((1.0, y.(i)) :: (-1.0, t) :: List.init 3 (fun j -> (p.(i).(j), x.(i).(j))))
      Lp.Le 0.0;
    for j = 0 to 2 do
      Lp.add_constraint m [ (1.0, y.(i)); (-1.0, x.(i).(j)) ] Lp.Ge 0.0
    done
  done;
  (m, x, t)

let test_warm_equals_cold () =
  let m, x, t = chain_model () in
  let basis = ref None and warm0 = counter "lp.simplex.warm_starts" in
  List.iter
    (fun guess ->
      let over = [ (t, (guess, guess)) ] in
      let warm, b = Lp.solve_warm ~overrides:over ?basis:!basis m in
      if b <> None then basis := b;
      let cold = Lp.solve ~overrides:over m in
      match (warm, cold) with
      | Lp.Optimal w, Lp.Optimal c ->
          (* same feasibility verdict; both points satisfy the LP *)
          List.iter
            (fun s ->
              for j = 0 to 2 do
                check_float 1e-7 (Printf.sprintf "T=%g job %d assigned" guess j) 1.0
                  (Lp.value s x.(0).(j) +. Lp.value s x.(1).(j))
              done)
            [ w; c ];
          Alcotest.(check bool) "warm point is a vertex" true (Lp.is_vertex w)
      | Lp.Infeasible, Lp.Infeasible -> ()
      | _ -> Alcotest.failf "T=%g: warm and cold verdicts differ" guess)
    [ 8.0; 4.0; 6.0; 5.0; 5.5; 20.0; 3.0 ];
  Alcotest.(check bool) "chain ends with a basis" true (!basis <> None);
  Alcotest.(check int) "every solve after the first started warm" 6
    (counter "lp.simplex.warm_starts" - warm0)

let test_warm_objective_matches_cold () =
  (* an optimization LP re-solved warm after bound changes *)
  let m = Lp.create () in
  let a = Lp.add_var ~obj:3.0 ~ub:4.0 m "a" in
  let b = Lp.add_var ~obj:2.0 ~ub:5.0 m "b" in
  let c = Lp.add_var ~obj:(-1.0) ~ub:3.0 m "c" in
  Lp.add_constraint m [ (1.0, a); (1.0, b); (1.0, c) ] Lp.Ge 4.0;
  Lp.add_constraint m [ (1.0, a); (-1.0, b) ] Lp.Le 1.0;
  let basis = ref None in
  List.iter
    (fun over ->
      let warm, bs = Lp.solve_warm ~overrides:over ?basis:!basis m in
      if bs <> None then basis := bs;
      match (warm, Lp.solve ~overrides:over m) with
      | Lp.Optimal w, Lp.Optimal c ->
          check_float 1e-7 "warm objective = cold objective" (Lp.objective_value c)
            (Lp.objective_value w)
      | Lp.Infeasible, Lp.Infeasible -> ()
      | _ -> Alcotest.fail "warm and cold verdicts differ")
    [ []; [ (c, (0.0, 1.0)) ]; [ (b, (0.0, 0.5)); (c, (0.0, 0.0)) ]; []; [ (a, (2.0, 4.0)) ] ]

let test_tighten_to_infeasible () =
  (* lowering T step by step: feasible down to T = 5 (job 2 split
     evenly gives loads of 4.5), then a dual ray proves infeasibility *)
  let m, _, t = chain_model () in
  let basis = ref None and last = ref Lp.Aborted in
  List.iter
    (fun guess ->
      let r, b = Lp.solve_warm ~overrides:[ (t, (guess, guess)) ] ?basis:!basis m in
      if b <> None then basis := b;
      last := r;
      if guess >= 5.0 then
        Alcotest.(check bool) (Printf.sprintf "T=%g feasible" guess) true
          (match r with Lp.Optimal _ -> true | _ -> false))
    [ 10.0; 7.0; 5.0; 3.0; 1.0 ];
  Alcotest.(check bool) "tightened past feasibility" true (!last = Lp.Infeasible)

let test_no_phase1_when_slack_basis_feasible () =
  (* y - x >= 0 with rhs 0: the all-logical start is feasible already *)
  let m = Lp.create () in
  let xs = Array.init 4 (fun i -> Lp.add_var ~obj:(-1.0) ~ub:1.0 m (Printf.sprintf "x%d" i)) in
  let y = Lp.add_var ~ub:1.0 m "y" in
  Array.iter (fun x -> Lp.add_constraint m [ (1.0, y); (-1.0, x) ] Lp.Ge 0.0) xs;
  let p1 = counter "lp.simplex.phase1_iters" in
  (match Lp.solve m with
  | Lp.Optimal s -> check_float 1e-9 "all x up" (-4.0) (Lp.objective_value s)
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check int) "phase1_iters" 0 (counter "lp.simplex.phase1_iters" - p1)

(* --- MIP (branch and bound) --------------------------------------------- *)

let test_mip_knapsack () =
  (* max 10a + 6b + 4c  s.t.  a + b + c <= 2 (binary) -> 16 *)
  let m = Lp.create () in
  let a = Lp.add_var ~obj:10.0 ~ub:1.0 m "a" in
  let b = Lp.add_var ~obj:6.0 ~ub:1.0 m "b" in
  let c = Lp.add_var ~obj:4.0 ~ub:1.0 m "c" in
  Lp.add_constraint m [ (1.0, a); (1.0, b); (1.0, c) ] Lp.Le 2.0;
  match Lp.Mip.solve ~maximize:true m ~integer:[ a; b; c ] with
  | Lp.Mip.Optimal { objective; values } ->
      check_float 1e-6 "objective" 16.0 objective;
      check_float 1e-9 "a chosen" 1.0 values.(Lp.var_index a);
      check_float 1e-9 "b chosen" 1.0 values.(Lp.var_index b);
      check_float 1e-9 "c dropped" 0.0 values.(Lp.var_index c)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_fractional_lp_integral_gap () =
  (* LP relaxation picks x = y = 1/2; integrality forces cost 3 *)
  let m = Lp.create () in
  let x = Lp.add_var ~obj:3.0 ~ub:1.0 m "x" in
  let y = Lp.add_var ~obj:3.0 ~ub:1.0 m "y" in
  Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Ge 1.0;
  (match Lp.solve m with
  | Lp.Optimal sol -> check_float 1e-6 "lp value" 3.0 (Lp.objective_value sol)
  | _ -> Alcotest.fail "lp should solve");
  match Lp.Mip.solve m ~integer:[ x; y ] with
  | Lp.Mip.Optimal { objective; _ } -> check_float 1e-6 "mip value" 3.0 objective
  | _ -> Alcotest.fail "expected optimal"

let test_mip_infeasible () =
  let m = Lp.create () in
  let x = Lp.add_var ~ub:1.0 m "x" in
  let y = Lp.add_var ~ub:1.0 m "y" in
  (* x + y = 1/2 has fractional solutions only *)
  Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Eq 0.5;
  Alcotest.(check bool) "infeasible" true
    (Lp.Mip.solve m ~integer:[ x; y ] = Lp.Mip.Infeasible)

let test_mip_mixed_continuous () =
  (* one binary switch, one continuous: min 5y + x, x >= 2 - 10y, x >= 0 *)
  let m = Lp.create () in
  let y = Lp.add_var ~obj:5.0 ~ub:1.0 m "y" in
  let x = Lp.add_var ~obj:1.0 m "x" in
  Lp.add_constraint m [ (1.0, x); (10.0, y) ] Lp.Ge 2.0;
  match Lp.Mip.solve m ~integer:[ y ] with
  | Lp.Mip.Optimal { objective; values } ->
      (* y = 0, x = 2 costs 2; y = 1 costs 5 *)
      check_float 1e-6 "objective" 2.0 objective;
      check_float 1e-9 "switch off" 0.0 values.(Lp.var_index y)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_node_limit () =
  let m = Lp.create () in
  let vars = List.init 12 (fun i -> Lp.add_var ~obj:1.0 ~ub:1.0 m (string_of_int i)) in
  Lp.add_constraint m (List.map (fun v -> (1.0, v)) vars) Lp.Ge 5.5;
  Alcotest.(check bool) "no proof under tiny limit" true
    (Lp.Mip.solve ~node_limit:1 m ~integer:vars = Lp.Mip.No_proof)

let test_mip_validates_bounds () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Alcotest.(check bool) "unbounded integer rejected" true
    (try
       ignore (Lp.Mip.solve m ~integer:[ x ]);
       false
     with Invalid_argument _ -> true)

let test_mip_general_integers () =
  (* min 7a + 5b  s.t.  3a + 2b >= 11, a,b integer in [0,6] -> a=1, b=4:
     7+20 = 27 (LP relaxation: a=0, b=5.5 -> 27.5... integer optimum by
     enumeration below) *)
  let m = Lp.create () in
  let a = Lp.add_var ~obj:7.0 ~ub:6.0 m "a" in
  let b = Lp.add_var ~obj:5.0 ~ub:6.0 m "b" in
  Lp.add_constraint m [ (3.0, a); (2.0, b) ] Lp.Ge 11.0;
  let best = ref infinity in
  for av = 0 to 6 do
    for bv = 0 to 6 do
      if (3 * av) + (2 * bv) >= 11 then
        best := Float.min !best (float_of_int ((7 * av) + (5 * bv)))
    done
  done;
  match Lp.Mip.solve m ~integer:[ a; b ] with
  | Lp.Mip.Optimal { objective; values } ->
      check_float 1e-6 "objective matches enumeration" !best objective;
      Alcotest.(check bool) "integral values" true
        (Float.is_integer values.(Lp.var_index a)
        && Float.is_integer values.(Lp.var_index b))
  | _ -> Alcotest.fail "expected optimal"

(* brute force 0/1 cross-check on random small MIPs *)
let mip_gen =
  QCheck.Gen.(
    let* nvars = int_range 2 5 in
    let* costs = array_size (return nvars) (float_range (-4.0) 4.0) in
    let* rows =
      list_size (int_range 1 3)
        (pair (array_size (return nvars) (float_range (-2.0) 2.0))
           (float_range 0.5 4.0))
    in
    return (nvars, costs, rows))

let prop_mip_matches_brute_force =
  QCheck.Test.make ~name:"MIP matches brute force on binary programs"
    ~count:80 (QCheck.make mip_gen) (fun (nvars, costs, rows) ->
      let m = Lp.create () in
      let vars =
        Array.init nvars (fun i ->
            Lp.add_var ~obj:costs.(i) ~ub:1.0 m (Printf.sprintf "v%d" i))
      in
      List.iter
        (fun (coeffs, rhs) ->
          Lp.add_constraint m
            (List.init nvars (fun i -> (coeffs.(i), vars.(i))))
            Lp.Le rhs)
        rows;
      (* brute force over all 2^nvars assignments *)
      let best = ref infinity in
      for mask = 0 to (1 lsl nvars) - 1 do
        let xs = Array.init nvars (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
        let feas =
          List.for_all
            (fun (coeffs, rhs) ->
              let lhs = ref 0.0 in
              Array.iteri (fun i x -> lhs := !lhs +. (coeffs.(i) *. x)) xs;
              !lhs <= rhs +. 1e-9)
            rows
        in
        if feas then begin
          let v = ref 0.0 in
          Array.iteri (fun i x -> v := !v +. (costs.(i) *. x)) xs;
          if !v < !best then best := !v
        end
      done;
      match Lp.Mip.solve m ~integer:(Array.to_list vars) with
      | Lp.Mip.Optimal { objective; _ } -> Float.abs (objective -. !best) < 1e-6
      | Lp.Mip.Infeasible -> !best = infinity
      | Lp.Mip.No_proof -> false)

(* --- Property tests ---------------------------------------------------- *)

(* Random transportation-style LPs are always feasible and bounded; the
   simplex must find a solution satisfying all constraints. *)
let transport_gen =
  QCheck.Gen.(
    let* sources = int_range 2 4 in
    let* sinks = int_range 2 4 in
    let* supply = array_size (return sources) (float_range 1.0 10.0) in
    let* cost =
      array_size (return (sources * sinks)) (float_range 0.0 5.0)
    in
    return (sources, sinks, supply, cost))

let prop_transport_feasible =
  QCheck.Test.make ~name:"transportation LPs solve to feasible optima"
    ~count:60
    (QCheck.make transport_gen)
    (fun (sources, sinks, supply, cost) ->
      let m = Lp.create () in
      let x =
        Array.init sources (fun s ->
            Array.init sinks (fun d ->
                Lp.add_var
                  ~obj:cost.((s * sinks) + d)
                  m
                  (Printf.sprintf "x_%d_%d" s d)))
      in
      (* ship all supply; sinks are uncapacitated *)
      for s = 0 to sources - 1 do
        Lp.add_constraint m
          (List.init sinks (fun d -> (1.0, x.(s).(d))))
          Lp.Eq supply.(s)
      done;
      match Lp.solve m with
      | Lp.Optimal sol ->
          let ok = ref true in
          for s = 0 to sources - 1 do
            let shipped = ref 0.0 in
            for d = 0 to sinks - 1 do
              let v = Lp.value sol x.(s).(d) in
              if v < -1e-7 then ok := false;
              shipped := !shipped +. v
            done;
            if Float.abs (!shipped -. supply.(s)) > 1e-6 then ok := false
          done;
          !ok
      | _ -> false)

(* Objective optimality cross-check: for random 2-variable LPs we can
   brute-force the optimum over a fine grid and the simplex must match or
   beat it (it optimizes exactly, the grid only approximately). *)
let lp2_gen =
  QCheck.Gen.(
    let* c1 = float_range (-3.0) 3.0 in
    let* c2 = float_range (-3.0) 3.0 in
    let* rows =
      list_size (int_range 1 4)
        (triple (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)
           (float_range 0.5 6.0))
    in
    return (c1, c2, rows))

let prop_two_var_optimal =
  QCheck.Test.make ~name:"2-var LPs: simplex beats grid search" ~count:80
    (QCheck.make lp2_gen)
    (fun (c1, c2, rows) ->
      let m = Lp.create () in
      let x = Lp.add_var ~obj:c1 ~ub:10.0 m "x" in
      let y = Lp.add_var ~obj:c2 ~ub:10.0 m "y" in
      List.iter
        (fun (a1, a2, b) ->
          Lp.add_constraint m [ (a1, x); (a2, y) ] Lp.Le b)
        rows;
      (* (0,0) is feasible for all rows since b > 0, so never infeasible *)
      match Lp.solve m with
      | Lp.Optimal sol ->
          let best_grid = ref infinity in
          let steps = 60 in
          for i = 0 to steps do
            for j = 0 to steps do
              let xv = 10.0 *. float_of_int i /. float_of_int steps in
              let yv = 10.0 *. float_of_int j /. float_of_int steps in
              if
                List.for_all
                  (fun (a1, a2, b) -> (a1 *. xv) +. (a2 *. yv) <= b +. 1e-9)
                  rows
              then begin
                let v = (c1 *. xv) +. (c2 *. yv) in
                if v < !best_grid then best_grid := v
              end
            done
          done;
          Lp.objective_value sol <= !best_grid +. 1e-6
      | Lp.Unbounded -> false (* impossible: box-bounded *)
      | _ -> false)

(* The engine against the dense tableau reference (Check.Lp_oracle),
   one random LP and its warm re-solve chain per case. *)
let prop_differential_oracle =
  QCheck.Test.make ~name:"bounded dual simplex agrees with the dense tableau"
    ~count:300 QCheck.small_nat (fun seed ->
      match
        Check.Lp_oracle.check_case ~reference:Lp_ref.Standard_form.verdict
          (Workloads.Rng.create seed)
      with
      | [] -> true
      | vs ->
          QCheck.Test.fail_reportf "%s"
            (String.concat "; " (List.map Check.Violation.to_string vs)))

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic" `Quick test_simplex_basic;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "shape validation" `Quick
            test_simplex_shape_validation;
          Alcotest.test_case "klee-minty" `Quick test_simplex_klee_minty;
          Alcotest.test_case "redundant rows" `Quick
            test_simplex_redundant_rows;
          Alcotest.test_case "badly scaled" `Quick test_simplex_badly_scaled;
        ] );
      ( "model",
        [
          Alcotest.test_case "minimize" `Quick test_lp_minimize;
          Alcotest.test_case "maximize" `Quick test_lp_maximize;
          Alcotest.test_case "lower bound shift" `Quick
            test_lp_lower_bound_shift;
          Alcotest.test_case "free variable" `Quick test_lp_free_variable;
          Alcotest.test_case "equality" `Quick test_lp_equality;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "duplicate terms" `Quick test_lp_duplicate_terms;
          Alcotest.test_case "resolve after extend" `Quick
            test_lp_resolve_after_extend;
          Alcotest.test_case "var validation" `Quick test_lp_var_validation;
          Alcotest.test_case "bound overrides" `Quick test_lp_overrides;
        ] );
      ( "warm",
        [
          Alcotest.test_case "warm equals cold" `Quick test_warm_equals_cold;
          Alcotest.test_case "warm objective equals cold" `Quick
            test_warm_objective_matches_cold;
          Alcotest.test_case "tighten to infeasible" `Quick
            test_tighten_to_infeasible;
          Alcotest.test_case "no phase 1 from a feasible slack basis" `Quick
            test_no_phase1_when_slack_basis_feasible;
        ] );
      ( "mip",
        [
          Alcotest.test_case "knapsack" `Quick test_mip_knapsack;
          Alcotest.test_case "integrality gap" `Quick
            test_mip_fractional_lp_integral_gap;
          Alcotest.test_case "infeasible" `Quick test_mip_infeasible;
          Alcotest.test_case "mixed continuous" `Quick
            test_mip_mixed_continuous;
          Alcotest.test_case "node limit" `Quick test_mip_node_limit;
          Alcotest.test_case "validates bounds" `Quick
            test_mip_validates_bounds;
          Alcotest.test_case "general integers" `Quick
            test_mip_general_integers;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_transport_feasible;
            prop_two_var_optimal;
            prop_mip_matches_brute_force;
            prop_differential_oracle;
          ] );
    ]
