(* Differential LP oracle: the bounded dual simplex of Lp.Simplex against
   the dense two-phase tableau reference, on random LPs with warm
   re-solves after bound changes (see Check.Lp_oracle). Part of
   `dune runtest` via the alias below; run alone, with more cases or
   another seed, as

     dune exec test/lp_oracle.exe -- --cases 20000 --seed 7

   Exits nonzero on any disagreement, printing each failing case. *)

let () =
  let cases = ref 2000 and seed = ref 1 in
  Arg.parse
    [
      ("--cases", Arg.Set_int cases, "N number of random LPs (default 2000)");
      ("--seed", Arg.Set_int seed, "S root seed (default 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lp_oracle [--cases N] [--seed S]";
  let s =
    Check.Lp_oracle.run ~reference:Lp_ref.Standard_form.verdict ~seed:!seed
      ~cases:!cases
  in
  List.iter
    (fun (i, vs) ->
      Printf.printf "case %d (seed %d):\n" i !seed;
      List.iter (fun v -> Printf.printf "  %s\n" (Check.Violation.to_string v)) vs)
    s.Check.Lp_oracle.failures;
  Printf.printf "lp oracle: %d cases, %d solves, %d failing (seed %d)\n"
    s.Check.Lp_oracle.cases s.Check.Lp_oracle.solves
    (List.length s.Check.Lp_oracle.failures)
    !seed;
  if s.Check.Lp_oracle.failures <> [] then exit 1
