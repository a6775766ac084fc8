(* Each test case runs with the fresh-constant counter rewound, so the names
   Value.fresh generates are deterministic per test instead of depending on
   how many tests (or qcheck iterations) ran before — see Value.reset_fresh. *)
let deterministic_fresh (name, cases) =
  ( name,
    List.map
      (fun case ->
        let n, speed, f = case in
        (n, speed, fun x ->
          Relational.Value.reset_fresh ();
          f x))
      cases )

let () =
  Alcotest.run "wdpt"
    (List.map deterministic_fresh
       [ ("relational", Test_relational.suite);
         ("engine", Test_engine.suite);
         ("batch", Test_batch.suite);
         ("batch-audit", Test_batch_audit.suite);
         ("hypergraph", Test_hypergraph.suite);
         ("cq", Test_cq.suite);
         ("pattern-tree", Test_pattern_tree.suite);
         ("semantics", Test_semantics.suite);
         ("projection-free", Test_projection_free.suite);
         ("algebra", Test_algebra.suite);
         ("syntax", Test_syntax.suite);
         ("classes", Test_classes.suite);
         ("subsumption", Test_subsumption.suite);
         ("approximation", Test_approximation.suite);
         ("semantic-opt", Test_semantic_opt.suite);
         ("optimizer", Test_optimizer.suite);
         ("simplify", Test_simplify.suite);
         ("union", Test_union.suite);
         ("reductions", Test_reductions.suite);
         ("sparql", Test_sparql.suite);
         ("analysis", Test_analysis.suite);
         ("audit", Test_audit.suite);
         ("feedback", Test_feedback.suite);
         ("equiv", Test_equiv.suite);
         ("delta", Test_delta.suite);
         ("edge-cases", Test_edge_cases.suite);
         ("opt-semantics", Test_opt_semantics.suite);
         ("paper-claims", Test_paper_claims.suite) ])
