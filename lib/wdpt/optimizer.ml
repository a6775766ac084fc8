open Relational

type strategy =
  | Exact_tractable
  | Via_witness of Pattern_tree.t
  | Via_approximation of Pattern_tree.t list
  | Exact_exponential

type exec = Backtracking | Yannakakis | Decomposition

type plan = {
  query : Pattern_tree.t;
  source : Pattern_tree.t;
  rewrites : Simplify.rewrite list;
  k : int;
  bounded_interface : int;
  strategy : strategy;
  exec : exec;
  cost : Cq.Cost.t option;
}

(* Pick the per-instance execution engine from the statistics-only cost
   bounds of the full-tree query (ROADMAP: cost-based strategy selection).
   Acyclic instances go to Yannakakis (no bag materialization, Theorem 3);
   cyclic ones go to the tree-decomposition evaluator only when its
   |adom|^(tw+1) bag bound undercuts what plain backtracking is bounded by
   (the better of the variable-domain and relation-product bounds). *)
let choose_exec (c : Cq.Cost.t) =
  if c.acyclic then Yannakakis
  else if
    Cq.Cost.decomp_eval_bound c < Float.min c.vardom_bound c.product_bound
  then Decomposition
  else Backtracking

(* Stats-epoch-keyed memo for the full-tree cost analysis: re-planning the
   same body against the same database at an unchanged version reuses the
   analysis; a version bump (Database.add) or a different database misses.
   The store version is part of the lookup — never trusted from the entry —
   so a stale entry cannot be served. *)
let cost_memo :
    (Relational.Atom.t list * string list, Database.t * int * Cq.Cost.t)
    Hashtbl.t =
  Hashtbl.create 64

let analyze_memo db body ~free =
  let key = (body, free) in
  match Hashtbl.find_opt cost_memo key with
  | Some (db', v', c) when db' == db && v' = Database.version db -> c
  | _ ->
      if Hashtbl.length cost_memo > 1024 then Hashtbl.reset cost_memo;
      let c = Cq.Cost.analyze db body ~free in
      Hashtbl.replace cost_memo key (db, Database.version db, c);
      c

let plan ?db ~k p =
  (* consume the static analyzer's rewrite opportunities first: dropping
     redundant atoms and dead branches preserves p(D) and can only lower the
     widths the strategy selection below depends on *)
  let q, rewrites = Simplify.simplify p in
  let c = Classes.interface q in
  let strategy =
    if Classes.locally_in ~width:Tw ~k q || Classes.in_wb ~width:Tw ~k q then
      Exact_tractable
    else
      (* one candidate enumeration serves the witness search and the
         approximations *)
      let cands =
        lazy (Approximation.candidates ~in_class:(Classes.in_wb ~width:Tw ~k) q)
      in
      let witness =
        match Semantic_opt.first_step ~width:Tw ~k q with
        | Decided w -> w
        | Search_candidates -> Semantic_opt.search_candidates (Lazy.force cands) q
      in
      match witness with
      | Some w -> Via_witness w
      | None -> (
          match Approximation.select (Lazy.force cands) with
          | [] -> Exact_exponential
          | apps -> Via_approximation apps)
  in
  let cost =
    match db with
    | None -> None
    | Some db ->
        let full = Pattern_tree.q_full q in
        Some (analyze_memo db (Cq.Query.body full) ~free:(Cq.Query.head full))
  in
  let exec = match cost with None -> Backtracking | Some c -> choose_exec c in
  { query = q; source = p; rewrites; k; bounded_interface = c; strategy;
    exec; cost }

let describe_exec = function
  | Backtracking -> "backtracking search"
  | Yannakakis -> "Yannakakis over the GYO join forest (acyclic instance)"
  | Decomposition -> "tree-decomposition join tree (bags beat backtracking)"

let describe pl =
  let prefix =
    match pl.rewrites with
    | [] -> ""
    | rs ->
        Printf.sprintf "simplified (%s); "
          (String.concat "; " (List.map Simplify.describe_rewrite rs))
  in
  let suffix =
    match pl.cost with
    | None -> ""
    | Some _ -> Printf.sprintf "; execution: %s" (describe_exec pl.exec)
  in
  prefix
  ^ (match pl.strategy with
    | Exact_tractable ->
        Printf.sprintf
          "tractable as written (interface %d, width budget %d): Theorems 6-9 apply"
          pl.bounded_interface pl.k
    | Via_witness _ ->
        Printf.sprintf
          "subsumption-equivalent to a WB(%d) query: partial/maximal evaluation \
           through the witness (Corollary 2)"
          pl.k
    | Via_approximation apps ->
        Printf.sprintf
          "outside WB(%d): %d sound approximation(s) available (Section 5.2)"
          pl.k (List.length apps)
    | Exact_exponential -> "no optimization found: exact exponential evaluation")
  ^ suffix

let decision pl db h =
  match pl.strategy with
  | Exact_tractable -> Eval_tractable.decision db pl.query h
  | Via_witness _ | Via_approximation _ | Exact_exponential ->
      (* EVAL is not preserved by ≡ₛ, so only the original query can answer
         it exactly; Eval_tractable is correct (if slower) on all inputs *)
      Eval_tractable.decision db pl.query h

let partial_decision pl db h =
  match pl.strategy with
  | Exact_tractable -> Partial_eval.decision db pl.query h
  | Via_witness w -> Partial_eval.decision db w h
  | Via_approximation apps ->
      List.exists (fun a -> Partial_eval.decision db a h) apps
  | Exact_exponential -> Semantics.partial_decision db pl.query h

let complete pl =
  match pl.strategy with
  | Exact_tractable | Via_witness _ | Exact_exponential -> true
  | Via_approximation _ -> false

(* A single-node WDPT is exactly the CQ r_{T} (head = the free variables):
   the root either matches — yielding a total answer — or nothing does, so
   the SPARQL semantics and the CQ semantics coincide and the cost-selected
   engine can run the whole evaluation. All three engines bottom out in the
   compiled Engine, so every choice made here gives identical answers. *)
let eval_cq pl db p =
  let cq = Pattern_tree.r_of_subtree p (Pattern_tree.all_nodes p) in
  match pl.exec with
  | Yannakakis -> (
      match Cq.Yannakakis.answers db cq with
      | Some s -> s
      | None -> Cq.Eval.answers db cq (* stats said acyclic; instance isn't *))
  | Decomposition -> Cq.Decomp_eval.answers db cq
  | Backtracking -> Cq.Eval.answers db cq

let eval pl db =
  match pl.strategy with
  | Exact_tractable | Exact_exponential ->
      if Pattern_tree.node_count pl.query = 1 then eval_cq pl db pl.query
      else Semantics.eval db pl.query
  | Via_witness w ->
      (* ≡ₛ preserves maximal answers; report those *)
      Semantics.eval_max db w
  | Via_approximation apps ->
      List.fold_left
        (fun acc a -> Mapping.Set.union acc (Semantics.eval db a))
        Mapping.Set.empty apps
