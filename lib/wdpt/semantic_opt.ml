
let in_m_wb_cq ~width ~k p =
  if Pattern_tree.node_count p <> 1 then
    invalid_arg "Semantic_opt.in_m_wb_cq: single-node WDPTs only";
  let q = Pattern_tree.r_of_subtree p [ 0 ] in
  Cq.Core_q.equivalent_to_class q ~in_class:(Classes.cq_in_class ~width ~k)

type step = Decided of Pattern_tree.t option | Search_candidates

let first_step ~width ~k p =
  let in_class = Classes.in_wb ~width ~k in
  if in_class p then Decided (Some p)
  else begin
    let normalized = Approximation.normalize p in
    if in_class normalized then Decided (Some normalized)
    else if Pattern_tree.node_count p = 1 then begin
      (* exact via the core: rebuild a single-node witness *)
      let q = Pattern_tree.r_of_subtree p [ 0 ] in
      let c = Cq.Core_q.core q in
      Decided
        (if Classes.cq_in_class ~width ~k c then Some (Pattern_tree.of_cq c)
         else None)
    end
    else Search_candidates
  end

(* the first candidate ≡ₛ p; p is frozen once for all of them *)
let search_candidates cands p =
  let cp = Subsumption.canon p in
  List.find_opt
    (fun c -> Subsumption.subsumes c p && Subsumption.subsumes_canon cp c)
    cands

let wb_witness ~width ~k p =
  match first_step ~width ~k p with
  | Decided w -> w
  | Search_candidates ->
      search_candidates
        (Approximation.candidates ~in_class:(Classes.in_wb ~width ~k) p)
        p

type fpt = {
  query : Pattern_tree.t;
  witness : Pattern_tree.t option;
}

let prepare ~width ~k p = { query = p; witness = wb_witness ~width ~k p }
let used_witness f = f.witness

let partial_decision f db h =
  match f.witness with
  | Some w -> Partial_eval.decision db w h
  | None -> Semantics.partial_decision db f.query h

let max_decision f db h =
  match f.witness with
  | Some w -> Max_eval.decision db w h
  | None -> Semantics.max_decision db f.query h
