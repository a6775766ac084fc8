open Relational

(* Search for a proper retraction of q: an endomorphism fixing the head whose
   image omits at least one existential variable.  Working on the frozen body,
   we look, for each candidate variable v, for a homomorphism from body(q)
   into freeze(q) minus every fact mentioning v's frozen constant. *)
let proper_retraction q =
  let db, frozen = Query.freeze q in
  let head = Query.head_set q in
  let init = Mapping.restrict head frozen in
  let back = Hashtbl.create 16 in
  List.iter
    (fun (x, v) -> Hashtbl.replace back v x)
    (Mapping.bindings frozen);
  let var_of_value v = Hashtbl.find back v in
  let exi = String_set.elements (Query.existential_vars q) in
  let avoid v =
    let fv = Option.get (Mapping.find v frozen) in
    let facts =
      List.filter
        (fun f -> not (List.exists (Value.equal fv) (Fact.tuple f)))
        (Database.facts db)
    in
    match Eval.first_homomorphism (Database.of_list facts) (Query.body q) ~init with
    | Some h ->
        (* translate the frozen-constant image back into a variable map *)
        Some
          (fun x ->
            match Mapping.find x h with
            | Some value -> var_of_value value
            | None -> x)
    | None -> None
  in
  List.find_map avoid exi

let rec core q =
  match proper_retraction q with
  | None -> q
  | Some f -> core (Query.quotient f q)

let is_core q = Option.is_none (proper_retraction q)
let equivalent_to_class q ~in_class = in_class (core q)
