open Relational

(* Reference implementation: direct backtracking over the string-keyed
   representation (Map environments, candidate lists rebuilt per node). Kept
   verbatim as the oracle for the engine-agreement properties and for the
   before/after benchmark; production entry points below run compiled. *)
module Naive = struct
  let iter_homomorphisms db atoms ~init f =
    (* dynamic atom selection: at each step match the atom with the fewest
       candidate facts under the current partial mapping *)
    let rec go h remaining =
      match remaining with
      | [] -> f h
      | _ ->
          let scored =
            List.map (fun a -> (a, Database.candidates db a h)) remaining
          in
          let (best, cands), rest =
            match
              List.stable_sort
                (fun (_, c1) (_, c2) -> List.compare_lengths c1 c2)
                scored
            with
            | x :: rest -> (x, List.map fst rest)
            | [] -> assert false
          in
          List.iter
            (fun fact ->
              match Mapping.matches_fact h best fact with
              | Some h' -> go h' rest
              | None -> ())
            cands
    in
    go init atoms

  let homomorphisms db atoms ~init =
    let out = ref [] in
    iter_homomorphisms db atoms ~init (fun h -> out := h :: !out);
    !out

  exception Found of Mapping.t

  let first_homomorphism db atoms ~init =
    try
      iter_homomorphisms db atoms ~init (fun h -> raise (Found h));
      None
    with Found h -> Some h

  exception Sat

  let satisfiable db atoms ~init =
    try
      iter_homomorphisms db atoms ~init (fun _ -> raise Sat);
      false
    with Sat -> true

  let answers db q =
    let head = Query.head_set q in
    let out = ref Mapping.Set.empty in
    iter_homomorphisms db (Query.body q) ~init:Mapping.empty (fun h ->
        out := Mapping.Set.add (Mapping.restrict head h) !out);
    !out
end

(* Compiled entry points (see Engine): same semantics, interned values and
   slot environments in the hot loop. *)

let iter_homomorphisms = Engine.iter_homomorphisms
let homomorphisms = Engine.homomorphisms
let first_homomorphism = Engine.first_homomorphism
let satisfiable = Engine.satisfiable

let answers db q =
  Mapping.Set.of_list
    (Engine.distinct_projections db (Query.body q) ~init:Mapping.empty
       ~onto:(Query.head q))

let decision db q h =
  String_set.equal (Mapping.domain h) (Query.head_set q)
  && satisfiable db (Query.body q) ~init:h
