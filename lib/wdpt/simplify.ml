open Relational

type reason =
  | Duplicate_in_node
  | Duplicate_in_ancestor of int
  | Foldable

type rewrite =
  | Drop_atom of { node : int; atom : Atom.t; reason : reason }
  | Drop_subtree of { node : int }

let ancestors p i =
  let rec up j acc = if j < 0 then acc else up (Pattern_tree.parent p j) (j :: acc) in
  up (Pattern_tree.parent p i) []

let subtree_nodes p i =
  let rec dfs j acc =
    List.fold_left (fun acc c -> dfs c acc) (j :: acc) (Pattern_tree.children p j)
  in
  dfs i []

(* variables of node [i] that the rest of the tree (or the projection) can
   observe: free variables and variables shared with any other node *)
let shared_head p i =
  let mine = Pattern_tree.node_vars p i in
  let others =
    List.fold_left
      (fun acc j -> if j = i then acc else String_set.union acc (Pattern_tree.node_vars p j))
      String_set.empty (Pattern_tree.all_nodes p)
  in
  String_set.inter mine (String_set.union (Pattern_tree.free_set p) others)

let remove_once a atoms =
  let rec go = function
    | [] -> []
    | b :: rest -> if Atom.equal a b then rest else b :: go rest
  in
  go atoms

let spec_replacing_atoms p node atoms' =
  let rec build i =
    let atoms = if i = node then atoms' else Pattern_tree.atoms p i in
    Pattern_tree.Node (atoms, List.map build (Pattern_tree.children p i))
  in
  build 0

let spec_without_subtree p node =
  let rec build i =
    Pattern_tree.Node
      ( Pattern_tree.atoms p i,
        List.filter_map
          (fun c -> if c = node then None else Some (build c))
          (Pattern_tree.children p i) )
  in
  build 0

let apply p = function
  | Drop_atom { node; atom; _ } ->
      if node < 0 || node >= Pattern_tree.node_count p then None
      else
        let atoms = Pattern_tree.atoms p node in
        if not (List.exists (Atom.equal atom) atoms) then None
        else
          let spec = spec_replacing_atoms p node (remove_once atom atoms) in
          (try Some (Pattern_tree.make ~free:(Pattern_tree.free p) spec)
           with Invalid_argument _ -> None)
  | Drop_subtree { node } ->
      if node <= 0 || node >= Pattern_tree.node_count p then None
      else
        let spec = spec_without_subtree p node in
        (try Some (Pattern_tree.make ~free:(Pattern_tree.free p) spec)
         with Invalid_argument _ -> None)

(* [a] folds when the node CQ q = (H, body) is equivalent to
   q' = (H, body'), body' = body without one copy of [a]. q ⊆ q' always
   holds: body' ⊆ body, so the identity is a homomorphism from q' into q
   fixing H. Only q' ⊆ q needs a check: a homomorphism from body into the
   frozen body', fixing H. *)
let foldable p i a =
  let head = String_set.elements (shared_head p i) in
  let body = Pattern_tree.atoms p i in
  let body' = remove_once a body in
  body' <> []
  && String_set.subset (String_set.of_list head)
       (List.fold_left
          (fun acc b -> String_set.union acc (Atom.var_set b))
          String_set.empty body')
  &&
  try
    Cq.Containment.contained
      (Cq.Query.make ~head ~body:body')
      (Cq.Query.make ~head ~body)
  with Invalid_argument _ -> false

(* node by node, atom by atom, the redundant atoms in [redundant_atoms]'s
   order, each found only when the sequence is forced that far. An atom
   already reported for its node is skipped before its reason is computed
   (a foldability check is a containment test). *)
let redundant p =
  let node i =
    let anc = ancestors p i in
    let rec go seen reported atoms () =
      match atoms with
      | [] -> Seq.Nil
      | a :: rest ->
          let next reported = go (a :: seen) reported rest in
          if List.exists (Atom.equal a) reported then next reported ()
          else
            let reason =
              if List.exists (Atom.equal a) seen then Some Duplicate_in_node
              else
                match
                  List.find_opt
                    (fun j -> List.exists (Atom.equal a) (Pattern_tree.atoms p j))
                    anc
                with
                | Some j -> Some (Duplicate_in_ancestor j)
                | None -> if foldable p i a then Some Foldable else None
            in
            match reason with
            | Some r
              when Option.is_some
                     (apply p (Drop_atom { node = i; atom = a; reason = r })) ->
                Seq.Cons ((i, a, r), next (a :: reported))
            | _ -> next reported ()
    in
    go [] [] (Pattern_tree.atoms p i)
  in
  Seq.concat_map node (List.to_seq (Pattern_tree.all_nodes p))

let redundant_atoms p = List.of_seq (redundant p)

let dead_branches p =
  let n = Pattern_tree.node_count p in
  let dead = Array.make n false in
  for i = 1 to n - 1 do
    let anc_vars =
      List.fold_left
        (fun acc j -> String_set.union acc (Pattern_tree.node_vars p j))
        String_set.empty (ancestors p i)
    in
    let sub_vars = Pattern_tree.vars_of_subtree p (subtree_nodes p i) in
    dead.(i) <- String_set.subset sub_vars anc_vars
  done;
  List.filter
    (fun i ->
      i > 0 && dead.(i)
      && not dead.(Pattern_tree.parent p i))
    (Pattern_tree.all_nodes p)
  |> List.filter (fun i -> Option.is_some (apply p (Drop_subtree { node = i })))

let drop_atom (node, atom, reason) = Drop_atom { node; atom; reason }

let rewrites p =
  List.map (fun i -> Drop_subtree { node = i }) (dead_branches p)
  @ List.map drop_atom (redundant_atoms p)

(* the head of [rewrites p], computing no redundant atom past the first *)
let first_rewrite p =
  match dead_branches p with
  | i :: _ -> Some (Drop_subtree { node = i })
  | [] -> Option.map (fun (r, _) -> drop_atom r) (Seq.uncons (redundant p))

let simplify p =
  (* every step removes at least one atom or node, so this terminates *)
  let rec go p applied =
    match first_rewrite p with
    | None -> (p, List.rev applied)
    | Some r -> (
        match apply p r with
        | Some p' -> go p' (r :: applied)
        | None -> (p, List.rev applied))
  in
  go p []

let describe_reason = function
  | Duplicate_in_node -> "repeated in the same node"
  | Duplicate_in_ancestor j -> Printf.sprintf "already required by ancestor node %d" j
  | Foldable -> "folds into the node's remaining atoms (homomorphism)"

let describe_rewrite = function
  | Drop_atom { node; atom; reason } ->
      Format.asprintf "drop redundant atom %a from node %d (%s)" Atom.pp atom
        node (describe_reason reason)
  | Drop_subtree { node } ->
      Printf.sprintf
        "drop dead branch at node %d (its subtree binds no new variables)" node

let pp_rewrite ppf r = Format.pp_print_string ppf (describe_rewrite r)
