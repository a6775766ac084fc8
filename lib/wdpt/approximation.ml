open Relational

type move =
  | Merge of string * string
  | Drop_leaf of int
  | Collapse of int

let moves p =
  let free = Pattern_tree.free_set p in
  let vs = String_set.elements (Pattern_tree.vars p) in
  let occurrences x =
    List.filter
      (fun i -> String_set.mem x (Pattern_tree.node_vars p i))
      (Pattern_tree.all_nodes p)
  in
  (* merging an existential u into a free v is ⊑-decreasing only when it does
     not move v into new nodes: an answer of the quotient binding v at a node
     where the original p does not mention v would not be subsumed *)
  let safe_into_free u v =
    List.for_all (fun i -> List.mem i (occurrences v)) (occurrences u)
  in
  let rec var_pairs = function
    | [] -> []
    | u :: rest ->
        List.filter_map
          (fun v ->
            let u_free = String_set.mem u free and v_free = String_set.mem v free in
            if u_free && v_free then None
            else if u_free then
              if safe_into_free v u then Some (Merge (v, u)) else None
            else if v_free then
              if safe_into_free u v then Some (Merge (u, v)) else None
            else Some (Merge (u, v)))
          rest
        @ var_pairs rest
  in
  let structural =
    List.concat_map
      (fun i ->
        if i = Pattern_tree.root p then []
        else if Pattern_tree.children p i = [] then [ Drop_leaf i; Collapse i ]
        else [ Collapse i ])
      (Pattern_tree.all_nodes p)
  in
  var_pairs vs @ structural

let apply p m =
  match m with
  | Merge (u, v) -> Pattern_tree.quotient (fun x -> if x = u then v else x) p
  | Drop_leaf i -> Some (Pattern_tree.drop_leaf p i)
  | Collapse i -> Pattern_tree.collapse_into_parent p i

let candidates ~in_class p =
  let seen = Hashtbl.create 512 in
  let found = ref [] in
  let rec explore p =
    let key = Pattern_tree.canonical_key p in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      if in_class p then found := p :: !found
      else
        List.iter
          (fun m ->
            match apply p m with
            | Some p' -> explore p'
            | None -> ())
          (moves p)
    end
  in
  explore p;
  !found

(* The plain pairwise filter, with each candidate frozen at most once and
   each ordered pair decided at most once. Self-pairs are not decided:
   [c ⊑ c] always holds, so a candidate never strictly dominates itself.
   Every other answer is the plain filter's, so the result is its list. *)
let select cands =
  let cands = Array.of_list cands in
  let n = Array.length cands in
  let canons = Array.map (fun c -> lazy (Subsumption.canon c)) cands in
  let memo = Hashtbl.create 64 in
  let sub i j =
    i = j
    ||
    match Hashtbl.find_opt memo (i, j) with
    | Some b -> b
    | None ->
        let b = Subsumption.subsumes_canon (Lazy.force canons.(i)) cands.(j) in
        Hashtbl.add memo (i, j) b;
        b
  in
  let dominated i =
    let rec scan j = j < n && ((sub i j && not (sub j i)) || scan (j + 1)) in
    scan 0
  in
  let maximal = List.filter (fun i -> not (dominated i)) (List.init n Fun.id) in
  let rec dedup acc = function
    | [] -> List.rev_map (fun i -> cands.(i)) acc
    | i :: rest ->
        if List.exists (fun j -> sub i j && sub j i) acc then dedup acc rest
        else dedup (i :: acc) rest
  in
  dedup [] maximal

let approximations ~in_class p = select (candidates ~in_class p)

let wb_approximations ~width ~k p =
  approximations ~in_class:(Classes.in_wb ~width ~k) p

let is_approximation ~in_class p' p =
  in_class p'
  &&
  let c' = Subsumption.canon p' in
  Subsumption.subsumes_canon c' p
  &&
  let cands = candidates ~in_class p in
  not
    (List.exists
       (fun c -> Subsumption.subsumes_canon c' c && not (Subsumption.subsumes c p'))
       cands)

(* ---- Lemma 1 normalization (first phase) ------------------------------- *)

let normalize p =
  let introduces p i =
    let free = Pattern_tree.free_set p in
    let own = String_set.inter (Pattern_tree.node_vars p i) free in
    let par = Pattern_tree.parent p i in
    let inherited =
      if par < 0 then String_set.empty
      else String_set.inter (Pattern_tree.node_vars p par) free
    in
    not (String_set.is_empty (String_set.diff own inherited))
  in
  (* drop leaves that are not on a path to a free-variable-introducing node *)
  let rec prune p =
    let needed = Array.make (Pattern_tree.node_count p) false in
    let rec mark i =
      if not needed.(i) then begin
        needed.(i) <- true;
        let par = Pattern_tree.parent p i in
        if par >= 0 then mark par
      end
    in
    mark (Pattern_tree.root p);
    List.iter (fun i -> if introduces p i then mark i) (Pattern_tree.all_nodes p);
    let droppable =
      List.find_opt
        (fun i ->
          i <> Pattern_tree.root p
          && Pattern_tree.children p i = []
          && not needed.(i))
        (Pattern_tree.all_nodes p)
    in
    match droppable with
    | Some i -> prune (Pattern_tree.drop_leaf p i)
    | None -> p
  in
  (* merge free-variable-less nodes with their only child *)
  let rec merge p =
    let free = Pattern_tree.free_set p in
    let mergeable =
      List.find_opt
        (fun i ->
          let par = Pattern_tree.parent p i in
          (* merging into the root is not ≡ₛ-preserving: it can delete the
             answer arising when only the root pattern matches *)
          par > 0
          && Pattern_tree.children p par = [ i ]
          && String_set.is_empty
               (String_set.inter (Pattern_tree.node_vars p par) free))
        (Pattern_tree.all_nodes p)
    in
    match mergeable with
    | Some i -> (
        match Pattern_tree.collapse_into_parent p i with
        | Some p' -> merge p'
        | None -> p)
    | None -> p
  in
  merge (prune p)
