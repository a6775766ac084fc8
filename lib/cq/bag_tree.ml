open Relational
module Rel = Engine.Rel

type 'a t = {
  nodes : 'a array;
  children : int list array;
  roots : int list;
}

let instantiate db q ~init =
  let q = Query.substitute init q in
  let ground, atoms = List.partition Atom.is_ground (Query.body q) in
  if List.for_all (fun a -> Database.mem db (Atom.to_fact a)) ground then
    Some (q, atoms)
  else None

let of_decomposition ~bags ~tree atoms =
  let n = Array.length bags in
  let live =
    List.fold_left
      (fun acc a -> String_set.union acc (Atom.var_set a))
      String_set.empty atoms
  in
  let bags = Array.map (String_set.inter live) bags in
  let assigned = Array.make n [] in
  List.iter
    (fun a ->
      let vs = Atom.var_set a in
      let rec assign i =
        if i >= n then invalid_arg "Bag_tree: decomposition does not cover an atom"
        else if String_set.subset vs bags.(i) then assigned.(i) <- a :: assigned.(i)
        else assign (i + 1)
      in
      assign 0)
    atoms;
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    tree;
  let children = Array.make n [] in
  let visited = Array.make n false in
  let rec dfs i =
    visited.(i) <- true;
    List.iter
      (fun j ->
        if not visited.(j) then begin
          children.(i) <- j :: children.(i);
          dfs j
        end)
      adj.(i)
  in
  let roots = ref [] in
  for i = 0 to n - 1 do
    if not visited.(i) then begin
      roots := i :: !roots;
      dfs i
    end
  done;
  { nodes = Array.map2 (fun bag atoms -> (bag, atoms)) bags assigned;
    children;
    roots = List.rev !roots }

let rec up_semijoin t i =
  List.iter
    (fun c ->
      up_semijoin t c;
      t.nodes.(i) <- Rel.semijoin t.nodes.(i) t.nodes.(c))
    t.children.(i)

let satisfiable t =
  List.for_all
    (fun r ->
      up_semijoin t r;
      not (Rel.is_empty t.nodes.(r)))
    t.roots

let answers db t ~head =
  if not (satisfiable t) then Mapping.Set.empty
  else begin
    (* the full reducer: downward semijoins after the upward pass *)
    let rec down i =
      List.iter
        (fun c ->
          t.nodes.(c) <- Rel.semijoin t.nodes.(c) t.nodes.(i);
          down c)
        t.children.(i)
    in
    List.iter down t.roots;
    let has_head i = not (String_set.disjoint head (Rel.var_set t.nodes.(i))) in
    (* [spans.(i)]: some node below [i], or [i] itself, holds a head variable *)
    let spans = Array.make (Array.length t.nodes) false in
    let rec mark i =
      let below = List.fold_left (fun acc c -> mark c || acc) false t.children.(i) in
      spans.(i) <- below || has_head i;
      spans.(i)
    in
    List.iter (fun r -> ignore (mark r)) t.roots;
    let rec up i =
      let keep = String_set.union (Rel.var_set t.nodes.(i)) head in
      List.fold_left
        (fun acc c -> if spans.(c) then Rel.project keep (Rel.join acc (up c)) else acc)
        t.nodes.(i) t.children.(i)
    in
    (* descend past head-free nodes with a single head-carrying subtree *)
    let rec top i =
      match List.filter (fun c -> spans.(c)) t.children.(i) with
      | [ c ] when not (has_head i) -> top c
      | _ -> i
    in
    let combined =
      List.fold_left
        (fun acc r ->
          if spans.(r) then Rel.join acc (Rel.project head (up (top r))) else acc)
        Rel.unit t.roots
    in
    Mapping.Set.of_list (Rel.to_mappings db combined)
  end
