open Relational

type join_forest = {
  parents : (int * int) list;
  roots : int list;
}

(* GYO with witness tracking.  Each live edge keeps its original index; when an
   edge becomes contained in another live edge we record the parent link. *)
let reduce hg =
  let edges = Array.of_list (Hypergraph.edges hg) in
  let n = Array.length edges in
  let live = Array.make n true in
  let current = Array.copy edges in
  let parents = ref [] in
  let changed = ref true in
  (* occurrence counts for rule 1 *)
  let occurrences v =
    let c = ref 0 in
    Array.iteri (fun i e -> if live.(i) && String_set.mem v e then incr c) current;
    !c
  in
  while !changed do
    changed := false;
    (* rule 1: drop vertices that occur in exactly one live edge *)
    Array.iteri
      (fun i e ->
        if live.(i) then begin
          let e' = String_set.filter (fun v -> occurrences v > 1) e in
          if not (String_set.equal e e') then begin
            current.(i) <- e';
            changed := true
          end
        end)
      current;
    (* rule 2: drop an edge contained in another live edge *)
    (try
       for i = 0 to n - 1 do
         if live.(i) then
           for j = 0 to n - 1 do
             if j <> i && live.(j) && String_set.subset current.(i) current.(j)
             then begin
               live.(i) <- false;
               parents := (i, j) :: !parents;
               changed := true;
               raise Exit
             end
           done
       done
     with Exit -> ())
  done;
  let remaining = ref [] in
  Array.iteri (fun i l -> if l then remaining := i :: !remaining) live;
  (!remaining, !parents, current)

let join_forest hg =
  if Hypergraph.num_edges hg = 0 then Some { parents = []; roots = [] }
  else begin
    let remaining, parents, current = reduce hg in
    (* acyclic iff every remaining edge has been emptied of shared vertices *)
    let ok = List.for_all (fun i -> String_set.is_empty current.(i)) remaining in
    if ok then Some { parents; roots = remaining } else None
  end

let is_acyclic hg = Option.is_some (join_forest hg)

let is_join_forest hg jf =
  let edges = Array.of_list (Hypergraph.edges hg) in
  let n = Array.length edges in
  if n = 0 then jf.roots = [] && jf.parents = []
  else begin
    let adj = Array.make n [] in
    List.iter
      (fun (a, b) ->
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b))
      jf.parents;
    (* each vertex's set of edges must induce a connected subforest *)
    String_set.for_all
      (fun v ->
        let holds = Array.map (String_set.mem v) edges in
        let start = ref (-1) in
        Array.iteri (fun i h -> if h && !start < 0 then start := i) holds;
        if !start < 0 then true
        else begin
          let seen = Array.make n false in
          let rec dfs i =
            seen.(i) <- true;
            List.iter (fun j -> if holds.(j) && not seen.(j) then dfs j) adj.(i)
          in
          dfs !start;
          Array.for_all2 (fun h s -> (not h) || s) holds seen
        end)
      (Hypergraph.vertices hg)
  end
