open Relational
module Gyo = Hypergraphs.Gyo
module Rel = Engine.Rel

(* The join forest is evaluated over interned relations (Engine.Rel): rows
   are dense-int tuples, semijoins and joins are hash-based on projected key
   tuples. Mapping.t values appear only in the final conversion of the
   combined answer relation. The semijoin passes run sequentially:
   Rel.semijoin filters the probe side against a hash index of the other
   relation's keys, keeping row order. *)

type node = {
  mutable rel : Rel.t;
  mutable children : int list;
  mutable is_root : bool;
}

type prepared =
  | Cyclic
  | Ground_failure
  | Ready of Query.t * node array

(* Build per-atom interned relations and the join-forest structure. *)
let prepare db q ~init =
  let q = Query.substitute init q in
  let ground, atoms = List.partition Atom.is_ground (Query.body q) in
  if not (List.for_all (fun a -> Database.mem db (Atom.to_fact a)) ground) then
    Ground_failure
  else begin
    let hg = Hypergraphs.Hypergraph.of_edges (List.map Atom.var_set atoms) in
    match Gyo.join_forest hg with
    | None -> Cyclic
    | Some jf ->
        let nodes =
          Array.of_list
            (List.map
               (fun a ->
                 { rel = Rel.of_atom db a; children = []; is_root = false })
               atoms)
        in
        List.iter
          (fun (child, parent) ->
            nodes.(parent).children <- child :: nodes.(parent).children)
          jf.Gyo.parents;
        List.iter (fun r -> nodes.(r).is_root <- true) jf.Gyo.roots;
        Ready (q, nodes)
  end

let rec up_pass nodes i =
  List.iter
    (fun c ->
      up_pass nodes c;
      nodes.(i).rel <- Rel.semijoin nodes.(i).rel nodes.(c).rel)
    nodes.(i).children

let roots_of nodes =
  let out = ref [] in
  Array.iteri (fun i n -> if n.is_root then out := i :: !out) nodes;
  !out

let satisfiable db q ~init =
  match prepare db q ~init with
  | Cyclic -> None
  | Ground_failure -> Some false
  | Ready (_, nodes) ->
      let roots = roots_of nodes in
      List.iter (fun r -> up_pass nodes r) roots;
      Some (List.for_all (fun r -> not (Rel.is_empty nodes.(r).rel)) roots)

let answers db q =
  match prepare db q ~init:Mapping.empty with
  | Cyclic -> None
  | Ground_failure -> Some Mapping.Set.empty
  | Ready (q', nodes) ->
      let head = Query.head_set q' in
      let roots = roots_of nodes in
      List.iter (fun r -> up_pass nodes r) roots;
      if List.exists (fun r -> Rel.is_empty nodes.(r).rel) roots then
        Some Mapping.Set.empty
      else begin
        (* full reducer: downward semijoins *)
        let rec down i =
          List.iter
            (fun c ->
              nodes.(c).rel <- Rel.semijoin nodes.(c).rel nodes.(i).rel;
              down c)
            nodes.(i).children
        in
        List.iter down roots;
        (* upward joins projecting onto atom vars ∪ head *)
        let rec up i =
          let keep = String_set.union (Rel.var_set nodes.(i).rel) head in
          List.fold_left
            (fun acc c -> Rel.project keep (Rel.join acc (up c)))
            nodes.(i).rel nodes.(i).children
        in
        let combined =
          List.fold_left
            (fun acc r -> Rel.join acc (Rel.project head (up r)))
            Rel.unit roots
        in
        Some (Mapping.Set.of_list (Rel.to_mappings db combined))
      end
