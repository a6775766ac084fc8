open Relational
module Td = Hypergraphs.Tree_decomposition

(* Each bag joins the atoms assigned to it; bag variables that no assigned
   atom covers range over the active domain. *)
let bag_tree ?td db q ~init =
  Option.map
    (fun (q, atoms) ->
      let { Td.bags; tree } =
        match td with
        | Some td -> td
        | None ->
            snd
              (Td.upper_bound
                 (Hypergraphs.Hypergraph.of_edges (List.map Atom.var_set atoms)))
      in
      let t = Bag_tree.of_decomposition ~bags ~tree atoms in
      let bag_rel (bag, atoms) =
        Engine.Rel.extend_adom db bag (Engine.Rel.of_atoms db atoms ~onto:bag)
      in
      (q, { t with Bag_tree.nodes = Array.map bag_rel t.Bag_tree.nodes }))
    (Bag_tree.instantiate db q ~init)

let satisfiable_td ?td db q ~init =
  match bag_tree ?td db q ~init with
  | None -> false
  | Some (_, t) -> Bag_tree.satisfiable t

let answers_td ?td db q =
  match bag_tree ?td db q ~init:Mapping.empty with
  | None -> Mapping.Set.empty
  | Some (q, t) -> Bag_tree.answers db t ~head:(Query.head_set q)

(* Acyclic (instantiated) queries go to Yannakakis — the HW(1) algorithm;
   the rest to the tree-decomposition evaluator. A supplied decomposition
   forces the latter. *)
let satisfiable ?td db q ~init =
  match td with
  | Some _ -> satisfiable_td ?td db q ~init
  | None -> (
      match Yannakakis.satisfiable db q ~init with
      | Some b -> b
      | None -> satisfiable_td db q ~init)

let answers ?td db q =
  match td with
  | Some _ -> answers_td ?td db q
  | None -> (
      match Yannakakis.answers db q with
      | Some a -> a
      | None -> answers_td db q)

let decision ?td db q h =
  String_set.equal (Mapping.domain h) (Query.head_set q)
  && satisfiable ?td db q ~init:h
