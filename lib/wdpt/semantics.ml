open Relational

(* Procedural evaluation: for every homomorphism of the root pattern, extend
   it maximally and independently into each child branch.  Independence is
   justified by well-designedness: a variable occurring in two sibling
   branches also occurs in their common ancestors, hence is already bound
   when the branches are processed.

   The same argument bounds what a child sees of its parent: the incoming
   mapping reaches a non-root node's CQ only through the node's own
   variables (its interface to the ancestors, plus whatever [init] binds
   there), and a sibling's variable that reaches it lies in their common
   parent. So every non-root node keeps a memo keyed by the incoming
   mapping's values on the node variables; an entry is the node's CQ
   homomorphisms as deltas (the bindings of the node variables the key
   leaves unbound), in engine enumeration order, and every parent that
   agrees on the key is extended from the one shared list (Theorems 6–7:
   a child is evaluated once per distinct interface binding, not once per
   parent). An empty entry means the node cannot be matched, and the
   extension falls through unchanged. The root is evaluated once per run
   and streamed, never materialised, so a consumer that stops early (paging)
   stops the enumeration.

   Each node's CQ is prepared once per extender and set of bound variables
   (Engine.prepare), and every miss binds it straight from the key's values
   and reads the deltas off the engine's slots: no init mapping is built and
   nothing is optimized per key.

   The memo lives as long as the extender value: one enumeration, or one
   [Standing] refresh (built after the
   batch is applied; the database must not change while it is in use). It
   holds one delta list per distinct key and node, i.e. at most the node's
   CQ answers for the interface bindings the walk actually reached. *)

(* a memo key: the incoming mapping's value on each node variable, in the
   node's sorted variable order, [None] where unbound *)
module Key = Hashtbl.Make (struct
  type t = Value.t option list

  let equal = List.equal (Option.equal Value.equal)

  let hash =
    List.fold_left
      (fun acc o ->
        match o with None -> (acc * 31) + 1 | Some v -> (acc * 31) + Value.hash v)
      17
end)

type node = {
  atoms : Atom.t list;
  vars : string list;         (* node variables, sorted *)
  kids : int list;
  memo : (string * Value.t) list list Key.t;  (* unused at the root *)
  mutable plans : (string list * Engine.prepared) list;
      (* the node CQ prepared once per set of bound variables *)
}

let extender db p =
  let nodes =
    Array.init (Pattern_tree.node_count p) (fun n ->
        { atoms = Pattern_tree.atoms p n;
          vars = String_set.elements (Pattern_tree.node_vars p n);
          kids = Pattern_tree.children p n;
          memo = Key.create 16;
          plans = [] })
  in
  (* the node CQ's homomorphisms extending [bound] = [values], each given
     to [k] as its bindings of [fresh] (the unbound node variables, in
     order), read straight off the engine's slots *)
  let solve node bound values fresh k =
    let prep =
      match List.assoc_opt bound node.plans with
      | Some prep -> prep
      | None ->
          let prep = Engine.prepare db node.atoms ~bound in
          node.plans <- (bound, prep) :: node.plans;
          prep
    in
    let plan = Engine.bind prep values in
    (* an unbound node variable has a slot in every plan that can match *)
    let slots =
      lazy (List.map (fun x -> (x, Option.get (Engine.slot_of plan x))) fresh)
    in
    Engine.iter_envs plan (fun env ->
        k
          (List.map
             (fun (x, s) -> (x, Engine.value_of plan env.(s)))
             (Lazy.force slots)))
  in
  (* the shared CQ homomorphisms of non-root [node] under incoming [h] *)
  let deltas node h =
    let key = List.map (fun x -> Mapping.find x h) node.vars in
    match Key.find_opt node.memo key with
    | Some ds -> ds
    | None ->
        let bound, values, fresh =
          List.fold_right2
            (fun x o (bound, values, fresh) ->
              match o with
              | Some v -> (x :: bound, v :: values, fresh)
              | None -> (bound, values, x :: fresh))
            node.vars key ([], [], [])
        in
        let out = ref [] in
        solve node bound values fresh (fun d -> out := d :: !out);
        let ds = List.rev !out in
        Key.add node.memo key ds;
        ds
  in
  let extend h d = List.fold_left (fun h (x, v) -> Mapping.add x v h) h d in
  (* extend [h] into the branches [cs] in order, then continue with [k]; a
     branch with no match leaves the extension as it was *)
  let rec branches h cs k =
    match cs with
    | [] -> k h
    | c :: rest -> (
        let node = nodes.(c) in
        match deltas node h with
        | [] -> branches h rest k
        | ds ->
            List.iter
              (fun d -> branches (extend h d) node.kids (fun e -> branches e rest k))
              ds)
  in
  let root = nodes.(Pattern_tree.root p) in
  fun ~init yield ->
    let bound, values = List.split (Mapping.bindings init) in
    let fresh = List.filter (fun x -> not (Mapping.mem x init)) root.vars in
    solve root bound values fresh (fun d ->
        branches (extend init d) root.kids yield)

let iter_maximal_homomorphisms db p yield = extender db p ~init:Mapping.empty yield

let maximal_homomorphisms db p =
  let out = ref [] in
  iter_maximal_homomorphisms db p (fun h -> out := h :: !out);
  !out

let maximal_homomorphisms_naive db p =
  let all = ref [] in
  Seq.iter
    (fun s ->
      let atoms = Pattern_tree.atoms_of_subtree p s in
      let homs = Cq.Eval.homomorphisms db atoms ~init:Mapping.empty in
      all := homs @ !all)
    (Pattern_tree.subtrees p);
  Mapping.maximal_elements !all

let any_maximal_homomorphism db p =
  (* greedy: any root match extends to a maximal homomorphism by extending
     each branch with the first available match *)
  let rec extend node h =
    match Cq.Eval.first_homomorphism db (Pattern_tree.atoms p node) ~init:h with
    | None -> None
    | Some g ->
        Some
          (List.fold_left
             (fun acc child ->
               match extend child acc with
               | Some acc' -> acc'
               | None -> acc)
             g (Pattern_tree.children p node))
  in
  extend (Pattern_tree.root p) Mapping.empty

let project_set p homs =
  let free = Pattern_tree.free_set p in
  List.fold_left
    (fun acc h -> Mapping.Set.add (Mapping.restrict free h) acc)
    Mapping.Set.empty homs

let eval db p = project_set p (maximal_homomorphisms db p)
let eval_naive db p = project_set p (maximal_homomorphisms_naive db p)

let eval_max db p = Mapping.maximal_set (eval db p)

exception Stream_done

let stream_eval db p ~offset ~limit yield =
  (* Bounded-buffer streaming of p(D): every hom the procedural enumeration
     yields is already maximal, so its projection is a *bona fide* answer the
     moment it appears — streaming only has to deduplicate, never to retract.
     The buffer holds the distinct answers seen so far and is therefore
     bounded by [offset + limit]; enumeration stops as soon as the page is
     full, without materializing the rest of the answer set. *)
  let free = Pattern_tree.free_set p in
  let seen = ref Mapping.Set.empty in
  let emitted = ref 0 in
  let want = match limit with None -> max_int | Some n -> n in
  (try
     iter_maximal_homomorphisms db p (fun h ->
         let a = Mapping.restrict free h in
         if not (Mapping.Set.mem a !seen) then begin
           seen := Mapping.Set.add a !seen;
           let rank = Mapping.Set.cardinal !seen in
           if rank > offset then begin
             yield a;
             incr emitted;
             if !emitted >= want then raise Stream_done
           end
         end)
   with Stream_done -> ());
  !emitted

let decision db p h = Mapping.Set.mem h (eval db p)

let partial_decision db p h =
  Mapping.Set.exists (fun h' -> Mapping.subsumes h h') (eval db p)

let max_decision db p h = Mapping.Set.mem h (eval_max db p)
