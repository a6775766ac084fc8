open Relational

(* Standing WDPT queries: register once, then maintain the answer set under
   Database.add / Database.remove batches by recomputing only the parts of
   the view a batch can have touched.

   The view is keyed two ways:

   - *rootkey* (the restriction of a maximal homomorphism to the root-node
     variables): every maximal homomorphism binds all root variables, so the
     hom store partitions by rootkey, and a scoped re-run
     ([Semantics.extender db p ~init:rootkey]) recomputes one partition
     without touching the others. One refresh runs every dirty rootkey
     through one extender, built after the batch is applied, so partitions
     that share an OPT child's interface binding evaluate that child once.

   - *root-free-key* (the rootkey restricted to the free variables): two
     answers can only be ⊑-comparable when they agree on the free variables
     of the root (every answer binds all of those, and comparable mappings
     agree on their common domain) — so subsumption frontiers are maintained
     per root-free-key group ([Frontier.t]), never globally.

   Refresh marks a set of *dirty rootkeys* and recomputes exactly those
   partitions. Dirtiness comes from two sound sources:

   - deletions: a stored hom whose atom image meets the net-removed set dies
     with its partition. A hom [h] maps atom [a] onto fact [f] exactly when
     it extends their unifier [u], so the candidates come from the removed
     facts: when [u] binds every root variable, the one rootkey [u] restricts
     to; when it binds some, a posting (root variable, value) -> rootkeys
     kept where partitions appear and vanish; when it binds none, every
     rootkey, in one pass per batch. A candidate is dirty iff one of its
     homs extends [u]. This also covers removal-induced *promotions* (a hom
     newly maximal because its extensions died): any such hom was
     previously covered by a maximal extension with the same rootkey, and
     that extension used a removed fact.

   - insertions: for every node [n], probe the path pattern root→n with the
     pivot atom ranging over [n]'s atoms, constrained to net-added facts
     (Engine.Delta.iter_pivot_homs). Any genuinely new maximal hom uses an
     added fact at some node [n] of its subtree, and its restriction to the
     path root→n is one of the probed homs — so its rootkey gets marked.
     The same probe also catches insertion-induced *demotions* (a stored hom
     newly extendable, hence no longer maximal): the extension uses an added
     fact in the child, and shares the rootkey. *)

module MMap = Map.Make (Mapping)
module VTbl = Hashtbl.Make (Value)

type event = Frontier.event =
  | Added of { answer : Mapping.t; maximal : bool }
  | Removed of { answer : Mapping.t; was_maximal : bool }
  | Promoted of Mapping.t
  | Demoted of Mapping.t

type stats = {
  refreshes : int;
  last_batch_added : int;
  last_batch_removed : int;
  last_dirty : int;      (* dirty rootkeys marked by the last refresh *)
  last_recomputed : int; (* rootkey partitions whose hom set actually changed *)
  last_events : int;
}

type t = {
  query : Pattern_tree.t;
  db : Database.t;
  all_atoms : Atom.t list;          (* every atom of the tree *)
  root_vars : String_set.t;
  root_free : String_set.t;         (* root_vars ∩ free vars: the group key *)
  free : String_set.t;
  paths : (Atom.t list * int * int) array;
      (* per node: (atoms of the path root→node, first pivot index, #pivots) *)
  posting : (string * Mapping.t VTbl.t) list;
      (* per root variable, one binding value -> rootkey for each rootkey of
         [homs] ([VTbl.find_all] lists the rootkeys binding it so) *)
  mutable version : int;
  mutable homs : Mapping.Set.t MMap.t;   (* rootkey -> maximal homs *)
  mutable groups : Frontier.t MMap.t;    (* root-free-key -> answer frontier *)
  mutable answers : Mapping.Set.t;       (* p(D): the union of the group answers *)
  mutable maximal : Mapping.Set.t;       (* p_m(D): the union of the group frontiers *)
  mutable off : int;                     (* |p(D) \ p_m(D)| *)
  mutable stats : stats;
}

let rootkey t h = Mapping.restrict t.root_vars h
let groupkey t rk = Mapping.restrict t.root_free rk
let project t h = Mapping.restrict t.free h

let query t = t.query
let database t = t.db
let version t = t.version
let stats t = t.stats

(* Keep [posting] in step with the rootkeys of [homs]: [post] when a
   partition appears, [unpost] when it vanishes. *)
let post t rk =
  List.iter
    (fun (x, tbl) -> Option.iter (fun v -> VTbl.add tbl v rk) (Mapping.find x rk))
    t.posting

let unpost t rk =
  List.iter
    (fun (x, tbl) ->
      Option.iter
        (fun v ->
          let rks = VTbl.find_all tbl v in
          List.iter (fun _ -> VTbl.remove tbl v) rks;
          List.iter (fun r -> if not (Mapping.equal r rk) then VTbl.add tbl v r) rks)
        (Mapping.find x rk))
    t.posting

let build_paths p =
  Array.init (Pattern_tree.node_count p) (fun n ->
      let rec up acc n = if n < 0 then acc else up (n :: acc) (Pattern_tree.parent p n) in
      let nodes = up [] n in
      let atoms = List.concat_map (Pattern_tree.atoms p) nodes in
      let pivots = List.length (Pattern_tree.atoms p n) in
      (atoms, List.length atoms - pivots, pivots))

(* Keep p(D) and p_m(D) in step with one group's frontier events. Groups
   are disjoint (an answer's root-free-key is its restriction to the root's
   free variables), so the group events are exactly the changes of the two
   unions. While every answer is maximal, p_m(D) is p(D) and the two fields
   share one tree, so a view whose answers are all maximal stores the set
   once and updates it once per event. *)
let note_events t evs =
  List.iter
    (fun ev ->
      (match ev with
      | Added { answer; _ } -> t.answers <- Mapping.Set.add answer t.answers
      | Removed { answer; _ } -> t.answers <- Mapping.Set.remove answer t.answers
      | Promoted _ | Demoted _ -> ());
      (match ev with
      | Added { maximal = false; _ } | Demoted _ -> t.off <- t.off + 1
      | Removed { was_maximal = false; _ } | Promoted _ -> t.off <- t.off - 1
      | Added _ | Removed _ -> ());
      if t.off = 0 then t.maximal <- t.answers
      else
        match ev with
        | Added { answer; maximal = true } | Promoted answer ->
            t.maximal <- Mapping.Set.add answer t.maximal
        | Removed { answer; was_maximal = true } | Demoted answer ->
            t.maximal <- Mapping.Set.remove answer t.maximal
        | Added _ | Removed _ -> ())
    evs

let register db p =
  let root_vars = Pattern_tree.node_vars p (Pattern_tree.root p) in
  let free = Pattern_tree.free_set p in
  let homs = ref MMap.empty in
  Semantics.iter_maximal_homomorphisms db p (fun h ->
      homs :=
        MMap.update (Mapping.restrict root_vars h)
          (fun prev ->
            Some (Mapping.Set.add h (Option.value ~default:Mapping.Set.empty prev)))
          !homs);
  let n_keys = MMap.cardinal !homs in
  let t =
    { query = p;
      db;
      all_atoms =
        List.concat_map (Pattern_tree.atoms p)
          (List.init (Pattern_tree.node_count p) Fun.id);
      root_vars;
      root_free = String_set.inter root_vars free;
      free;
      paths = build_paths p;
      posting =
        List.map (fun x -> (x, VTbl.create n_keys)) (String_set.elements root_vars);
      version = Database.version db;
      homs = !homs;
      groups = MMap.empty;
      answers = Mapping.Set.empty;
      maximal = Mapping.Set.empty;
      off = 0;
      stats =
        { refreshes = 0;
          last_batch_added = 0;
          last_batch_removed = 0;
          last_dirty = 0;
          last_recomputed = 0;
          last_events = 0 } }
  in
  MMap.iter
    (fun rk hs ->
      post t rk;
      let gk = groupkey t rk in
      let projs = List.map (project t) (Mapping.Set.elements hs) in
      t.groups <-
        MMap.update gk
          (fun prev ->
            let g = Option.value ~default:Frontier.empty prev in
            let g, evs = Frontier.apply g ~add:projs ~remove:[] in
            note_events t evs;
            Some g)
          t.groups)
    t.homs;
  t

let answers t = t.answers
let maximal_answers t = t.maximal

(* -- refresh ----------------------------------------------------------- *)

let dirty_rootkeys t (b : Engine.Delta.batch) idx =
  let dirty = ref Mapping.Set.empty in
  (* deletions: partitions holding a hom whose atom image meets the removed
     set. A hom [h] maps atom [a] onto fact [f] iff it extends their
     unifier [u] (which binds every variable of [a]), and [h] extends its
     rootkey, so only rootkeys agreeing with [u] on the root variables are
     candidates. [mark us rk hs] marks [rk] when a hom extends some [u]. *)
  let mark us rk hs =
    if
      (not (Mapping.Set.mem rk !dirty))
      && Mapping.Set.exists (fun h -> List.exists (fun u -> Mapping.subsumes u h) us) hs
    then dirty := Mapping.Set.add rk !dirty
  in
  let mark_key u rk = Option.iter (mark [ u ] rk) (MMap.find_opt rk t.homs) in
  let unrooted = ref [] in (* unifiers binding no root variable *)
  let n_root = String_set.cardinal t.root_vars in
  List.iter
    (fun f ->
      List.iter
        (fun a ->
          match Mapping.matches_fact Mapping.empty a f with
          | None -> ()
          | Some u -> (
              let ur = rootkey t u in
              if Mapping.cardinal ur = n_root then mark_key u ur
              else
                match Mapping.bindings ur with
                | [] -> unrooted := u :: !unrooted
                | (x, v) :: _ ->
                    List.iter
                      (fun rk -> if Mapping.subsumes ur rk then mark_key u rk)
                      (VTbl.find_all (List.assoc x t.posting) v)))
        t.all_atoms)
    b.removed;
  if !unrooted <> [] then MMap.iter (mark !unrooted) t.homs;
  (* insertions: path probes with the pivot constrained to net-added facts *)
  if b.added <> [] then
    Array.iter
      (fun (path_atoms, first_pivot, pivots) ->
        for j = 0 to pivots - 1 do
          Engine.Delta.iter_pivot_homs t.db path_atoms ~pivot:(first_pivot + j)
            idx ~init:Mapping.empty (fun h ->
              dirty := Mapping.Set.add (rootkey t h) !dirty)
        done)
      t.paths;
  !dirty

let refresh t =
  let v = Database.version t.db in
  if v = t.version then []
  else begin
    let b = Engine.Delta.batch t.db ~since:t.version in
    t.version <- v;
    if Engine.Delta.is_empty b then begin
      (* the window nets to nothing (e.g. add immediately undone by remove):
         the database state is the one the view was built from *)
      t.stats <-
        { refreshes = t.stats.refreshes + 1;
          last_batch_added = 0;
          last_batch_removed = 0;
          last_dirty = 0;
          last_recomputed = 0;
          last_events = 0 };
      []
    end
    else begin
      let idx = Engine.Delta.index b in
      let dirty = dirty_rootkeys t b idx in
      (* recompute each dirty partition and accumulate the projection shifts
         per root-free-key group *)
      let pending = ref MMap.empty in
      let note gk adds removes =
        pending :=
          MMap.update gk
            (fun prev ->
              let pa, pr = Option.value ~default:([], []) prev in
              Some (adds @ pa, removes @ pr))
            !pending
      in
      let recomputed = ref 0 in
      let extend = Semantics.extender t.db t.query in
      Mapping.Set.iter
        (fun rk ->
          let old =
            Option.value ~default:Mapping.Set.empty (MMap.find_opt rk t.homs)
          in
          let fresh = ref Mapping.Set.empty in
          extend ~init:rk (fun h ->
              fresh := Mapping.Set.add h !fresh);
          let fresh = !fresh in
          if not (Mapping.Set.equal old fresh) then begin
            incr recomputed;
            if Mapping.Set.is_empty fresh then begin
              t.homs <- MMap.remove rk t.homs;
              unpost t rk
            end
            else begin
              if Mapping.Set.is_empty old then post t rk;
              t.homs <- MMap.add rk fresh t.homs
            end;
            let gk = groupkey t rk in
            let adds =
              List.map (project t) (Mapping.Set.elements (Mapping.Set.diff fresh old))
            and removes =
              List.map (project t) (Mapping.Set.elements (Mapping.Set.diff old fresh))
            in
            if adds <> [] || removes <> [] then note gk adds removes
          end)
        dirty;
      (* one frontier update per touched group, events in group order *)
      let events = ref [] in
      MMap.iter
        (fun gk (adds, removes) ->
          let g =
            Option.value ~default:Frontier.empty (MMap.find_opt gk t.groups)
          in
          let g', evs = Frontier.apply g ~add:adds ~remove:removes in
          note_events t evs;
          t.groups <-
            (if Frontier.is_empty g' then MMap.remove gk t.groups
             else MMap.add gk g' t.groups);
          events := evs :: !events)
        !pending;
      let events = List.concat (List.rev !events) in
      t.stats <-
        { refreshes = t.stats.refreshes + 1;
          last_batch_added = List.length b.added;
          last_batch_removed = List.length b.removed;
          last_dirty = Mapping.Set.cardinal dirty;
          last_recomputed = !recomputed;
          last_events = List.length events };
      events
    end
  end

(* -- plain-data view for the auditor ------------------------------------ *)

type view = {
  v_version : int;
  v_rootkeys : (Mapping.t * Mapping.t list) list;
  v_groups : (Mapping.t * (Mapping.t * int) list * Mapping.t list) list;
  v_answers : Mapping.t list;
  v_maximal : Mapping.t list;
}

let view t =
  { v_version = t.version;
    v_rootkeys =
      List.map (fun (rk, hs) -> (rk, Mapping.Set.elements hs)) (MMap.bindings t.homs);
    v_groups =
      List.map
        (fun (gk, g) ->
          ( gk,
            List.map
              (fun a -> (a, Frontier.support g a))
              (Mapping.Set.elements (Frontier.answers g)),
            Mapping.Set.elements (Frontier.maximal g) ))
        (MMap.bindings t.groups);
    v_answers = Mapping.Set.elements t.answers;
    v_maximal = Mapping.Set.elements t.maximal }
