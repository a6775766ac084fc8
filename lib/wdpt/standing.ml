open Relational

(* Standing WDPT queries: register once, then maintain the answer set under
   Database.add / Database.remove batches by recomputing only the parts of
   the view a batch can have touched.

   The view is keyed two ways:

   - *rootkey* (the restriction of a maximal homomorphism to the root-node
     variables): every maximal homomorphism binds all root variables, so the
     hom store partitions by rootkey, and a scoped re-run
     ([Semantics.row_extender db p ~init:rootkey]) recomputes one partition
     without touching the others. One refresh runs every dirty rootkey
     through one extender, built after the batch is applied, so partitions
     that share an OPT child's interface binding evaluate that child once.

   - *root-free-key* (the rootkey restricted to the free variables): two
     answers can only be ⊑-comparable when they agree on the free variables
     of the root (every answer binds all of those, and comparable mappings
     agree on their common domain) — so subsumption frontiers are maintained
     per root-free-key group ([Frontier.t]), never globally.

   A partition is stored as the walk's rows, sorted in [Mapping.compare]
   order, and a refresh diffs a dirty partition's old and fresh rows; a
   mapping is built only for a row that enters or leaves the view, and for
   [view]. A row holds resolved values, not interned ids: the store's
   interner pool is rebuilt by [Database.clear_cache], and the view
   outlives any one pool.

   A projection-free view (every variable free) keeps no frontier. Its
   answers are its maximal homomorphisms, and no two of those are strictly
   comparable (the argument is next to [Semantics.eval_max]), so p_m(D) =
   p(D): a new hom is an answer on the frontier, a vanished one leaves
   both, and no answer is ever demoted or promoted. Its root-free-key is
   its rootkey, so a refresh emits each changed partition's diff directly,
   in the order the frontier would (by rootkey, then by answer).

   Refresh marks a set of *dirty rootkeys* and recomputes exactly those
   partitions. Dirtiness comes from two sound sources:

   - deletions: a stored hom whose atom image meets the net-removed set dies
     with its partition. A hom [h] maps atom [a] onto fact [f] exactly when
     it extends their unifier [u], so the candidates come from the removed
     facts: when [u] binds every root variable, the one rootkey [u] restricts
     to; when it binds some, a posting (root variable, value) -> rootkeys
     kept where partitions appear and vanish; when it binds none, every
     rootkey, in one pass per batch. A candidate is dirty iff one of its
     rows holds [u]'s values on [u]'s slots. This also covers
     removal-induced *promotions* (a hom newly maximal because its
     extensions died): any such hom was previously covered by a maximal
     extension with the same rootkey, and that extension used a removed
     fact.

   - insertions: for every node [n], probe the path pattern root→n with the
     pivot atom ranging over [n]'s atoms, constrained to net-added facts
     (Engine.Delta.iter_pivot_homs). Any genuinely new maximal hom uses an
     added fact at some node [n] of its subtree, and its restriction to the
     path root→n is one of the probed homs — so its rootkey gets marked.
     The same probe also catches insertion-induced *demotions* (a stored hom
     newly extendable, hence no longer maximal): the extension uses an added
     fact in the child, and shares the rootkey. *)

(* A stored maximal homomorphism: its values on the tree variables in
   sorted order (the row slots, [t.names]), [None] where unbound. *)
type row = Value.t option array

(* A rootkey: the values on the root variables in sorted order. Compared
   cell by cell, which is [Mapping.compare] on the rootkeys as mappings
   (they share one domain). *)
module Key = struct
  type t = Value.t array

  let compare (a : t) (b : t) =
    let n = Array.length a in
    let rec go i =
      if i = n then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
end

module KMap = Map.Make (Key)
module KSet = Set.Make (Key)
module MMap = Map.Make (Mapping)
module VTbl = Hashtbl.Make (Value)

(* [Mapping.compare] on the rows as mappings: their bindings, in variable
   order, compared as (variable, value) pairs, a prefix first. *)
let compare_rows (a : row) (b : row) =
  let n = Array.length a in
  let rec skip (r : row) i = if i < n && Option.is_none r.(i) then skip r (i + 1) else i in
  let rec go i j =
    let i = skip a i and j = skip b j in
    if i = n then if j = n then 0 else -1
    else if j = n then 1
    else if i <> j then Int.compare i j
    else
      let c = Value.compare (Option.get a.(i)) (Option.get b.(i)) in
      if c <> 0 then c else go (i + 1) (i + 1)
  in
  go 0 0

(* the distinct rows of [l], sorted *)
let sorted_rows l = Array.of_list (List.sort_uniq compare_rows l)

(* The rows only one of the sorted arrays holds, in order, tagged [true]
   when only [fresh] holds them. *)
let diff old fresh =
  let no = Array.length old and nf = Array.length fresh in
  let rec go i j acc =
    if i = no then
      if j = nf then List.rev acc else go i (j + 1) ((true, fresh.(j)) :: acc)
    else if j = nf then go (i + 1) j ((false, old.(i)) :: acc)
    else
      let c = compare_rows old.(i) fresh.(j) in
      if c < 0 then go (i + 1) j ((false, old.(i)) :: acc)
      else if c > 0 then go i (j + 1) ((true, fresh.(j)) :: acc)
      else go (i + 1) (j + 1) acc
  in
  go 0 0 []

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
  names : string array;             (* the tree variables, sorted: row slots *)
  slot_of : (string, int) Hashtbl.t;
  root : int array;                 (* the root variables' slots, ascending *)
  free : int array;                 (* the free variables' slots, ascending *)
  group : int array;                (* the free root variables' slots: the
                                       root-free-key *)
  projection_free : bool;           (* every variable free: no frontier *)
  paths : (Atom.t list * int * int) array;
      (* per node: (atoms of the path root→node, first pivot index, #pivots) *)
  posting : Key.t VTbl.t array;
      (* per rootkey position, one binding value -> rootkey for each rootkey
         of [homs] ([VTbl.find_all] lists the rootkeys binding it so) *)
  mutable version : int;
  mutable homs : row array KMap.t;  (* rootkey -> maximal homs, sorted *)
  mutable groups : Frontier.t MMap.t;
      (* root-free-key -> answer frontier; empty on a projection-free view *)
  mutable answers : Mapping.Set.t;  (* p(D): the union of the group answers *)
  mutable maximal : Mapping.Set.t;  (* p_m(D): the union of the group frontiers *)
  mutable off : int;                (* |p(D) \ p_m(D)| *)
  mutable stats : stats;
}

let query t = t.query
let database t = t.db
let version t = t.version
let stats t = t.stats

(* the mapping of row [r] on the variables of [slots] *)
let restrict t slots (r : row) =
  Array.fold_left
    (fun m s -> match r.(s) with Some v -> Mapping.add t.names.(s) v m | None -> m)
    Mapping.empty slots

let project t r = restrict t t.free r

let key_mapping t (rk : Key.t) =
  let m = ref Mapping.empty in
  Array.iteri (fun i s -> m := Mapping.add t.names.(s) rk.(i) !m) t.root;
  !m

(* Keep [posting] in step with the rootkeys of [homs]: [post] when a
   partition appears, [unpost] when it vanishes. *)
let post t rk = Array.iteri (fun i tbl -> VTbl.add tbl rk.(i) rk) t.posting

let unpost t rk =
  Array.iteri
    (fun i tbl ->
      let v = rk.(i) in
      let rks = VTbl.find_all tbl v in
      List.iter (fun _ -> VTbl.remove tbl v) rks;
      List.iter (fun r -> if Key.compare r rk <> 0 then VTbl.add tbl v r) rks)
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
  let names, run = Semantics.row_extender db p in
  let slot_of = Hashtbl.create (Array.length names) in
  Array.iteri (fun s x -> Hashtbl.replace slot_of x s) names;
  let slots vars =
    Array.of_list (List.map (Hashtbl.find slot_of) (String_set.elements vars))
  in
  let root_vars = Pattern_tree.node_vars p (Pattern_tree.root p) in
  let free = Pattern_tree.free_set p in
  let root = slots root_vars in
  let parts = ref KMap.empty in
  run ~init:Mapping.empty (fun r ->
      parts :=
        KMap.update
          (Array.map (fun s -> Option.get r.(s)) root)
          (fun prev -> Some (r :: Option.value ~default:[] prev))
          !parts);
  let homs = KMap.map sorted_rows !parts in
  let t =
    { query = p;
      db;
      all_atoms =
        List.concat_map (Pattern_tree.atoms p)
          (List.init (Pattern_tree.node_count p) Fun.id);
      names;
      slot_of;
      root;
      free = slots free;
      group = slots (String_set.inter root_vars free);
      projection_free = Pattern_tree.is_projection_free p;
      paths = build_paths p;
      posting =
        Array.init (Array.length root) (fun _ -> VTbl.create (KMap.cardinal homs));
      version = Database.version db;
      homs;
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
  KMap.iter (fun rk _ -> post t rk) homs;
  if t.projection_free then begin
    t.answers <-
      Mapping.Set.of_list
        (KMap.fold
           (fun _ rs acc -> Array.fold_left (fun acc r -> project t r :: acc) acc rs)
           homs []);
    t.maximal <- t.answers
  end
  else
    KMap.iter
      (fun _ rs ->
        let projs = Array.to_list (Array.map (project t) rs) in
        t.groups <-
          MMap.update (restrict t t.group rs.(0))
            (fun prev ->
              let g = Option.value ~default:Frontier.empty prev in
              let g, evs = Frontier.apply g ~add:projs ~remove:[] in
              note_events t evs;
              Some g)
            t.groups)
      homs;
  t

let answers t = t.answers
let maximal_answers t = t.maximal

(* -- refresh ----------------------------------------------------------- *)

let dirty_rootkeys t (b : Engine.Delta.batch) idx =
  let dirty = ref KSet.empty in
  (* deletions: partitions holding a hom whose atom image meets the removed
     set. A hom [h] maps atom [a] onto fact [f] iff it extends their
     unifier [u] (which binds every variable of [a]), and [h] extends its
     rootkey, so only rootkeys agreeing with [u] on the root variables are
     candidates. A unifier is kept as (slot, value) pairs, and a row
     extends it when it holds every pair. [mark us rk hs] marks [rk] when
     a row extends some [u]. *)
  let extends u (r : row) =
    List.for_all
      (fun (s, v) -> match r.(s) with Some w -> Value.equal v w | None -> false)
      u
  in
  let mark us rk hs =
    if
      (not (KSet.mem rk !dirty))
      && Array.exists (fun h -> List.exists (fun u -> extends u h) us) hs
    then dirty := KSet.add rk !dirty
  in
  let mark_key u rk = Option.iter (mark [ u ] rk) (KMap.find_opt rk t.homs) in
  let unrooted = ref [] in (* unifiers binding no root variable *)
  List.iter
    (fun f ->
      List.iter
        (fun a ->
          match Mapping.matches_fact Mapping.empty a f with
          | None -> ()
          | Some u -> (
              let u =
                List.map
                  (fun (x, v) -> (Hashtbl.find t.slot_of x, v))
                  (Mapping.bindings u)
              in
              (* [u]'s values on the root variables *)
              let ur = Array.map (fun s -> List.assoc_opt s u) t.root in
              if Array.for_all Option.is_some ur then
                mark_key u (Array.map Option.get ur)
              else
                match Array.find_index Option.is_some ur with
                | None -> unrooted := u :: !unrooted
                | Some i ->
                    let agrees rk =
                      Array.for_all2
                        (fun o w -> match o with Some v -> Value.equal v w | None -> true)
                        ur rk
                    in
                    List.iter
                      (fun rk -> if agrees rk then mark_key u rk)
                      (VTbl.find_all t.posting.(i) (Option.get ur.(i)))))
        t.all_atoms)
    b.removed;
  if !unrooted <> [] then KMap.iter (mark !unrooted) t.homs;
  (* insertions: path probes with the pivot constrained to net-added facts *)
  if b.added <> [] then
    Array.iter
      (fun (path_atoms, first_pivot, pivots) ->
        for j = 0 to pivots - 1 do
          Engine.Delta.iter_pivot_homs t.db path_atoms ~pivot:(first_pivot + j)
            idx ~init:Mapping.empty (fun h ->
              dirty :=
                KSet.add
                  (Array.map (fun s -> Option.get (Mapping.find t.names.(s) h)) t.root)
                  !dirty)
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
      (* recompute each dirty partition. A projection-free view emits its
         diff as events right away; a projected one accumulates the
         projection shifts per root-free-key group *)
      let direct = ref [] in (* reversed *)
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
      let _, run = Semantics.row_extender t.db t.query in
      KSet.iter
        (fun rk ->
          let old = Option.value ~default:[||] (KMap.find_opt rk t.homs) in
          let fresh = ref [] in
          run ~init:(key_mapping t rk) (fun r -> fresh := r :: !fresh);
          let fresh = sorted_rows !fresh in
          match diff old fresh with
          | [] -> ()
          | changes ->
              incr recomputed;
              if Array.length fresh = 0 then begin
                t.homs <- KMap.remove rk t.homs;
                unpost t rk
              end
              else begin
                if Array.length old = 0 then post t rk;
                t.homs <- KMap.add rk fresh t.homs
              end;
              if t.projection_free then
                List.iter
                  (fun (added, r) ->
                    let answer = project t r in
                    direct :=
                      (if added then Added { answer; maximal = true }
                       else Removed { answer; was_maximal = true })
                      :: !direct)
                  changes
              else
                let adds, removes = List.partition fst changes in
                let projs l = List.map (fun (_, r) -> project t r) l in
                note (restrict t t.group (snd (List.hd changes))) (projs adds)
                  (projs removes))
        dirty;
      let events =
        if t.projection_free then List.rev !direct
        else begin
          (* one frontier update per touched group, events in group order *)
          let events = ref [] in
          MMap.iter
            (fun gk (adds, removes) ->
              let g =
                Option.value ~default:Frontier.empty (MMap.find_opt gk t.groups)
              in
              let g', evs = Frontier.apply g ~add:adds ~remove:removes in
              t.groups <-
                (if Frontier.is_empty g' then MMap.remove gk t.groups
                 else MMap.add gk g' t.groups);
              events := evs :: !events)
            !pending;
          List.concat (List.rev !events)
        end
      in
      note_events t events;
      t.stats <-
        { refreshes = t.stats.refreshes + 1;
          last_batch_added = List.length b.added;
          last_batch_removed = List.length b.removed;
          last_dirty = KSet.cardinal dirty;
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
  let all = Array.init (Array.length t.names) Fun.id in
  let rootkeys =
    List.map
      (fun (rk, rs) ->
        (key_mapping t rk, Array.to_list (Array.map (restrict t all) rs)))
      (KMap.bindings t.homs)
  in
  { v_version = t.version;
    v_rootkeys = rootkeys;
    v_groups =
      (if t.projection_free then
         (* each partition is its own group, of answers that are its homs,
            supported once and all maximal *)
         List.map (fun (rk, hs) -> (rk, List.map (fun h -> (h, 1)) hs, hs)) rootkeys
       else
         List.map
           (fun (gk, g) ->
             ( gk,
               List.map
                 (fun a -> (a, Frontier.support g a))
                 (Mapping.Set.elements (Frontier.answers g)),
               Mapping.Set.elements (Frontier.maximal g) ))
           (MMap.bindings t.groups));
    v_answers = Mapping.Set.elements t.answers;
    v_maximal = Mapping.Set.elements t.maximal }
