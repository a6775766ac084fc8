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
   homomorphisms as deltas (the values of the node variables the key leaves
   unbound), in engine enumeration order, and every parent that agrees on
   the key is extended from the one shared list (Theorems 6–7: a child is
   evaluated once per distinct interface binding, not once per parent). An
   empty entry means the node cannot be matched, and the extension falls
   through unchanged. The root is evaluated once per run and streamed,
   never materialised, so a consumer that stops early (paging) stops the
   enumeration.

   The walk never builds a [Mapping.t]. The incoming mapping is one mutable
   row of value ids with a slot per tree variable (in sorted variable
   order, [-1] = unbound): a delta is written into the row from the
   engine's slots and undone on backtrack, and memo keys and deltas are
   int arrays. Ids read off the engine are the store's interned ids (every
   plan of one store reads one pool); a value [init] binds gets a local id
   [-2 - k] instead, so a value the store never interned still has one, and
   its node then simply finds no match. Consumers read the row: the
   enumerations below project, deduplicate and filter on it, and build a
   mapping only for an answer they return or emit.

   Each node's CQ is prepared once per extender and set of bound variables
   (Engine.prepare), and every miss binds it from the key's values: nothing
   is optimized per key.

   The memo lives as long as the extender value: one enumeration, or one
   [Standing] refresh (built after the batch is applied; the database must
   not change while it is in use). It holds one delta array per distinct
   key and node, i.e. at most the node's CQ answers for the interface
   bindings the walk actually reached. *)

(* the node's CQ homomorphisms under one key: [count] deltas of
   [Array.length fresh] values each, back to back in [deltas] *)
type entry = {
  fresh : int array;  (* the row slots the key leaves unbound *)
  deltas : int array;
  count : int;
}

type node = {
  atoms : Atom.t list;
  slots : int array;  (* the node variables' row slots, ascending *)
  kids : int list;
  key : int array;  (* reused buffer: the row on [slots] *)
  memo : entry Tuple.Tbl.t;  (* unused at the root *)
  mutable plans : (string list * Engine.prepared) list;
      (* the node CQ prepared once per set of bound variables *)
}

(* The row walk of [p] over [db] with one memo. [run ~init yield] calls
   [yield row] once per maximal homomorphism extending [init]; the row is
   borrowed (rewritten after [yield] returns). [value] resolves any id the
   walk has put in a row. *)
type walk = {
  names : string array;  (* row slot -> tree variable, sorted *)
  value : int -> Value.t;
  run : init:Mapping.t -> (int array -> unit) -> unit;
}

let walk db p =
  let names = Array.of_list (String_set.elements (Pattern_tree.vars p)) in
  let slot_of = Hashtbl.create (Array.length names) in
  Array.iteri (fun i x -> Hashtbl.replace slot_of x i) names;
  let nodes =
    Array.init (Pattern_tree.node_count p) (fun n ->
        let slots =
          Array.of_list
            (List.map (Hashtbl.find slot_of)
               (String_set.elements (Pattern_tree.node_vars p n)))
        in
        { atoms = Pattern_tree.atoms p n;
          slots;
          kids = Pattern_tree.children p n;
          key = Array.make (Array.length slots) (-1);
          memo = Tuple.Tbl.create 16;
          plans = [] })
  in
  (* [init]'s values, by local id *)
  let local = Interner.create ~capacity:16 () in
  (* some plan bound on [db]: it resolves every store id (one pool) *)
  let pool = ref None in
  let value id =
    if id >= 0 then Engine.value_of (Option.get !pool) id
    else Interner.get local (-2 - id)
  in
  (* the node CQ bound to [node.key]: the plan, the row slots the key
     leaves unbound, and the plan's environment slots holding their values *)
  let bind node =
    let key = node.key in
    let bound = ref [] and values = ref [] and fresh = ref [] in
    for i = Array.length key - 1 downto 0 do
      let s = node.slots.(i) in
      if key.(i) = -1 then fresh := s :: !fresh
      else begin
        bound := names.(s) :: !bound;
        values := value key.(i) :: !values
      end
    done;
    let bound = !bound and fresh = Array.of_list !fresh in
    let prep =
      match List.assoc_opt bound node.plans with
      | Some prep -> prep
      | None ->
          let prep = Engine.prepare db node.atoms ~bound in
          node.plans <- (bound, prep) :: node.plans;
          prep
    in
    let plan = Engine.bind prep !values in
    if !pool = None then pool := Some plan;
    (* an unbound node variable has a slot in every plan that can match *)
    let env_slots =
      lazy
        (Array.map (fun s -> Option.get (Engine.slot_of plan names.(s))) fresh)
    in
    (plan, fresh, env_slots)
  in
  let load_key node row =
    Array.iteri (fun i s -> node.key.(i) <- row.(s)) node.slots
  in
  (* the shared entry of non-root [node] under [row] *)
  let entry node row =
    load_key node row;
    match Tuple.Tbl.find_opt node.memo node.key with
    | Some e -> e
    | None ->
        let key = Array.copy node.key in
        let plan, fresh, env_slots = bind node in
        let out = ref [] and count = ref 0 in
        Engine.iter_envs plan (fun env ->
            Array.iter (fun s -> out := env.(s) :: !out) (Lazy.force env_slots);
            incr count);
        let e = { fresh; deltas = Array.of_list (List.rev !out); count = !count } in
        Tuple.Tbl.add node.memo key e;
        e
  in
  (* extend [row] into the branches [cs] in order, then continue with [k];
     a branch with no match leaves the row as it was, and every branch
     leaves it as it found it *)
  let rec branches row cs k =
    match cs with
    | [] -> k ()
    | c :: rest ->
        let node = nodes.(c) in
        let e = entry node row in
        if e.count = 0 then branches row rest k
        else begin
          let fresh = e.fresh and w = Array.length e.fresh in
          let next () = branches row rest k in
          for i = 0 to e.count - 1 do
            for j = 0 to w - 1 do
              row.(fresh.(j)) <- e.deltas.((i * w) + j)
            done;
            branches row node.kids next
          done;
          Array.iter (fun s -> row.(s) <- -1) fresh
        end
  in
  let root = nodes.(Pattern_tree.root p) in
  let run ~init yield =
    let row = Array.make (Array.length names) (-1) in
    List.iter
      (fun (x, v) ->
        match Hashtbl.find_opt slot_of x with
        | Some s -> row.(s) <- -2 - Interner.intern local v
        | None -> ())
      (Mapping.bindings init);
    load_key root row;
    let plan, fresh, env_slots = bind root in
    Engine.iter_envs plan (fun env ->
        let env_slots = Lazy.force env_slots in
        Array.iteri (fun j s -> row.(s) <- env.(env_slots.(j))) fresh;
        branches row root.kids (fun () -> yield row))
  in
  { names; value; run }

(* the mapping that binds the variable of row slot [slots.(i)] to
   [ids.(i)] wherever that is bound, on top of [base] *)
let mapping_of w ?(base = Mapping.empty) slots ids =
  let m = ref base in
  Array.iteri
    (fun i s -> if ids.(i) <> -1 then m := Mapping.add w.names.(s) (w.value ids.(i)) !m)
    slots;
  !m

let extender db p =
  let w = walk db p in
  let all = Array.init (Array.length w.names) Fun.id in
  let vars = Pattern_tree.vars p in
  fun ~init yield ->
    (* [init]'s variables outside the tree ride along unchanged *)
    let base =
      Mapping.of_list
        (List.filter
           (fun (x, _) -> not (String_set.mem x vars))
           (Mapping.bindings init))
    in
    w.run ~init (fun row -> yield (mapping_of w ~base all row))

let row_extender db p =
  let w = walk db p in
  let n = Array.length w.names in
  let cell row s = if row.(s) = -1 then None else Some (w.value row.(s)) in
  (w.names, fun ~init yield -> w.run ~init (fun row -> yield (Array.init n (cell row))))

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

(* ---- answers on rows ---------------------------------------------------- *)

(* An answer is a projected row: a maximal homomorphism's ids on the row
   slots of the free variables ([free], ascending), [-1] where unbound. *)

let free_slots w p =
  let free = Pattern_tree.free_set p in
  Array.of_list
    (List.filter
       (fun s -> String_set.mem w.names.(s) free)
       (List.init (Array.length w.names) Fun.id))

(* [k a] for every distinct answer [a], in first-seen order, once [seen]
   maps it to its rank (0, 1, ...); [a] is the caller's to keep *)
let iter_answers w free seen k =
  let n = Array.length free in
  let probe = Array.make n (-1) in
  w.run ~init:Mapping.empty (fun row ->
      for i = 0 to n - 1 do
        probe.(i) <- row.(free.(i))
      done;
      if not (Tuple.Tbl.mem seen probe) then begin
        let a = Array.copy probe in
        Tuple.Tbl.add seen a (Tuple.Tbl.length seen);
        k a
      end)

(* The answers of the walk in first-seen order, and the table of their
   ranks. A projection-free tree's maximal homomorphisms are its answers,
   so its rows are taken as they come, with no table: the answer set
   drops any repeat. *)
let answers db p =
  let w = walk db p in
  let free = free_slots w p in
  let seen = Tuple.Tbl.create 256 in
  let out = ref [] in
  if Pattern_tree.is_projection_free p then
    w.run ~init:Mapping.empty (fun row -> out := Array.copy row :: !out)
  else iter_answers w free seen (fun a -> out := a :: !out);
  (w, free, seen, Array.of_list (List.rev !out))

(* The answer set of [rows]. The rows are sorted by [Mapping.compare] on
   their mappings (bindings in variable order, a missing binding before
   any present one), over their values resolved once per row (an unbound
   cell's placeholder is never read): sorted input halves the comparisons
   [Mapping.Set.of_list] makes. *)
let set_of_answers w free rows =
  let n = Array.length free in
  let resolve id = if id = -1 then Value.Int 0 else w.value id in
  let resolved = List.map (fun r -> (r, Array.map resolve r)) rows in
  let rec skip r i = if i < n && r.(i) = -1 then skip r (i + 1) else i in
  let compare (a, va) (b, vb) =
    let rec go i j =
      let i = skip a i and j = skip b j in
      if i = n then if j = n then 0 else -1
      else if j = n then 1
      else if i <> j then Int.compare i j
      else if a.(i) = b.(i) then go (i + 1) (j + 1)
      else
        let c = Value.compare va.(i) vb.(i) in
        if c <> 0 then c else go (i + 1) (j + 1)
    in
    go 0 0
  in
  Mapping.Set.of_list
    (List.map
       (fun (r, v) ->
         let m = ref Mapping.empty in
         for i = 0 to n - 1 do
           if r.(i) <> -1 then m := Mapping.add w.names.(free.(i)) v.(i) !m
         done;
         !m)
       (List.sort compare resolved))

let project_set p homs =
  let free = Pattern_tree.free_set p in
  List.fold_left
    (fun acc h -> Mapping.Set.add (Mapping.restrict free h) acc)
    Mapping.Set.empty homs

let eval db p =
  let w, free, _, rows = answers db p in
  set_of_answers w free (Array.to_list rows)

let eval_naive db p = project_set p (maximal_homomorphisms_naive db p)

(* The ⊑-maximal answers among the distinct [rows], [seen] mapping each to
   its index. h ⊏ h' iff dom h ⊊ dom h' and h is h' restricted to dom h,
   so the rows are grouped by the set of free variables they bind (a
   mask), and for every pair of masks m ⊊ m' each m'-row restricted to m
   is looked up among the answers. *)
let maximal_answers seen rows =
  let n = if rows = [||] then 0 else Array.length rows.(0) in
  let groups = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      let m = String.init n (fun i -> if r.(i) = -1 then '0' else '1') in
      Hashtbl.replace groups m
        (r :: Option.value ~default:[] (Hashtbl.find_opt groups m)))
    rows;
  let masks = Hashtbl.fold (fun m _ acc -> m :: acc) groups [] in
  let below m m' =
    m <> m'
    && (let rec go i = i = n || ((m.[i] = '0' || m'.[i] = '1') && go (i + 1)) in
        go 0)
  in
  let alive = Array.make (Array.length rows) true in
  let probe = Array.make n (-1) in
  List.iter
    (fun m' ->
      List.iter
        (fun m ->
          if below m m' then
            List.iter
              (fun r' ->
                for i = 0 to n - 1 do
                  probe.(i) <- (if m.[i] = '1' then r'.(i) else -1)
                done;
                match Tuple.Tbl.find_opt seen probe with
                | Some k -> alive.(k) <- false
                | None -> ())
              (Hashtbl.find groups m'))
        masks)
    masks;
  List.filteri (fun k _ -> alive.(k)) (Array.to_list rows)

(* For a projection-free tree, p(D) is the set of maximal homomorphisms,
   and no two of them are strictly comparable, so the filter is skipped.
   Suppose h ⊏ h', both maximal, and let x ∈ dom(h') \ dom(h). The nodes h
   matches form a rooted subtree T; take the first node c on the path from
   the root to a node mentioning x that lies outside T. Its parent is in
   T, and c lies in the rooted subtree h' matches (that subtree contains
   the whole path). h' agrees with h on dom(h), so h ∪ h' restricted to
   c's variables is a homomorphism of T plus c: h extends to the child c,
   which contradicts its maximality. *)
let eval_max db p =
  let w, free, seen, rows = answers db p in
  set_of_answers w free
    (if Pattern_tree.is_projection_free p then Array.to_list rows
     else maximal_answers seen rows)

exception Stream_done

let stream_eval db p ~offset ~limit yield =
  (* Bounded-buffer streaming of p(D): every hom the procedural enumeration
     yields is already maximal, so its projection is a *bona fide* answer the
     moment it appears — streaming only has to deduplicate, never to retract.
     The buffer holds the distinct projected rows seen so far and is
     therefore bounded by [offset + limit]; enumeration stops as soon as the
     page is full, without materializing the rest of the answer set, and
     only the emitted answers become mappings. *)
  let want = match limit with None -> max_int | Some n -> n in
  if want <= 0 then 0
  else begin
    let w = walk db p in
    let free = free_slots w p in
    let seen = Tuple.Tbl.create 256 and emitted = ref 0 in
    (try
       iter_answers w free seen (fun a ->
           if Tuple.Tbl.length seen > offset then begin
             yield (mapping_of w free a);
             incr emitted;
             if !emitted >= want then raise Stream_done
           end)
     with Stream_done -> ());
    !emitted
  end

let decision db p h = Mapping.Set.mem h (eval db p)

let partial_decision db p h =
  Mapping.Set.exists (fun h' -> Mapping.subsumes h h') (eval db p)

let max_decision db p h = Mapping.Set.mem h (eval_max db p)
