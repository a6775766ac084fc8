type key = {
  k_rel : string;
  k_pos : int;
  k_val : Value.t;
}

module Key = struct
  type t = key

  let equal a b =
    String.equal a.k_rel b.k_rel && a.k_pos = b.k_pos && Value.equal a.k_val b.k_val

  let hash a = Hashtbl.hash (a.k_rel, a.k_pos, Value.hash a.k_val)
end

module Idx = Hashtbl.Make (Key)

(* Counted cells: the live count rides along with the fact list so index
   selection is O(1) per bound position instead of a length scan. After a
   {!remove}, [c_count] is the number of *live* facts while [c_facts] may
   still physically contain tombstoned facts until the next compaction. *)
type cell = {
  mutable c_count : int;
  mutable c_facts : Fact.t list;
}

type change =
  | Add of Fact.t
  | Remove of Fact.t

type cache = ..

type t = {
  mutable all : Fact.Set.t;          (* live facts only *)
  mutable live_count : int;
  by_rel : (string, cell) Hashtbl.t;
  by_pos : cell Idx.t;
  mutable distinct : (string * int, int ref) Hashtbl.t;
      (* (rel, pos) -> number of distinct values with a live fact there *)
  mutable adom : Value.Set.t;
  mutable adom_count : int;
  mutable version : int;
  mutable log : change list;
      (* reverse modification order; length = version. The log is what lets a
         derived structure catch up incrementally: [net_changes] /
         [changes_since] slice it. *)
  mutable deletions : int;           (* deletion epoch: bumped per remove *)
  mutable dead : Fact.Set.t;
      (* tombstones: removed facts still physically present in the cells.
         Invariant: f ∈ dead  ⟹  f sits in every cell it belongs to, so a
         re-add before compaction resurrects by bookkeeping alone. *)
  mutable dead_count : int;
  mutable cache : cache option;
}

let create () =
  { all = Fact.Set.empty;
    live_count = 0;
    by_rel = Hashtbl.create 16;
    by_pos = Idx.create 64;
    distinct = Hashtbl.create 16;
    adom = Value.Set.empty;
    adom_count = 0;
    version = 0;
    log = [];
    deletions = 0;
    dead = Fact.Set.empty;
    dead_count = 0;
    cache = None }

let mem db f = Fact.Set.mem f db.all

let cell_add cell f =
  cell.c_count <- cell.c_count + 1;
  cell.c_facts <- f :: cell.c_facts

let rel_cell db r =
  match Hashtbl.find_opt db.by_rel r with
  | Some c -> c
  | None ->
      let c = { c_count = 0; c_facts = [] } in
      Hashtbl.add db.by_rel r c;
      c

let pos_cell db key =
  match Idx.find_opt db.by_pos key with
  | Some c -> c
  | None ->
      let c = { c_count = 0; c_facts = [] } in
      Idx.add db.by_pos key c;
      c

let bump_distinct db rel pos delta =
  match Hashtbl.find_opt db.distinct (rel, pos) with
  | Some n -> n := !n + delta
  | None -> if delta > 0 then Hashtbl.add db.distinct (rel, pos) (ref delta)

let add db f =
  if not (mem db f) then begin
    db.all <- Fact.Set.add f db.all;
    db.live_count <- db.live_count + 1;
    db.version <- db.version + 1;
    db.log <- Add f :: db.log;
    (* the cache survives: derived structures compare their stored version
       against [version] and catch up via [net_changes] *)
    if Fact.Set.mem f db.dead then begin
      (* Resurrection: the fact is still physically present in every cell it
         belongs to, so restoring the live counts is all that is needed. *)
      db.dead <- Fact.Set.remove f db.dead;
      db.dead_count <- db.dead_count - 1;
      let rc = rel_cell db (Fact.rel f) in
      rc.c_count <- rc.c_count + 1;
      List.iteri
        (fun i v ->
          let cell = pos_cell db { k_rel = Fact.rel f; k_pos = i; k_val = v } in
          cell.c_count <- cell.c_count + 1;
          if cell.c_count = 1 then bump_distinct db (Fact.rel f) i 1;
          if not (Value.Set.mem v db.adom) then begin
            db.adom <- Value.Set.add v db.adom;
            db.adom_count <- db.adom_count + 1
          end)
        (Fact.tuple f)
    end
    else begin
      cell_add (rel_cell db (Fact.rel f)) f;
      List.iteri
        (fun i v ->
          let key = { k_rel = Fact.rel f; k_pos = i; k_val = v } in
          let cell = pos_cell db key in
          if cell.c_count = 0 then bump_distinct db (Fact.rel f) i 1;
          cell_add cell f;
          if not (Value.Set.mem v db.adom) then begin
            db.adom <- Value.Set.add v db.adom;
            db.adom_count <- db.adom_count + 1
          end)
        (Fact.tuple f)
    end
  end

let is_dead db f = Fact.Set.mem f db.dead

let live_facts db l =
  if db.dead_count = 0 then l
  else List.filter (fun f -> not (is_dead db f)) l

let of_list fs =
  let db = create () in
  List.iter (add db) fs;
  db

let of_atoms atoms = of_list (List.map Atom.to_fact atoms)
let size db = db.live_count
let facts db = Fact.Set.elements db.all

let facts_of db rel =
  match Hashtbl.find_opt db.by_rel rel with
  | Some c -> live_facts db c.c_facts
  | None -> []

let count_of db rel =
  match Hashtbl.find_opt db.by_rel rel with
  | Some c -> c.c_count
  | None -> 0

let index_count db rel pos v =
  match Idx.find_opt db.by_pos { k_rel = rel; k_pos = pos; k_val = v } with
  | Some c -> c.c_count
  | None -> 0

let relations db = Hashtbl.fold (fun r _ acc -> r :: acc) db.by_rel []

let schema db =
  List.fold_left
    (fun s r ->
      match facts_of db r with
      | [] -> s
      | f :: _ -> Schema.add r (Fact.arity f) s)
    Schema.empty (relations db)

let active_domain db = db.adom
let adom_size db = db.adom_count

let distinct_count db rel pos =
  match Hashtbl.find_opt db.distinct (rel, pos) with
  | Some n -> !n
  | None -> 0

let version db = db.version
let deletions db = db.deletions

let changes_entries db v =
  (* the newest [version - v] log entries, oldest first *)
  let rec take n acc l =
    if n <= 0 then acc
    else match l with [] -> acc | e :: rest -> take (n - 1) (e :: acc) rest
  in
  take (db.version - v) [] db.log

let changes_since db v = changes_entries db v

(* Net effect of the window after version [v]: per fact, window entries
   strictly alternate Add/Remove starting from its state at [v] (add only
   logs when the fact is absent, remove only when live), so the first entry
   tells the state at [v] and the last the state now. A fact is net-added iff
   both are [Add], net-removed iff both are [Remove]. Both lists are in order
   of first appearance in the window. *)
let net_changes db v =
  if v >= db.version then ([], [])
  else begin
    let entries = changes_entries db v in
    if List.for_all (function Add _ -> true | Remove _ -> false) entries then
      (* insert-only window: every entry is a distinct net-added fact *)
      (List.map (function Add f | Remove f -> f) entries, [])
    else begin
      (* fact -> (first entry is Add, last entry is Add) *)
      let seen : (Fact.t, bool * bool ref) Hashtbl.t = Hashtbl.create 32 in
      let order = ref [] in
      List.iter
        (fun e ->
          let f, is_add = match e with Add f -> (f, true) | Remove f -> (f, false) in
          match Hashtbl.find_opt seen f with
          | Some (_, last) -> last := is_add
          | None ->
              Hashtbl.add seen f (is_add, ref is_add);
              order := f :: !order)
        entries;
      List.fold_left
        (fun (added, removed) f ->
          match Hashtbl.find seen f with
          | true, { contents = true } -> (f :: added, removed)
          | false, { contents = false } -> (added, f :: removed)
          | _ -> (added, removed))
        ([], []) !order
    end
  end

let facts_since db v = fst (net_changes db v)

let get_cache db = db.cache
let set_cache db c = db.cache <- Some c
let clear_cache db = db.cache <- None

let compact db =
  if db.dead_count > 0 then begin
    let live f = not (is_dead db f) in
    Hashtbl.iter
      (fun _ c ->
        c.c_facts <- List.filter live c.c_facts;
        c.c_count <- List.length c.c_facts)
      db.by_rel;
    Idx.filter_map_inplace
      (fun _ c ->
        c.c_facts <- List.filter live c.c_facts;
        c.c_count <- List.length c.c_facts;
        if c.c_count = 0 then None else Some c)
      db.by_pos;
    (* recompute adom and distinct exactly from what survived *)
    let distinct = Hashtbl.create 16 in
    Idx.iter
      (fun k c ->
        if c.c_count > 0 then
          match Hashtbl.find_opt distinct (k.k_rel, k.k_pos) with
          | Some n -> incr n
          | None -> Hashtbl.add distinct (k.k_rel, k.k_pos) (ref 1))
      db.by_pos;
    db.distinct <- distinct;
    let adom =
      Fact.Set.fold
        (fun f acc ->
          List.fold_left (fun acc v -> Value.Set.add v acc) acc (Fact.tuple f))
        db.all Value.Set.empty
    in
    db.adom <- adom;
    db.adom_count <- Value.Set.cardinal adom;
    db.dead <- Fact.Set.empty;
    db.dead_count <- 0
  end

(* Auto-compaction threshold: once tombstones outnumber a third of the live
   facts (and there are enough of them to matter) the lazy filters in
   [facts_of]/[candidates] start costing more than one linear sweep. *)
let maybe_compact db =
  if db.dead_count > 32 && db.dead_count * 3 > db.live_count then compact db

let remove db f =
  if mem db f then begin
    db.all <- Fact.Set.remove f db.all;
    db.live_count <- db.live_count - 1;
    db.version <- db.version + 1;
    db.deletions <- db.deletions + 1;
    db.log <- Remove f :: db.log;
    db.dead <- Fact.Set.add f db.dead;
    db.dead_count <- db.dead_count + 1;
    let rc = rel_cell db (Fact.rel f) in
    rc.c_count <- rc.c_count - 1;
    List.iteri
      (fun i v ->
        let key = { k_rel = Fact.rel f; k_pos = i; k_val = v } in
        let cell = pos_cell db key in
        cell.c_count <- cell.c_count - 1;
        if cell.c_count = 0 then bump_distinct db (Fact.rel f) i (-1))
      (Fact.tuple f);
    (* adom is left as an overapproximation until the next compaction *)
    maybe_compact db
  end

let candidates db a h =
  (* Pick the smallest counted index cell among the bound positions,
     defaulting to the whole relation; counts are stored, so selection costs
     O(arity) lookups and never materializes or measures a list. *)
  let rel = Atom.rel a in
  let best = ref None in
  let consider i v =
    let key = { k_rel = rel; k_pos = i; k_val = v } in
    let cell =
      match Idx.find_opt db.by_pos key with
      | Some c -> c
      | None -> { c_count = 0; c_facts = [] }
    in
    match !best with
    | Some b when b.c_count <= cell.c_count -> ()
    | _ -> best := Some cell
  in
  List.iteri
    (fun i t ->
      match t with
      | Term.Const v -> consider i v
      | Term.Var x -> (
          match Mapping.find x h with
          | Some v -> consider i v
          | None -> ()))
    (Atom.args a);
  match !best with
  | Some cell -> live_facts db cell.c_facts
  | None -> facts_of db rel

let matches db a h =
  List.filter_map (Mapping.matches_fact h a) (candidates db a h)

let copy db =
  let db' = create () in
  Fact.Set.iter (add db') db.all;
  db'

let union a b =
  let db = copy a in
  Fact.Set.iter (add db) b.all;
  db

let pp ppf db =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Fact.pp)
    (facts db)
