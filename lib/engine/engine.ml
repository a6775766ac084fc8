(* Compiled evaluation engine.

   The backtracking evaluator in Cq.Eval used to run directly over the
   string-keyed representation: Map.Make(String) environments, candidate fact
   lists rebuilt for every remaining atom at every node, and selectivity
   ranking by List.compare_lengths over the rebuilt lists. This module
   compiles the query once instead — values interned to dense ints, facts as
   immutable int-array tuples, variables as slots of a flat int-array
   environment, atoms as per-position check/slot instructions — and then runs
   a tight matching loop that allocates nothing on the happy path. Candidate
   ranking reads stored counts from the compiled (rel, pos, value) index at
   O(arity) per atom instead of a list materialization.

   Mappings cross the boundary exactly twice: once at compile time (init and
   constants are interned) and once per reported solution (slots are read
   back into a Mapping.t). Everything in between is int-on-int. *)

open Relational

(* ------------------------------------------------------------------ *)
(* Compiled databases                                                   *)
(* ------------------------------------------------------------------ *)

module Db = struct
  (* Counted cells are growable: [rows] is a capacity array whose live prefix
     is [rows.(0 .. count-1)]. Growability is what makes Database.add cheap:
     new facts append into the existing cells instead of invalidating the
     whole compiled form. Every consumer iterates the prefix, never
     [Array.length rows]. *)
  type cell = {
    mutable count : int;
    mutable rows : int array;    (* indices into [tuples]; capacity >= count *)
  }

  type rel = {
    name : string;
    arity : int;
    mutable tuples : Tuple.t array;  (* capacity array; live prefix [nrows] *)
    mutable nrows : int;
    index : (int, cell) Hashtbl.t array;  (* per position: value id -> cell *)
    dcounts : int array;   (* per position: number of distinct value ids *)
    ranges : (int * int) array;
        (* per position: (min, max) stored value id; (0, -1) when empty *)
  }

  (* compiled plan cores are cached here keyed by atom list; the payload
     type is defined after the plan types below, hence the extensible
     variant (same trick as Database.cache) *)
  type plan_store = ..
  type plan_store += No_plans

  (* learned calibrations are cached separately from plan cores: unlike
     cores they are NOT discarded on [sync] — each entry carries the
     stats epoch it was learned at and is lazily evicted when looked up
     under a newer epoch (the E024 discipline) *)
  type adapt_store = ..
  type adapt_store += No_adapts

  type t = {
    pool : Value.t Interner.t;
    rels : (string * int, rel) Hashtbl.t;  (* keyed by (name, arity) *)
    mutable db_version : int;  (* the Database.version the store is synced at *)
    mutable plans : plan_store;
    mutable adapts : adapt_store;
  }

  let find_rel c name arity = Hashtbl.find_opt c.rels (name, arity)

  (* [r] is the record the store reads for its relation: false once a
     synced removal replaced it by a compacted copy *)
  let holds c r =
    match find_rel c r.name r.arity with Some r' -> r' == r | None -> false

  let cell_push cell row =
    let cap = Array.length cell.rows in
    if cell.count = cap then begin
      let rows = Array.make (max 4 (2 * cap)) 0 in
      Array.blit cell.rows 0 rows 0 cell.count;
      cell.rows <- rows
    end;
    cell.rows.(cell.count) <- row;
    cell.count <- cell.count + 1

  let fresh_rel name arity =
    { name;
      arity;
      tuples = Array.make 16 [||];
      nrows = 0;
      index = Array.init arity (fun _ -> Hashtbl.create 16);
      dcounts = Array.make arity 0;
      ranges = Array.make arity (0, -1) }

  let push_fact c f =
    let name = Fact.rel f and arity = Fact.arity f in
    let r =
      match find_rel c name arity with
      | Some r -> r
      | None ->
          let r = fresh_rel name arity in
          Hashtbl.add c.rels (name, arity) r;
          r
    in
    let t = Array.init arity (fun i -> Interner.intern c.pool (Fact.arg f i)) in
    if r.nrows = Array.length r.tuples then begin
      let tuples = Array.make (max 16 (2 * r.nrows)) [||] in
      Array.blit r.tuples 0 tuples 0 r.nrows;
      r.tuples <- tuples
    end;
    let row = r.nrows in
    r.tuples.(row) <- t;
    r.nrows <- row + 1;
    Array.iteri
      (fun pos v ->
        (match Hashtbl.find_opt r.index.(pos) v with
        | Some cell -> cell_push cell row
        | None ->
            Hashtbl.add r.index.(pos) v { count = 1; rows = [| row |] };
            r.dcounts.(pos) <- r.dcounts.(pos) + 1;
            let lo, hi = r.ranges.(pos) in
            r.ranges.(pos) <-
              (if hi < lo then (v, v) else (min lo v, max hi v))))
      t

  (* The row of a stored fact: scan the smallest index cell of its values.
     The store holds every live fact exactly once, so the row exists. *)
  let find_row c r f =
    let missing () = invalid_arg "Engine.Db.sync: removed fact not in the store" in
    let id i =
      match Interner.find c.pool (Fact.arg f i) with
      | Some id -> id
      | None -> missing ()
    in
    let t = Array.init r.arity id in
    let cell pos =
      match Hashtbl.find_opt r.index.(pos) t.(pos) with
      | Some cell -> cell
      | None -> missing ()
    in
    if r.arity = 0 then 0
    else begin
      let best = ref (cell 0) in
      for pos = 1 to r.arity - 1 do
        let c = cell pos in
        if c.count < !best.count then best := c
      done;
      let { count; rows } = !best in
      let rec scan i =
        if i = count then missing ()
        else if Tuple.equal r.tuples.(rows.(i)) t then rows.(i)
        else scan (i + 1)
      in
      scan 0
    end

  (* A copy of [r] without the rows marked in [dead]: survivors keep their
     relative order and are renumbered densely, so the [0 .. nrows-1]
     live-prefix invariant holds. Every array of the copy is fresh — index
     tables, cells and row arrays included — so a slice still running over
     [r] reads it unchanged. Distinct counts and ranges are recomputed from
     the surviving cells. *)
  let compact_rel r dead =
    let renum = Array.make r.nrows (-1) in
    let live = ref 0 in
    for i = 0 to r.nrows - 1 do
      if not dead.(i) then begin
        renum.(i) <- !live;
        incr live
      end
    done;
    let tuples = Array.make (Array.length r.tuples) [||] in
    for i = 0 to r.nrows - 1 do
      if renum.(i) >= 0 then tuples.(renum.(i)) <- r.tuples.(i)
    done;
    let dcounts = Array.make r.arity 0 and ranges = Array.make r.arity (0, -1) in
    let index =
      Array.mapi
        (fun pos tbl ->
          let tbl' = Hashtbl.create (Hashtbl.length tbl) in
          let lo = ref max_int and hi = ref (-1) in
          Hashtbl.iter
            (fun v cell ->
              let rows = Array.make cell.count 0 and n = ref 0 in
              for j = 0 to cell.count - 1 do
                let row = renum.(cell.rows.(j)) in
                if row >= 0 then begin
                  rows.(!n) <- row;
                  incr n
                end
              done;
              if !n > 0 then begin
                lo := min !lo v;
                hi := max !hi v;
                Hashtbl.add tbl' v { count = !n; rows }
              end)
            tbl;
          dcounts.(pos) <- Hashtbl.length tbl';
          if !hi >= 0 then ranges.(pos) <- (!lo, !hi);
          tbl')
        r.index
    in
    { r with tuples; nrows = !live; index; dcounts; ranges }

  (* Drop the net-removed facts: each touched relation is replaced by its
     compacted copy (or dropped once empty, as a fresh store would not have
     it); relations no removal touches are left as they are. *)
  let remove_facts c facts =
    let dead = Hashtbl.create 8 in
    List.iter
      (fun f ->
        let key = (Fact.rel f, Fact.arity f) in
        match Hashtbl.find_opt c.rels key with
        | None -> invalid_arg "Engine.Db.sync: removed fact not in the store"
        | Some r ->
            let mask =
              match Hashtbl.find_opt dead key with
              | Some (_, mask) -> mask
              | None ->
                  let mask = Array.make r.nrows false in
                  Hashtbl.add dead key (r, mask);
                  mask
            in
            mask.(find_row c r f) <- true)
      facts;
    Hashtbl.iter
      (fun key (r, mask) ->
        let r' = compact_rel r mask in
        if r'.nrows = 0 then Hashtbl.remove c.rels key
        else Hashtbl.replace c.rels key r')
      dead

  (* Catch the compiled form up to the live database in place: net the log
     window since [c.db_version] (Database.net_changes), drop the
     net-removed rows, then append the net-added facts. The interner pool
     only grows, so every previously issued value id — including ids folded
     into cached plans — stays valid. Plan cores are discarded: row counts
     and distinct counts changed, so cached static orders could violate the
     selectivity invariant (E005), and cores compiled before a removal point
     at relation records the store no longer holds. *)
  let sync c db =
    let live = Database.version db in
    if c.db_version < live then begin
      let added, removed = Database.net_changes db c.db_version in
      if removed <> [] then remove_facts c removed;
      List.iter (push_fact c) added;
      c.db_version <- live;
      c.plans <- No_plans
    end

  (* Building from scratch is syncing an empty store from version 0, which
     appends the live facts in order of first insertion. A store kept in
     sync in place holds the same live facts with the same counts; its rows
     differ from a fresh build's only in order: surviving rows keep their
     relative order, and a fact removed in one window and re-added in a
     later one is appended at the end, where a fresh build puts it back at
     its first-insertion position. *)
  let build db =
    let c =
      { pool = Interner.create ~capacity:256 ();
        rels = Hashtbl.create 16;
        db_version = 0;
        plans = No_plans;
        adapts = No_adapts }
    in
    sync c db;
    c

  type Database.cache += Compiled of t

  (* Compiling is linear in the database and cached on the database itself;
     after Database.add / Database.remove the cached form catches up via
     [sync] — O(new facts) for insertions, O(touched relations) for
     deletions — so re-planning after a batch never pays full
     recompilation. *)
  let of_database db =
    match Database.get_cache db with
    | Some (Compiled c) ->
        sync c db;
        c
    | _ ->
        let c = build db in
        Database.set_cache db (Compiled c);
        c
end

(* ------------------------------------------------------------------ *)
(* Plans: one compiled instruction sequence per atom                    *)
(* ------------------------------------------------------------------ *)

type op =
  | Check of int  (* argument must equal this interned constant *)
  | Slot of int   (* argument reads/writes this environment slot *)

type atom_plan = {
  a_rel : Db.rel;
  a_ops : op array;
}

(* ------------------------------------------------------------------ *)
(* Selectivity scoring and the static order invariant                    *)
(* ------------------------------------------------------------------ *)

(* [selectivity ~rows ~dcounts ops] estimates log10 of the candidate rows an
   instruction sequence leaves after its Check instructions filter, under the
   uniformity assumption: each Check at position [pos] keeps a 1/dcount(pos)
   fraction of the stored rows. Empty relations score -inf. This is the
   ranking the static order sorts by, audited by Plan_audit E005 and
   checked mode. *)
let selectivity ~rows ~dcounts ops =
  if rows = 0 then neg_infinity
  else begin
    let s = ref (log10 (float_of_int rows)) in
    Array.iteri
      (fun pos op ->
        match op with
        | Check _ ->
            let d = if pos < Array.length dcounts then dcounts.(pos) else 1 in
            if d > 0 then s := !s -. log10 (float_of_int d)
        | Slot _ -> ())
      ops;
    !s
  end

let ground ops = Array.for_all (function Check _ -> true | Slot _ -> false) ops

(* lexicographic static-order key: ground atoms first (they filter to a
   constant-time membership check), then ascending selectivity score *)
let order_key ~rows ~dcounts ops =
  ((if ground ops then 0 else 1), selectivity ~rows ~dcounts ops)

let atom_score (ap : atom_plan) =
  selectivity ~rows:ap.a_rel.Db.nrows ~dcounts:ap.a_rel.Db.dcounts ap.a_ops

let atom_key (ap : atom_plan) =
  order_key ~rows:ap.a_rel.Db.nrows ~dcounts:ap.a_rel.Db.dcounts ap.a_ops

(* ------------------------------------------------------------------ *)
(* Translation-validation certificates                                   *)
(* ------------------------------------------------------------------ *)

(* why an optimization pass dropped an atom *)
type drop =
  | Duplicate_of of int   (* exact duplicate of this (kept) before-atom *)
  | Ground_matched of int (* all-Check atom satisfied by this stored row *)

(* plain-data certificate emitted by every optimization pass: the before ->
   after mapping of slots and atoms plus the facts justifying each rewrite.
   Analysis.Equiv re-checks all of it in O(plan); nothing here is trusted. *)
type cert = {
  cert_pass : string;          (* pass name, e.g. "constant-fold" *)
  cert_reorders : bool;        (* pass is allowed to permute the static order *)
  cert_slot_map : int array;   (* before slot -> after slot, -1 = dropped *)
  cert_atom_map : int array;   (* before atom -> after atom, -1 = dropped *)
  cert_folds : (int * int) array;  (* (before slot, interned id) folded *)
  cert_drops : (int * drop) array; (* (before atom, justification) *)
  cert_scores : float array;   (* claimed selectivity per after-atom *)
}

(* the init-independent part of a plan, cached on the compiled database
   keyed by the atom list — repeated evaluation of the same body under
   different partial bindings (the shape of every loop in lib/wdpt) pays
   for instruction selection once *)
type core = {
  c_vars : string Interner.t;
  c_atoms : atom_plan array;  (* [||] when statically infeasible *)
  c_order : int array;        (* static atom order: ground first, then
                                 ascending selectivity score *)
  c_feasible : bool;
}

(* Per-atom runtime cardinality counters. A [context] is one entry into an
   atom's candidate loop (one partial environment the atom was probed
   under), [probed] counts the candidate rows the loop considered, and
   [survived] the rows that passed every check. Counters are plain ints:
   each interpreter slice owns its private record and parallel regions
   merge chunk-local records at the join, so no counter is ever shared
   between domains (the PR 6 race discipline). *)
type fb = {
  fb_contexts : int array;   (* per atom: probe contexts entered *)
  fb_probed : int array;     (* per atom: candidate rows considered *)
  fb_survived : int array;   (* per atom: rows passing every check *)
  mutable fb_runs : int;     (* completed top-level enumerations *)
}

let fb_create n =
  let n = max 1 n in
  { fb_contexts = Array.make n 0;
    fb_probed = Array.make n 0;
    fb_survived = Array.make n 0;
    fb_runs = 0 }

let fb_add dst src =
  let n = Array.length dst.fb_contexts in
  for i = 0 to min n (Array.length src.fb_contexts) - 1 do
    dst.fb_contexts.(i) <- dst.fb_contexts.(i) + src.fb_contexts.(i);
    dst.fb_probed.(i) <- dst.fb_probed.(i) + src.fb_probed.(i);
    dst.fb_survived.(i) <- dst.fb_survived.(i) + src.fb_survived.(i)
  done;
  dst.fb_runs <- dst.fb_runs + src.fb_runs

type t = {
  cdb : Db.t;
  vars : string Interner.t;  (* variable name <-> slot *)
  atoms : atom_plan array;
  order : int array;         (* initial arrangement of [remaining] *)
  init_env : int array;      (* slot -> value id, -1 = unbound *)
  feasible : bool;           (* false: some atom can never match *)
  init : Mapping.t;
  src_atoms : Atom.t list;   (* the compiled atom list, for inspection *)
  src_db : Database.t;       (* the database the plan was compiled against *)
  compiled_at : int;         (* database version at compile time; the cdb may
                                since have been incrementally extended *)
  calib : float array;       (* per-atom log10 selectivity adjustment learned
                                from observed counters; zero on fresh plans *)
  costed_at : int;           (* stats epoch the calibration was costed
                                against (= compiled_at when uncalibrated) *)
  mutable feedback : fb option;  (* accumulated counters of completed runs *)
  provenance : provenance;
}

(* how the plan came to be: straight out of [compile], or rewritten by the
   optimization pipeline. Each stage records the plan BEFORE that pass ran
   together with the pass's certificate, so Analysis.Equiv can replay the
   whole trail and the engine can fall back to the unoptimized original. *)
and provenance =
  | Compiled
  | Optimized of { stages : (t * cert) list }

(* calibrated selectivity: the static score shifted by the plan's learned
   per-atom log10 adjustment. Zero on fresh plans, so every calibrated key
   below degenerates to the static one unless adaptation applied. *)
let calib_of (p : t) i = if i < Array.length p.calib then p.calib.(i) else 0.
let calibrated_score (p : t) i = atom_score p.atoms.(i) +. calib_of p i

let calibrated_key (p : t) i =
  ((if ground p.atoms.(i).a_ops then 0 else 1), calibrated_score p i)

type plan_tbl = {
  p_tbl : (Atom.t list, core) Hashtbl.t;
  (* one-entry memo: callers that evaluate the same body list over many
     init bindings (every sweep in lib/wdpt and bench) hit on physical
     equality without hashing the atoms at all *)
  mutable p_last_key : Atom.t list;
  mutable p_last : core option;
}

type Db.plan_store += Plans of plan_tbl

let build_core cdb atom_list =
  let vars = Interner.create ~capacity:16 () in
  let feasible = ref true in
  let atoms =
    List.map
      (fun a ->
        match Db.find_rel cdb (Atom.rel a) (Atom.arity a) with
        | None ->
            feasible := false;
            None
        | Some rel ->
            let ops =
              Array.of_list
                (List.map
                   (fun t ->
                     match t with
                     | Term.Const v -> (
                         match Interner.find cdb.Db.pool v with
                         | Some id -> Check id
                         | None ->
                             (* the constant occurs in no fact *)
                             feasible := false;
                             Check (-1))
                     | Term.Var x -> Slot (Interner.intern vars x))
                   (Atom.args a))
            in
            Some { a_rel = rel; a_ops = ops })
      atom_list
  in
  let atoms =
    if !feasible then Array.of_list (List.map Option.get atoms) else [||]
  in
  (* static atom order: ground atoms first, then ascending selectivity score
     (stable). The runners choose the top-level atom by fewest candidates
     and the remaining stages by bound positions ([fixed_order]); this
     order breaks their ties, and gives the plan a statically auditable
     order invariant — richer than raw row counts because Check instructions
     discount by the distinct count of their position. *)
  let order =
    let key i = atom_key atoms.(i) in
    Array.of_list
      (List.stable_sort
         (fun a b -> compare (key a) (key b))
         (List.init (Array.length atoms) Fun.id))
  in
  { c_vars = vars; c_atoms = atoms; c_order = order; c_feasible = !feasible }

let core_of cdb atom_list =
  let pt =
    match cdb.Db.plans with
    | Plans t -> t
    | _ ->
        let t = { p_tbl = Hashtbl.create 64; p_last_key = []; p_last = None } in
        cdb.Db.plans <- Plans t;
        t
  in
  match pt.p_last with
  | Some core when pt.p_last_key == atom_list -> core
  | _ ->
      let core =
        match Hashtbl.find_opt pt.p_tbl atom_list with
        | Some core -> core
        | None ->
            (* instantiated bodies can produce unboundedly many distinct atom
               lists per database; a dumb reset bounds the cache *)
            if Hashtbl.length pt.p_tbl > 4096 then Hashtbl.reset pt.p_tbl;
            let core = build_core cdb atom_list in
            Hashtbl.add pt.p_tbl atom_list core;
            core
      in
      pt.p_last_key <- atom_list;
      pt.p_last <- Some core;
      core

let compile_base db atom_list ~init =
  let cdb = Db.of_database db in
  let core = core_of cdb atom_list in
  let feasible = ref core.c_feasible in
  let nslots = Interner.size core.c_vars in
  let init_env = Array.make (max 1 nslots) (-1) in
  List.iter
    (fun (x, v) ->
      match Interner.find core.c_vars x with
      | None -> ()  (* bound variable not mentioned by any atom: passes through *)
      | Some slot -> (
          match Interner.find cdb.Db.pool v with
          | Some id -> init_env.(slot) <- id
          | None ->
              (* the variable must match a database value equal to a value
                 that occurs in no fact *)
              feasible := false))
    (Mapping.bindings init);
  let atoms = if !feasible then core.c_atoms else [||] in
  { cdb;
    vars = core.c_vars;
    atoms;
    order = (if !feasible then core.c_order else [||]);
    init_env;
    feasible = !feasible;
    init;
    src_atoms = atom_list;
    src_db = db;
    compiled_at = cdb.Db.db_version;
    calib = Array.make (max 1 (Array.length atoms)) 0.;
    costed_at = cdb.Db.db_version;
    feedback = None;
    provenance = Compiled }

(* ------------------------------------------------------------------ *)
(* Optimization passes                                                   *)
(* ------------------------------------------------------------------ *)

(* Each pass maps a plan to a rewritten plan plus a certificate. Passes never
   mutate their input (plan cores are shared through the per-atom-list cache,
   so every changed array is freshly allocated) and each one is O(plan) —
   compile-time work must stay flat in |D|. *)

let identity_map n = Array.init n Fun.id

let scores_of (p : t) = Array.map atom_score p.atoms

let identity_cert name (p : t) =
  { cert_pass = name;
    cert_reorders = false;
    cert_slot_map = identity_map (Interner.size p.vars);
    cert_atom_map = identity_map (Array.length p.atoms);
    cert_folds = [||];
    cert_drops = [||];
    cert_scores = scores_of p }

(* constant folding: a slot bound by [init] always holds the same id, so a
   [Slot s] instruction on it is equivalent to [Check init_env.(s)]. Sound
   for read-back because init-bound names are never read out of the
   environment (see [conversion_table]). *)
let pass_fold (p : t) =
  let folds = ref [] in
  let changed = ref false in
  let atoms =
    Array.map
      (fun ap ->
        let any =
          Array.exists
            (function Slot s -> p.init_env.(s) >= 0 | Check _ -> false)
            ap.a_ops
        in
        if not any then ap
        else begin
          changed := true;
          let ops =
            Array.map
              (function
                | Slot s when p.init_env.(s) >= 0 ->
                    if not (List.mem_assoc s !folds) then
                      folds := (s, p.init_env.(s)) :: !folds;
                    Check p.init_env.(s)
                | op -> op)
              ap.a_ops
          in
          { ap with a_ops = ops }
        end)
      p.atoms
  in
  let p' = if !changed then { p with atoms } else p in
  let cert =
    { (identity_cert "constant-fold" p') with
      cert_folds = Array.of_list (List.rev !folds) }
  in
  (p', cert)

(* a stored row matching an all-Check instruction sequence, found by scanning
   the smallest counted cell among the checked positions; None when nothing
   matches *)
let ground_witness_row (ap : atom_plan) =
  let r = ap.a_rel in
  let ops = ap.a_ops in
  if Array.length ops = 0 then
    if r.Db.nrows > 0 then Some 0 else None
  else begin
    let best = ref None and missing = ref false in
    Array.iteri
      (fun pos op ->
        match op with
        | Check id -> (
            match Hashtbl.find_opt r.Db.index.(pos) id with
            | None -> missing := true
            | Some cell -> (
                match !best with
                | Some (c, _) when c <= cell.Db.count -> ()
                | _ -> best := Some (cell.Db.count, cell.Db.rows)))
        | Slot _ -> ())
      ops;
    if !missing then None
    else
      match !best with
      | None -> None
      | Some (count, rows) ->
          let matches ri =
            let t = r.Db.tuples.(ri) in
            let ok = ref true in
            Array.iteri
              (fun i op ->
                match op with
                | Check id -> if t.(i) <> id then ok := false
                | Slot _ -> ())
              ops;
            !ok
          in
          (* live prefix only: the cell array may have spare capacity *)
          let rec scan i =
            if i >= count then None
            else if matches rows.(i) then Some rows.(i)
            else scan (i + 1)
          in
          scan 0
  end

(* dead-instruction elimination: an atom that exactly duplicates an earlier
   kept atom constrains nothing new; an all-Check atom satisfied by some
   stored row (the certificate names the witness row) is always satisfied.
   Unmatched ground atoms are deliberately left in place: proving emptiness
   is O(data), and the top-level choice already kills such enumerations: an
   unmatched ground atom has zero candidates, so the smallest top-level
   candidate range is empty. *)
let pass_dead_instruction (p : t) =
  let n = Array.length p.atoms in
  let atom_map = Array.make n (-1) in
  let drops = ref [] and kept_rev = ref [] in
  for i = 0 to n - 1 do
    let ap = p.atoms.(i) in
    let dup =
      List.find_opt
        (fun j ->
          let aj = p.atoms.(j) in
          aj.a_rel == ap.a_rel && aj.a_ops = ap.a_ops)
        !kept_rev
    in
    match dup with
    | Some j -> drops := (i, Duplicate_of j) :: !drops
    | None -> (
        match if ground ap.a_ops then ground_witness_row ap else None with
        | Some row -> drops := (i, Ground_matched row) :: !drops
        | None -> kept_rev := i :: !kept_rev)
  done;
  let kept = Array.of_list (List.rev !kept_rev) in
  Array.iteri (fun new_i old_i -> atom_map.(old_i) <- new_i) kept;
  if Array.length kept = n then (p, identity_cert "dead-instruction" p)
  else begin
    let atoms = Array.map (fun i -> p.atoms.(i)) kept in
    let order =
      Array.of_list
        (List.filter_map
           (fun ai -> if atom_map.(ai) >= 0 then Some atom_map.(ai) else None)
           (Array.to_list p.order))
    in
    let src = Array.of_list p.src_atoms in
    let src_atoms = Array.to_list (Array.map (fun i -> src.(i)) kept) in
    let calib =
      if Array.length kept = 0 then [| 0. |]
      else Array.map (fun i -> calib_of p i) kept
    in
    let p' = { p with atoms; order; src_atoms; calib } in
    let cert =
      { (identity_cert "dead-instruction" p') with
        cert_atom_map = atom_map;
        cert_drops = Array.of_list (List.rev !drops) }
    in
    (p', cert)
  end

(* dead-slot elimination: a slot no instruction touches (after folding these
   are exactly the init-bound ones) never receives or supplies a value, so it
   can be dropped and the survivors renumbered densely. Read-back is
   unaffected: init-bound names come from [p.init], untouched unbound slots
   stay at -1 and are skipped either way. *)
let pass_dead_slot (p : t) =
  let nv = Interner.size p.vars in
  let touched = Array.make (max 1 nv) false in
  Array.iter
    (fun ap ->
      Array.iter
        (function Slot s -> touched.(s) <- true | Check _ -> ())
        ap.a_ops)
    p.atoms;
  let all = ref true in
  for s = 0 to nv - 1 do
    if not touched.(s) then all := false
  done;
  if !all then (p, identity_cert "dead-slot" p)
  else begin
    let vars = Interner.create ~capacity:(max 16 nv) () in
    let slot_map =
      Array.init nv (fun s ->
          if touched.(s) then Interner.intern vars (Interner.get p.vars s)
          else -1)
    in
    let nv' = Interner.size vars in
    let init_env = Array.make (max 1 nv') (-1) in
    Array.iteri
      (fun s s' -> if s' >= 0 then init_env.(s') <- p.init_env.(s))
      slot_map;
    let atoms =
      Array.map
        (fun ap ->
          { ap with
            a_ops =
              Array.map
                (function Slot s -> Slot slot_map.(s) | op -> op)
                ap.a_ops })
        p.atoms
    in
    let p' = { p with vars; atoms; init_env } in
    let cert = { (identity_cert "dead-slot" p') with cert_slot_map = slot_map } in
    (p', cert)
  end

(* check hoisting: stable-partition the static order so fully-ground atoms
   (cheap membership checks after folding) run before any slot is written *)
let pass_hoist (p : t) =
  let g, ng =
    List.partition
      (fun ai -> ground p.atoms.(ai).a_ops)
      (Array.to_list p.order)
  in
  let order = Array.of_list (g @ ng) in
  let p' = if order = p.order then p else { p with order } in
  (p', { (identity_cert "check-hoist" p') with cert_reorders = true })

(* selectivity-aware reordering: re-establish the full static-order invariant
   (ground first, ascending calibrated selectivity) that constant folding
   broke by turning Slot instructions into Checks. The key includes the
   plan's learned calibration so adapted plans keep their observed order
   through the pass pipeline (zero calibration = the static key). *)
let pass_reorder (p : t) =
  let key ai = calibrated_key p ai in
  let order =
    Array.of_list
      (List.stable_sort
         (fun a b -> compare (key a) (key b))
         (Array.to_list p.order))
  in
  let p' = if order = p.order then p else { p with order } in
  (p', { (identity_cert "selectivity-reorder" p') with cert_reorders = true })

(* Global engine toggles are atomics, read exactly once per top-level
   enumeration (and threaded into every domain worker of a parallel region),
   so a concurrent set_checked/set_optimize/set_domains from another domain
   can never tear an in-flight run. *)
let optimize_flag =
  Atomic.make
    (match Sys.getenv_opt "WDPT_ENGINE_OPT" with
    | Some ("0" | "false" | "no") -> false
    | _ -> true)

let set_optimize b = Atomic.set optimize_flag b
let optimize_enabled () = Atomic.get optimize_flag

let optimize p =
  match p.provenance with
  | Optimized _ -> p
  | Compiled ->
      if not p.feasible then p
      else begin
        let stages = ref [] in
        let step pass q =
          let q', cert = pass q in
          stages := (q, cert) :: !stages;
          q'
        in
        let q = step pass_fold p in
        let q = step pass_dead_instruction q in
        let q = step pass_dead_slot q in
        let q = step pass_hoist q in
        let q = step pass_reorder q in
        { q with provenance = Optimized { stages = List.rev !stages } }
      end

(* ------------------------------------------------------------------ *)
(* Verified adaptive re-planning                                        *)
(* ------------------------------------------------------------------ *)

(* Adaptation recalibrates the static selectivity scores from the observed
   per-atom counters and re-sorts the static order for the NEXT compile of
   the same atom list. Every swap emits a plain-data certificate that
   Analysis.Feedback independently re-verifies (E025): nothing the loop
   learns is trusted. Gated by WDPT_ENGINE_ADAPT / --adapt. *)

let adapt_flag =
  Atomic.make
    (match Sys.getenv_opt "WDPT_ENGINE_ADAPT" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_adapt b = Atomic.set adapt_flag b
let adapt_enabled () = Atomic.get adapt_flag

(* drift beyond this many log10 decades between the calibrated estimate and
   the observed per-context survival triggers re-calibration (and E022) *)
let drift_threshold_flag = Atomic.make 2.0

let set_drift_threshold t =
  Atomic.set drift_threshold_flag (Float.max 0.1 t)

let drift_threshold () = Atomic.get drift_threshold_flag

(* below this many probed rows the evidence is too thin to act on *)
let drift_min_probed_flag = Atomic.make 64
let set_drift_min_probed n = Atomic.set drift_min_probed_flag (max 1 n)
let drift_min_probed () = Atomic.get drift_min_probed_flag

(* certificate of one plan swap: enough to recompute the calibration and
   the re-sorted order from the before-plan and re-verify both *)
type swap_cert = {
  sw_epoch : int;     (* stats epoch (store version) the swap was costed at *)
  sw_runs : int;      (* completed runs the evidence covers *)
  sw_drift : (int * float * float) array;
      (* (atom, calibrated estimate, observed log10 selectivity) per
         drifted atom — the E022-level evidence justifying the swap *)
  sw_calib : float array;  (* full per-atom calibration after the swap *)
}

(* [replan p]: inspect the accumulated counters; on E022-level drift return
   the recalibrated plan and its certificate. The drift baseline is the
   CALIBRATED score, so a well-calibrated plan observes obs ≈ est and never
   re-triggers on its own evidence. One-sided: only underestimates (more
   survivors than predicted) force a swap — overestimates only make the
   static order conservative. *)
let replan (p : t) =
  match p.feedback with
  | None -> None
  | Some fb ->
      let n = Array.length p.atoms in
      if n = 0 || not p.feasible then None
      else begin
        let threshold = drift_threshold () in
        let min_probed = drift_min_probed () in
        let drifts = ref [] in
        for i = n - 1 downto 0 do
          let c = fb.fb_contexts.(i) and s = fb.fb_survived.(i) in
          if c > 0 && fb.fb_probed.(i) >= min_probed && s > 0 then begin
            let obs = log10 (float_of_int s /. float_of_int c) in
            let est = calibrated_score p i in
            if obs -. est > threshold then drifts := (i, est, obs) :: !drifts
          end
        done;
        match !drifts with
        | [] -> None
        | ds ->
            let calib = Array.copy p.calib in
            List.iter
              (fun (i, est, obs) -> calib.(i) <- calib.(i) +. (obs -. est))
              ds;
            let p1 = { p with calib } in
            let key ai = calibrated_key p1 ai in
            let order =
              Array.of_list
                (List.stable_sort
                   (fun a b -> compare (key a) (key b))
                   (Array.to_list p.order))
            in
            let p' =
              { p1 with
                order;
                costed_at = p.cdb.Db.db_version;
                feedback = None }
            in
            let cert =
              { sw_epoch = p.cdb.Db.db_version;
                sw_runs = fb.fb_runs;
                sw_drift = Array.of_list ds;
                sw_calib = calib }
            in
            Some (p', cert)
      end

(* the stats-epoch-keyed calibration cache, living on the compiled database
   beside the plan cores but with a different lifetime: Db.sync discards
   cores eagerly but leaves these entries to be epoch-evicted at lookup *)
type adapt_entry = {
  ad_epoch : int;          (* store version the calibration was costed at *)
  ad_calib : float array;
  ad_cert : swap_cert;     (* the justifying swap, re-verifiable by audit *)
}

type Db.adapt_store += Adapts of (Atom.t list, adapt_entry) Hashtbl.t

let adapt_tbl (cdb : Db.t) =
  match cdb.Db.adapts with
  | Adapts t -> t
  | _ ->
      let t = Hashtbl.create 16 in
      cdb.Db.adapts <- Adapts t;
      t

let store_adapt (p : t) cert =
  let t = adapt_tbl p.cdb in
  if Hashtbl.length t > 4096 then Hashtbl.reset t;
  Hashtbl.replace t p.src_atoms
    { ad_epoch = cert.sw_epoch; ad_calib = cert.sw_calib; ad_cert = cert }

let find_adapt (p : t) = Hashtbl.find_opt (adapt_tbl p.cdb) p.src_atoms
let cached_swap (p : t) = Option.map (fun e -> e.ad_cert) (find_adapt p)

(* apply a cached calibration to a freshly compiled plan. An entry learned
   under an older stats epoch than the store now carries is stale (the
   E024 shape): it is evicted and the plan compiles uncalibrated. *)
let apply_adapt (p : t) =
  if not (Atomic.get adapt_flag) then p
  else
    match find_adapt p with
    | None -> p
    | Some e ->
        if
          e.ad_epoch <> p.cdb.Db.db_version
          || Array.length e.ad_calib <> max 1 (Array.length p.atoms)
          || not p.feasible
        then begin
          Hashtbl.remove (adapt_tbl p.cdb) p.src_atoms;
          p
        end
        else begin
          let p1 = { p with calib = e.ad_calib; costed_at = e.ad_epoch } in
          let key ai = calibrated_key p1 ai in
          let order =
            Array.of_list
              (List.stable_sort
                 (fun a b -> compare (key a) (key b))
                 (Array.to_list p1.order))
          in
          { p1 with order }
        end

let compile db atom_list ~init =
  let p = compile_base db atom_list ~init in
  let p = apply_adapt p in
  if Atomic.get optimize_flag then optimize p else p

let slot_count p = Interner.size p.vars
let value_of p id = Interner.get p.cdb.Db.pool id
let slot_of p x = Interner.find p.vars x

(* ------------------------------------------------------------------ *)
(* The top-level choice                                                 *)
(* ------------------------------------------------------------------ *)

(* The first atom of every enumeration, chosen outside the runners so the
   parallel partitioner can slice its candidate row sequence: at the top
   level the environment is exactly [init_env], so the selection —
   smallest stored count among bound positions of each atom in [order],
   strict first-wins minimum — is a pure function of the plan.
   Chunked runs that enumerate contiguous slices of this row sequence and
   concatenate in slice order reproduce the sequential enumeration order
   exactly. *)
type first_choice = {
  fc_pos : int;          (* position of the chosen atom inside [order] *)
  fc_rows : int array;   (* candidate row indices (live prefix [fc_count]) *)
  fc_scan : bool;        (* no bound position: iterate the whole relation *)
  fc_count : int;        (* number of top-level candidates *)
}

let select_first p =
  let n = Array.length p.atoms in
  if not p.feasible || n = 0 then None
  else begin
    let env = p.init_env in
    let best_pos = ref 0 and best_cost = ref 0 in
    let best_rows = ref [||] and best_scan = ref false in
    for j = 0 to n - 1 do
      let ap = p.atoms.(p.order.(j)) in
      let r = ap.a_rel in
      let cost = ref r.Db.nrows and rows = ref [||] and scan = ref true in
      let ops = ap.a_ops in
      for pos = 0 to Array.length ops - 1 do
        let bound =
          match ops.(pos) with Check id -> id | Slot s -> env.(s)
        in
        if bound >= 0 then
          match Hashtbl.find_opt r.Db.index.(pos) bound with
          | Some cell ->
              if !scan || cell.Db.count < !cost then begin
                cost := cell.Db.count;
                rows := cell.Db.rows;
                scan := false
              end
          | None ->
              cost := 0;
              rows := [||];
              scan := false
      done;
      if j = 0 || !cost < !best_cost then begin
        best_pos := j;
        best_cost := !cost;
        best_rows := !rows;
        best_scan := !scan
      end
    done;
    Some
      { fc_pos = !best_pos;
        fc_rows = !best_rows;
        fc_scan = !best_scan;
        fc_count = !best_cost }
  end

(* Commit one completed enumeration's counters into the plan:
   the top-level atom gets its single probe context (one per run, never per
   chunk — parallel chunks slice ONE top-level candidate loop), the record
   is folded into the plan's accumulator, and under adaptation the evidence
   is re-examined for E022-level drift. Runs on the coordinating domain
   only, after any region join. *)
let fb_commit p fc fb =
  let top = p.order.(fc.fc_pos) in
  if top >= 0 && top < Array.length fb.fb_contexts then
    fb.fb_contexts.(top) <- fb.fb_contexts.(top) + 1;
  fb.fb_runs <- fb.fb_runs + 1;
  (match p.feedback with
  | Some dst -> fb_add dst fb
  | None -> p.feedback <- Some fb);
  if Atomic.get adapt_flag then
    match replan p with
    | None -> ()
    | Some (_, cert) -> store_adapt p cert

(* ------------------------------------------------------------------ *)
(* Batched (vectorized) execution                                       *)
(* ------------------------------------------------------------------ *)

(* The batched interpreter executes each compiled instruction over a vector
   of candidate environments instead of one at a time. The environment
   vector is columnar: one flat int array per stage-bound slot, indexed by
   batch row. A fixed stage order (the pre-computed top-level choice, then
   the remaining atoms in static order) makes slot boundness uniform across
   a batch, so each op compiles to a constant check, a column comparison, a
   duplicate-position check, or a column write for the whole batch at once:
   dispatch cost is per (instruction, batch), not per (instruction,
   candidate), and index probes sort/group the batch by probe key so
   counted-cell lookups become sequential runs.

   Two structural facts make the batched enumeration order well-defined and
   equal to the scalar fixed-order twin below, env for env:
   - index cells list stored rows in strictly increasing order (cell_push
     appends) and facts are set-semantic, so the matching tuples of an atom
     under a fixed partial env form the same increasing row sequence
     whichever bound position's cell is probed;
   - batch expansion emits matches input-row-major, which is exactly the
     depth-first order of the fixed-order recursion.

   Top-level candidates are processed in morsel-sized groups, bounding the
   columnar footprint; groups are contiguous candidate ranges, so group
   concatenation preserves the order. *)

(* morsel size: the unit of parallel work distribution and the batch group
   width of the vectorized interpreter *)
let morsel_cap = 1 lsl 20

let morsel_rows_flag =
  Atomic.make
    (match Sys.getenv_opt "WDPT_ENGINE_MORSEL" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> min n morsel_cap
        | _ -> 1024)
    | None -> 1024)

let set_morsel_rows n = Atomic.set morsel_rows_flag (max 1 (min n morsel_cap))
let morsel_rows () = Atomic.get morsel_rows_flag

(* High-water marks of the batched pipeline's memory consumers, in the same
   units the certified resource envelope (Analysis.Resource) is stated in.
   Each mark is the peak of one slice (column scratch), one build (dense
   tables) or one checked-mode group (replay buffering) — never a
   cross-domain sum, so a per-slice envelope can be checked sound against it
   directly. The counters are bumped once per slice / group, not per row:
   measurement costs nothing on the hot path. *)
type batch_stats = {
  bm_column_words : int;  (* peak columnar scratch words of any one slice *)
  bm_dense_words : int;   (* peak dense probe-table words of any one build *)
  bm_replay_rows : int;   (* peak buffered rows of any one checked group *)
}

let bm_column_words = Atomic.make 0
let bm_dense_words = Atomic.make 0
let bm_replay_rows = Atomic.make 0

let rec note_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then note_max cell v

let batch_stats () =
  { bm_column_words = Atomic.get bm_column_words;
    bm_dense_words = Atomic.get bm_dense_words;
    bm_replay_rows = Atomic.get bm_replay_rows }

let reset_batch_stats () =
  Atomic.set bm_column_words 0;
  Atomic.set bm_dense_words 0;
  Atomic.set bm_replay_rows 0

(* one atom of the fixed-order pipeline, with its ops split by the role they
   play over a batch whose earlier stages already bound [bs_cols]'s slots *)
type bstage = {
  bs_atom : int;                  (* plan atom index *)
  bs_checks : (int * int) array;  (* (position, interned id): constant check *)
  bs_cols : (int * int) array;    (* (position, slot): column comparison *)
  bs_binds : (int * int) array;   (* (position, slot): column write *)
  bs_dups : (int * int) array;    (* (position, earlier position of same new
                                     slot): intra-tuple equality *)
  bs_filter : bool;               (* no binds: the stage only narrows *)
}

(* the fixed stage order shared by the batched interpreter and its scalar
   twin: the pre-computed top-level choice first, then greedily the atom
   with the most already-bound positions (constant positions count, static
   order breaks ties). Connected queries therefore always probe on at least
   one bound column — processing the remaining atoms in static order would
   expand a cartesian product whenever the selective atom (e.g. one holding
   an init-bound sink variable) sits late in the plan. The order depends
   only on (plan, fc), so it is identical across pool sizes and between the
   batched run and the fixed twin. *)
let fixed_order p fc =
  let fc_atom = p.order.(fc.fc_pos) in
  let nslots = max 1 (Array.length p.init_env) in
  let bound = Array.make nslots false in
  Array.iteri (fun s v -> if v >= 0 then bound.(s) <- true) p.init_env;
  let bind_atom ai =
    Array.iter
      (function Slot s -> bound.(s) <- true | Check _ -> ())
      p.atoms.(ai).a_ops
  in
  bind_atom fc_atom;
  let score ai =
    Array.fold_left
      (fun n op ->
        match op with
        | Check _ -> n + 1
        | Slot s -> if bound.(s) then n + 1 else n)
      0 p.atoms.(ai).a_ops
  in
  let rec pick acc remaining =
    match remaining with
    | [] -> List.rev acc
    | hd :: tl ->
        let best, _ =
          List.fold_left
            (fun ((_, bs) as b) ai ->
              let sa = score ai in
              if sa > bs then (ai, sa) else b)
            (hd, score hd) tl
        in
        bind_atom best;
        pick (best :: acc) (List.filter (fun ai -> ai <> best) remaining)
  in
  fc_atom :: pick [] (List.filter (fun ai -> ai <> fc_atom) (Array.to_list p.order))

(* the fixed stage order compiled per atom. Init-bound slots compile to
   constant checks (their value is batch-invariant), so only stage-bound
   slots ever materialize columns. *)
let batch_stages p fc =
  let nslots = max 1 (Array.length p.init_env) in
  (* -2 unbound, -1 init-bound, k >= 0 first bound by stage k *)
  let binder = Array.make nslots (-2) in
  Array.iteri (fun s v -> if v >= 0 then binder.(s) <- -1) p.init_env;
  List.mapi
    (fun k ai ->
      let ap = p.atoms.(ai) in
      let checks = ref [] and cols = ref [] in
      let binds = ref [] and dups = ref [] in
      let first_pos = Array.make nslots (-1) in
      Array.iteri
        (fun pos op ->
          match op with
          | Check id -> checks := (pos, id) :: !checks
          | Slot s ->
              if binder.(s) = -1 then checks := (pos, p.init_env.(s)) :: !checks
              else if binder.(s) >= 0 then cols := (pos, s) :: !cols
              else if first_pos.(s) >= 0 then dups := (pos, first_pos.(s)) :: !dups
              else begin
                first_pos.(s) <- pos;
                binds := (pos, s) :: !binds
              end)
        ap.a_ops;
      List.iter (fun (_, s) -> binder.(s) <- k) !binds;
      { bs_atom = ai;
        bs_checks = Array.of_list (List.rev !checks);
        bs_cols = Array.of_list (List.rev !cols);
        bs_binds = Array.of_list (List.rev !binds);
        bs_dups = Array.of_list (List.rev !dups);
        bs_filter = !binds = [] })
    (fixed_order p fc)

(* dense probe tables: interned ids are small nonnegative ints, so a
   single-column probe can usually bypass the hash table entirely — built
   from the counted index, per expansion stage of [batch_stages p fc], only
   when the key range stays within a constant factor of the cell count. A
   run over fewer than 128 candidate rows skips the build: the O(index)
   setup would dominate its probe savings. The tables are read-only once
   built, so a parallel region builds them once and shares them with every
   chunk; per chunk, the O(index) build would be repeated once per morsel
   and grow with the input as fast as the work it saves. *)
type dense_tables = {
  dn_max : int array;  (* per stage: largest dense key, -1 = not built *)
  dn_count : int array array;
  dn_rows : int array array array;  (* alias the counted index cells' rows *)
}

let dense_tables p fc ~rows =
  let stages = Array.of_list (batch_stages p fc) in
  let nstages = Array.length stages in
  let dense_max = Array.make nstages (-1) in
  let dense_count = Array.make nstages [||] in
  let dense_rows = Array.make nstages [||] in
  for k = 1 to nstages - 1 do
    let st = stages.(k) in
    if rows >= 128 && Array.length st.bs_cols = 1 then begin
      let pos, _ = st.bs_cols.(0) in
      let idx = p.atoms.(st.bs_atom).a_rel.Db.index.(pos) in
      let ncells = Hashtbl.length idx in
      let mk = Hashtbl.fold (fun key _ m -> max key m) idx (-1) in
      if mk >= 0 && mk < (4 * ncells) + 64 then begin
        let dc = Array.make (mk + 1) 0 in
        let dr = Array.make (mk + 1) [||] in
        Hashtbl.iter
          (fun key cell ->
            if key >= 0 then begin
              dc.(key) <- cell.Db.count;
              dr.(key) <- cell.Db.rows
            end)
          idx;
        dense_max.(k) <- mk;
        dense_count.(k) <- dc;
        dense_rows.(k) <- dr
      end
    end
  done;
  (* dense footprint: the two top arrays per built stage (the row arrays
     alias the counted index, nothing is copied) *)
  (let dw = ref 0 in
   for k = 1 to nstages - 1 do
     if dense_max.(k) >= 0 then dw := !dw + (2 * (dense_max.(k) + 1))
   done;
   note_max bm_dense_words !dw);
  { dn_max = dense_max; dn_count = dense_count; dn_rows = dense_rows }

exception Batch_dead

let iter_envs_batched_slice ?dense p fc ~lo ~hi ~fb f =
  if p.feasible && Array.length p.atoms > 0 && lo < hi then begin
    let fb_c = fb.fb_contexts
    and fb_p = fb.fb_probed
    and fb_s = fb.fb_survived in
    let stages = Array.of_list (batch_stages p fc) in
    let nstages = Array.length stages in
    let nslots = max 1 (Array.length p.init_env) in
    (* Late materialization. Slot values are written exactly once, indexed
       by the rows of the *level* that bound them: level 0 is the compacted
       stage-0 survivor vector and every expansion stage opens the next
       level. An expansion output row records only its parent row and the
       newly bound columns — carry columns are never copied forward. A
       later stage reaches an earlier binding by walking parent pointers
       (one hop in the common join-the-previous-binding shape), and the
       final expansion streams matches straight into the callback, so the
       widest level is never materialized at all. *)
    let binder_level = Array.make nslots (-1) in
    let stage_level = Array.make nstages 0 in
    let nlevels = ref 1 in
    Array.iter (fun (_, s) -> binder_level.(s) <- 0) stages.(0).bs_binds;
    for k = 1 to nstages - 1 do
      stage_level.(k) <- !nlevels - 1;
      if not stages.(k).bs_filter then begin
        Array.iter
          (fun (_, s) -> binder_level.(s) <- !nlevels)
          stages.(k).bs_binds;
        incr nlevels
      end
    done;
    (* slots bound per level, for environment reconstruction *)
    let level_slots = Array.make !nlevels [||] in
    (let lv = ref 0 in
     level_slots.(0) <- Array.map snd stages.(0).bs_binds;
     for k = 1 to nstages - 1 do
       if not stages.(k).bs_filter then begin
         incr lv;
         level_slots.(!lv) <- Array.map snd stages.(k).bs_binds
       end
     done);
    let max_ncols =
      Array.fold_left (fun m st -> max m (Array.length st.bs_cols)) 1 stages
    in
    let st0 = stages.(0) in
    let tuples0 = p.atoms.(st0.bs_atom).a_rel.Db.tuples in
    let env = Array.copy p.init_env in
    let group = morsel_rows () in
    let { dn_max = dense_max; dn_count = dense_count; dn_rows = dense_rows } =
      match dense with
      | Some d -> d
      | None -> dense_tables p fc ~rows:(hi - lo)
    in
    (* columnar batch state, rebuilt per morsel group. Every buffer below is
       scratch reused across stages and groups and grown geometrically: the
       steady state of a slice allocates nothing per group. *)
    let width = ref 0 in
    let mask = ref Bytes.empty in
    let alive = ref 0 in
    let cur_level = ref 0 in
    let par = Array.make !nlevels [||] in
    let vals = Array.make nslots [||] in
    let pcols = Array.make max_ncols [||] in
    let pcol_scratch = Array.make max_ncols [||] in
    let anc = Array.make !nlevels 0 in
    let ensure (store : int array array) i cap =
      let b = store.(i) in
      if Array.length b >= cap then b
      else begin
        let nb = Array.make (max cap (2 * Array.length b)) 0 in
        store.(i) <- nb;
        nb
      end
    in
    let regrow (store : int array array) i cap keep =
      let b = store.(i) in
      if Array.length b >= cap then b
      else begin
        let nb = Array.make (max cap (2 * Array.length b)) 0 in
        Array.blit b 0 nb 0 keep;
        store.(i) <- nb;
        nb
      end
    in
    let mask_scratch = ref Bytes.empty in
    let cand_scratch = ref [||] in
    (* peak words of the composite-key candidate arrays, allocated per
       stage invocation rather than kept as scratch *)
    let col_transient = ref 0 in
    let fresh_mask n =
      if Bytes.length !mask_scratch < n then
        mask_scratch := Bytes.create (max n (2 * Bytes.length !mask_scratch));
      Bytes.fill !mask_scratch 0 n '\001';
      !mask_scratch
    in
    let kill i =
      if Bytes.unsafe_get !mask i <> '\000' then begin
        Bytes.unsafe_set !mask i '\000';
        decr alive
      end
    in
    (* rebuild [env]'s carried slots for row [i] of level [l]: one ancestor
       walk, then one read per bound slot *)
    let load_env l i =
      anc.(l) <- i;
      for lv = l downto 1 do
        anc.(lv - 1) <- par.(lv).(anc.(lv))
      done;
      for lv = 0 to l do
        let ss = Array.unsafe_get level_slots lv in
        let j = Array.unsafe_get anc lv in
        for q = 0 to Array.length ss - 1 do
          let s = Array.unsafe_get ss q in
          env.(s) <- vals.(s).(j)
        done
      done
    in
    let run_stage k =
      let st = stages.(k) in
      let l = stage_level.(k) in
      let r = p.atoms.(st.bs_atom).a_rel in
      let tuples = r.Db.tuples in
      let nchecks = Array.length st.bs_checks in
      let ncols = Array.length st.bs_cols in
      let ndups = Array.length st.bs_dups in
      (* constant checks resolve to index cells once per batch; the smallest
         doubles as the shared probe when no column is bound. A missing cell
         means no stored tuple can ever match: the whole batch dies. *)
      let best_const = ref (-1) and best_rows = ref [||] in
      for ci = 0 to nchecks - 1 do
        let pos, id = st.bs_checks.(ci) in
        match Hashtbl.find_opt r.Db.index.(pos) id with
        | None -> raise Batch_dead
        | Some cell ->
            if !best_const < 0 || cell.Db.count < !best_const then begin
              best_const := cell.Db.count;
              best_rows := cell.Db.rows
            end
      done;
      (* probe values for the bound columns, materialized for the current
         level: a binding made at this level is read in place, an older
         binding is chased through parent pointers (depth = level gap, one
         hop when the stage joins against the most recent binding) *)
      let w = !width in
      for ci = 0 to ncols - 1 do
        let _, s = st.bs_cols.(ci) in
        let b = binder_level.(s) in
        if b = l then pcols.(ci) <- vals.(s)
        else begin
          let dst = ensure pcol_scratch ci w in
          (if b = l - 1 then begin
             let pr = par.(l) and sv = vals.(s) in
             for i = 0 to w - 1 do
               Array.unsafe_set dst i
                 (Array.unsafe_get sv (Array.unsafe_get pr i))
             done
           end
           else
             for i = 0 to w - 1 do
               let j = ref i in
               for lv = l downto b + 1 do
                 j := par.(lv).(!j)
               done;
               dst.(i) <- vals.(s).(!j)
             done);
          pcols.(ci) <- dst
        end
      done;
      (* per-row candidate cells. One bound column — the overwhelmingly
         common case in join pipelines — probes the counted index in batch
         order through a last-key memo: runs of equal keys cost a single
         lookup and nothing per-row is materialized. Composite keys sort a
         permutation of the live rows (monomorphic int compares) so each
         distinct key combination costs one lookup per column; expansion
         still walks batch order, so the output order is unchanged. *)
      let shared_scan = ref false in
      let shared_rows = ref [||] and shared_count = ref 0 in
      if ncols = 0 then
        if !best_const >= 0 then begin
          shared_rows := !best_rows;
          shared_count := !best_const
        end
        else begin
          shared_scan := true;
          shared_count := r.Db.nrows
        end;
      let memo_key = ref (-1) in
      let memo_rows = ref [||] and memo_count = ref 0 in
      let idx1 =
        if ncols = 1 then
          let pos, _ = st.bs_cols.(0) in
          r.Db.index.(pos)
        else Hashtbl.create 0
      in
      let dmax = dense_max.(k) in
      let dcount = dense_count.(k) and drows = dense_rows.(k) in
      let probe1 key =
        if key <> !memo_key then begin
          memo_key := key;
          if key >= 0 && key <= dmax then begin
            let n = Array.unsafe_get dcount key in
            if !best_const >= 0 && !best_const < n then begin
              memo_rows := !best_rows;
              memo_count := !best_const
            end
            else begin
              memo_rows := Array.unsafe_get drows key;
              memo_count := n
            end
          end
          else
            match Hashtbl.find_opt idx1 key with
            | None ->
                memo_rows := [||];
                memo_count := 0
            | Some cell ->
                if !best_const >= 0 && !best_const < cell.Db.count then begin
                  memo_rows := !best_rows;
                  memo_count := !best_const
                end
                else begin
                  memo_rows := cell.Db.rows;
                  memo_count := cell.Db.count
                end
        end
      in
      let cand_rows, cand_count =
        if ncols < 2 then ([||], [||])
        else begin
          let cand_rows = Array.make w [||] in
          let cand_count = Array.make w 0 in
          let perm = Array.make (max 1 !alive) 0 in
          col_transient := max !col_transient ((2 * w) + max 1 !alive);
          let pj = ref 0 in
          for i = 0 to w - 1 do
            if Bytes.unsafe_get !mask i <> '\000' then begin
              perm.(!pj) <- i;
              incr pj
            end
          done;
          let cmp (a : int) (b : int) =
            let rec go ci =
              if ci >= ncols then 0
              else
                let col = Array.unsafe_get pcols ci in
                let x : int = Array.unsafe_get col a in
                let y : int = Array.unsafe_get col b in
                if x < y then -1 else if x > y then 1 else go (ci + 1)
            in
            go 0
          in
          Array.sort cmp perm;
          let i = ref 0 in
          while !i < !alive do
            let r0 = perm.(!i) in
            (* resolve this key run: min-count cell across the bound columns
               and the constant cells *)
            let cnt = ref !best_const and rows = ref !best_rows in
            (try
               for ci = 0 to ncols - 1 do
                 let pos, _ = st.bs_cols.(ci) in
                 match Hashtbl.find_opt r.Db.index.(pos) pcols.(ci).(r0) with
                 | None ->
                     cnt := 0;
                     rows := [||];
                     raise Exit
                 | Some cell ->
                     if !cnt < 0 || cell.Db.count < !cnt then begin
                       cnt := cell.Db.count;
                       rows := cell.Db.rows
                     end
               done
             with Exit -> ());
            let run_rows = !rows and run_cnt = max 0 !cnt in
            cand_rows.(r0) <- run_rows;
            cand_count.(r0) <- run_cnt;
            let j = ref (!i + 1) in
            while !j < !alive && cmp r0 perm.(!j) = 0 do
              cand_rows.(perm.(!j)) <- run_rows;
              cand_count.(perm.(!j)) <- run_cnt;
              incr j
            done;
            i := !j
          done;
          (cand_rows, cand_count)
        end
      in
      (* a candidate tuple joins batch row [i] when it passes every op *)
      let admits i (t : Tuple.t) =
        let rec chk ci =
          ci >= nchecks
          ||
          let pos, id = Array.unsafe_get st.bs_checks ci in
          t.(pos) = id && chk (ci + 1)
        in
        let rec colk ci =
          ci >= ncols
          ||
          let pos, _ = Array.unsafe_get st.bs_cols ci in
          t.(pos) = Array.unsafe_get (Array.unsafe_get pcols ci) i
          && colk (ci + 1)
        in
        let rec dupk ci =
          ci >= ndups
          ||
          let pos, pos0 = Array.unsafe_get st.bs_dups ci in
          t.(pos) = t.(pos0) && dupk (ci + 1)
        in
        chk 0 && colk 0 && dupk 0
      in
      (* the dominant stage shape in join pipelines: one bound probe column,
         no constant checks, no intra-tuple duplicates, and no competing
         constant cell. Every tuple in the probed cell then matches by the
         index invariant (stored position = key), so the per-candidate
         verification disappears entirely: filters reduce to a count check
         and expansions blit the cell. *)
      let pure_join = ncols = 1 && nchecks = 0 && ndups = 0 && !best_const < 0 in
      (* counter discipline: every count below is a per-live-row property
         (rows entering, candidates per row, rows/matches surviving), so
         sums over any grouping or chunking of the candidate range are
         identical — the merge-equality the feedback auditor relies on *)
      let sa = st.bs_atom in
      let alive_in = !alive in
      fb_c.(sa) <- fb_c.(sa) + alive_in;
      if st.bs_filter then begin
        fb_p.(sa) <- fb_p.(sa) + alive_in;
        (* narrowing stage: checks mutate the survivor mask in place. With
           no bound column the verdict is batch-invariant. *)
        if ncols = 0 then begin
          let n = !shared_count in
          let hit = ref false in
          (try
             for ci = 0 to n - 1 do
               let ti = if !shared_scan then ci else (!shared_rows).(ci) in
               if admits 0 tuples.(ti) then begin
                 hit := true;
                 raise Exit
               end
             done
           with Exit -> ());
          if not !hit then raise Batch_dead;
          fb_s.(sa) <- fb_s.(sa) + alive_in
        end
        else if pure_join then begin
          (* survival is exactly "the probed cell is non-empty" *)
          let m = !mask and p1 = pcols.(0) in
          for i = 0 to w - 1 do
            if Bytes.unsafe_get m i <> '\000' then begin
              probe1 (Array.unsafe_get p1 i);
              if !memo_count = 0 then kill i
            end
          done;
          fb_s.(sa) <- fb_s.(sa) + !alive;
          if !alive = 0 then raise Batch_dead
        end
        else begin
          let p1 = if ncols = 1 then pcols.(0) else [||] in
          for i = 0 to w - 1 do
            if Bytes.unsafe_get !mask i <> '\000' then begin
              let n, rows =
                if ncols = 1 then begin
                  probe1 (Array.unsafe_get p1 i);
                  (!memo_count, !memo_rows)
                end
                else (cand_count.(i), cand_rows.(i))
              in
              let hit = ref false in
              (try
                 for ci = 0 to n - 1 do
                   if admits i tuples.(rows.(ci)) then begin
                     hit := true;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if not !hit then kill i
            end
          done;
          fb_s.(sa) <- fb_s.(sa) + !alive;
          if !alive = 0 then raise Batch_dead
        end
      end
      else if k = nstages - 1 then begin
        (* final expansion: matches stream straight into the callback in
           input-row-major, stored-row order — the depth-first order — so
           the widest level never hits memory. Carried slot values are
           reconstructed once per input row; each match then writes only
           the newly bound slots. *)
        let nbinds = Array.length st.bs_binds in
        let p1 = if ncols = 1 then pcols.(0) else [||] in
        let ss_l = level_slots.(l) in
        let nss_l = Array.length ss_l in
        let pr = if l > 0 then par.(l) else [||] in
        let last_par = ref (-1) in
        for i = 0 to w - 1 do
          if Bytes.unsafe_get !mask i <> '\000' then begin
            let n, rows =
              if ncols = 0 then (!shared_count, !shared_rows)
              else if ncols = 1 then begin
                probe1 (Array.unsafe_get p1 i);
                (!memo_count, !memo_rows)
              end
              else (cand_count.(i), cand_rows.(i))
            in
            fb_p.(sa) <- fb_p.(sa) + n;
            if n > 0 then begin
              (* levels below the current one change only when the parent
                 row does — consecutive rows blitted from one parent share
                 their whole carried prefix *)
              (if l > 0 then begin
                 let pi = Array.unsafe_get pr i in
                 if pi <> !last_par then begin
                   last_par := pi;
                   anc.(l - 1) <- pi;
                   for lv = l - 1 downto 1 do
                     anc.(lv - 1) <- par.(lv).(anc.(lv))
                   done;
                   for lv = 0 to l - 1 do
                     let ss = Array.unsafe_get level_slots lv in
                     let j = Array.unsafe_get anc lv in
                     for q = 0 to Array.length ss - 1 do
                       let s = Array.unsafe_get ss q in
                       env.(s) <- vals.(s).(j)
                     done
                   done
                 end
               end);
              for q = 0 to nss_l - 1 do
                let s = Array.unsafe_get ss_l q in
                env.(s) <- vals.(s).(i)
              done;
              if pure_join then begin
                fb_s.(sa) <- fb_s.(sa) + n;
                for ci = 0 to n - 1 do
                  let t =
                    Array.unsafe_get tuples (Array.unsafe_get rows ci)
                  in
                  for q = 0 to nbinds - 1 do
                    let pos, s = Array.unsafe_get st.bs_binds q in
                    env.(s) <- t.(pos)
                  done;
                  f env
                done
              end
              else
                for ci = 0 to n - 1 do
                  let ti = if !shared_scan then ci else rows.(ci) in
                  let t = tuples.(ti) in
                  if admits i t then begin
                    fb_s.(sa) <- fb_s.(sa) + 1;
                    for q = 0 to nbinds - 1 do
                      let pos, s = Array.unsafe_get st.bs_binds q in
                      env.(s) <- t.(pos)
                    done;
                    f env
                  end
                done
            end
          end
        done;
        (* everything was emitted: nothing survives to read back *)
        width := 0;
        alive := 0
      end
      else begin
        (* interior expansion: one output row per (input row, matching
           tuple), input-row-major. Each output row records its parent row
           and the newly bound columns only. *)
        let nl = l + 1 in
        let nbinds = Array.length st.bs_binds in
        let ocap = ref (max 16 !alive) in
        let opar = ref (ensure par nl !ocap) in
        let obind = Array.make (max 1 nbinds) [||] in
        for q = 0 to nbinds - 1 do
          let _, s = st.bs_binds.(q) in
          obind.(q) <- ensure vals s !ocap
        done;
        let oj = ref 0 in
        let grow need =
          let nc = ref (2 * !ocap) in
          while !nc < need do
            nc := 2 * !nc
          done;
          opar := regrow par nl !nc !oj;
          for q = 0 to nbinds - 1 do
            let _, s = st.bs_binds.(q) in
            obind.(q) <- regrow vals s !nc !oj
          done;
          ocap := !nc
        in
        let emit i t =
          if !oj = !ocap then grow (!oj + 1);
          let jj = !oj in
          Array.unsafe_set !opar jj i;
          for q = 0 to nbinds - 1 do
            let pos, _ = Array.unsafe_get st.bs_binds q in
            Array.unsafe_set (Array.unsafe_get obind q) jj t.(pos)
          done;
          incr oj
        in
        (if pure_join then begin
           (* the probed cell is exactly the match set: blit it *)
           let m = !mask and p1 = pcols.(0) in
           for i = 0 to w - 1 do
             if Bytes.unsafe_get m i <> '\000' then begin
               probe1 (Array.unsafe_get p1 i);
               let n = !memo_count in
               fb_p.(sa) <- fb_p.(sa) + n;
               if n > 0 then begin
                 let rows = !memo_rows in
                 if !oj + n > !ocap then grow (!oj + n);
                 let jj0 = !oj in
                 let dst = !opar in
                 for ci = 0 to n - 1 do
                   Array.unsafe_set dst (jj0 + ci) i
                 done;
                 for q = 0 to nbinds - 1 do
                   let pos, _ = Array.unsafe_get st.bs_binds q in
                   let dst = Array.unsafe_get obind q in
                   for ci = 0 to n - 1 do
                     let t =
                       Array.unsafe_get tuples (Array.unsafe_get rows ci)
                     in
                     Array.unsafe_set dst (jj0 + ci) t.(pos)
                   done
                 done;
                 oj := jj0 + n
               end
             end
           done
         end
         else begin
           let p1 = if ncols = 1 then pcols.(0) else [||] in
           for i = 0 to w - 1 do
             if Bytes.unsafe_get !mask i <> '\000' then
               if ncols = 0 then begin
                 let n = !shared_count in
                 let rows = !shared_rows in
                 fb_p.(sa) <- fb_p.(sa) + n;
                 for ci = 0 to n - 1 do
                   let ti = if !shared_scan then ci else rows.(ci) in
                   let t = tuples.(ti) in
                   if admits i t then emit i t
                 done
               end
               else begin
                 let n, rows =
                   if ncols = 1 then begin
                     probe1 (Array.unsafe_get p1 i);
                     (!memo_count, !memo_rows)
                   end
                   else (cand_count.(i), cand_rows.(i))
                 in
                 fb_p.(sa) <- fb_p.(sa) + n;
                 for ci = 0 to n - 1 do
                   let t = tuples.(rows.(ci)) in
                   if admits i t then emit i t
                 done
               end
           done
         end);
        fb_s.(sa) <- fb_s.(sa) + !oj;
        if !oj = 0 then raise Batch_dead;
        width := !oj;
        alive := !oj;
        mask := fresh_mask !oj;
        cur_level := nl
      end
    in
    let glo = ref lo in
    while !glo < hi do
      let ghi = min hi (!glo + group) in
      (try
         (* stage 0: survivor bitmask over the candidate vector, then the
            survivors' bind columns are materialized compactly as level 0.
            Its probe context is credited once per run at commit time, like
            the scalar top level. *)
         let w0 = ghi - !glo in
         fb_p.(st0.bs_atom) <- fb_p.(st0.bs_atom) + w0;
         let cand =
           if Array.length !cand_scratch < w0 then
             cand_scratch :=
               Array.make (max w0 (2 * Array.length !cand_scratch)) 0;
           !cand_scratch
         in
         for i = 0 to w0 - 1 do
           cand.(i) <- (if fc.fc_scan then !glo + i else fc.fc_rows.(!glo + i))
         done;
         let m0 = fresh_mask w0 in
         mask := m0;
         width := w0;
         alive := w0;
         Array.iter
           (fun (pos, id) ->
             for i = 0 to w0 - 1 do
               if
                 Bytes.unsafe_get m0 i <> '\000'
                 && (tuples0.(cand.(i))).(pos) <> id
               then begin
                 Bytes.unsafe_set m0 i '\000';
                 decr alive
               end
             done)
           st0.bs_checks;
         Array.iter
           (fun (pos, pos0) ->
             for i = 0 to w0 - 1 do
               if Bytes.unsafe_get m0 i <> '\000' then begin
                 let t = tuples0.(cand.(i)) in
                 if t.(pos) <> t.(pos0) then begin
                   Bytes.unsafe_set m0 i '\000';
                   decr alive
                 end
               end
             done)
           st0.bs_dups;
         if !alive = 0 then raise Batch_dead;
         Array.iter
           (fun (_, s) -> ignore (ensure vals s !alive))
           st0.bs_binds;
         let j = ref 0 in
         for i = 0 to w0 - 1 do
           if Bytes.unsafe_get m0 i <> '\000' then begin
             let t = tuples0.(cand.(i)) in
             Array.iter (fun (pos, s) -> vals.(s).(!j) <- t.(pos)) st0.bs_binds;
             incr j
           end
         done;
         fb_s.(st0.bs_atom) <- fb_s.(st0.bs_atom) + !j;
         width := !j;
         alive := !j;
         mask := fresh_mask !j;
         cur_level := 0;
         for k = 1 to nstages - 1 do
           run_stage k
         done;
         (* read back (only when the pipeline ends in a filter or is a
            single stage — a final expansion already streamed its matches):
            surviving rows, in batch order *)
         for i = 0 to !width - 1 do
           if Bytes.unsafe_get !mask i <> '\000' then begin
             load_env !cur_level i;
             f env
           end
         done
       with Batch_dead -> ());
      glo := ghi
    done;
    (* columnar footprint of this slice: every scratch buffer is retained
       across groups, so its capacity at slice end is its peak *)
    (let words = ref !col_transient in
     Array.iter (fun (b : int array) -> words := !words + Array.length b) vals;
     Array.iter (fun (b : int array) -> words := !words + Array.length b) par;
     Array.iter
       (fun (b : int array) -> words := !words + Array.length b)
       pcol_scratch;
     words := !words + Array.length !cand_scratch;
     words := !words + ((Bytes.length !mask_scratch + 7) / 8);
     note_max bm_column_words !words)
  end

(* ------------------------------------------------------------------ *)
(* Checked execution (sanitizer mode)                                   *)
(* ------------------------------------------------------------------ *)

exception Check_failure of string

let check_fail fmt = Format.kasprintf (fun s -> raise (Check_failure s)) fmt

exception Race_failure of string

let race_fail fmt = Format.kasprintf (fun s -> raise (Race_failure s)) fmt

let checked =
  Atomic.make
    (match Sys.getenv_opt "WDPT_ENGINE_CHECKED" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_checked b = Atomic.set checked b
let checked_enabled () = Atomic.get checked

(* static plan invariants, the runtime twin of Analysis.Plan_audit: slots in
   range of the environment (E001), interner ids inside the pool (E002),
   instruction and index arity coherent with the stored relation (E003),
   static order sorted by the (ground, selectivity) key (E005), compiled
   database not stale (E006). O(plan size). *)
let sanitize_static p =
  let nenv = Array.length p.init_env in
  let pool = Interner.size p.cdb.Db.pool in
  (* three-way version discipline: the compiled store may legitimately be
     ahead of the plan (insertions were appended in place — existing rows
     are untouched, the plan's candidate sets only grow), but a store that
     fell behind the live database is detached and unsafe, and so is an
     atom whose relation a synced removal replaced by a compacted copy. *)
  if p.cdb.Db.db_version < Database.version p.src_db then
    check_fail
      "detached compiled database: store at version %d, database is at %d"
      p.cdb.Db.db_version (Database.version p.src_db);
  if p.compiled_at > p.cdb.Db.db_version then
    check_fail "plan compiled at version %d, ahead of its store at %d"
      p.compiled_at p.cdb.Db.db_version;
  Array.iteri
    (fun ai ap ->
      let r = ap.a_rel in
      if not (Db.holds p.cdb r) then
        check_fail
          "atom %d (%s): relation record replaced by a removal synced after \
           compile (plan at version %d, store at %d)"
          ai r.Db.name p.compiled_at p.cdb.Db.db_version;
      if Array.length ap.a_ops <> r.Db.arity || Array.length r.Db.index <> r.Db.arity
      then
        check_fail "atom %d (%s): %d instruction(s), %d index(es), arity %d" ai
          r.Db.name (Array.length ap.a_ops) (Array.length r.Db.index) r.Db.arity;
      Array.iteri
        (fun oi op ->
          match op with
          | Check id ->
              if id < 0 || id >= pool then
                check_fail "atom %d op %d: interner id %d outside pool of %d" ai
                  oi id pool
          | Slot s ->
              if s < 0 || s >= nenv then
                check_fail "atom %d op %d: slot %d outside environment of %d" ai
                  oi s nenv)
        ap.a_ops)
    p.atoms;
  Array.iteri
    (fun s id ->
      if id < -1 || id >= pool then
        check_fail "init slot %d: interner id %d outside pool of %d" s id pool)
    p.init_env;
  let n = Array.length p.atoms in
  if Array.length p.order <> n then
    check_fail "static order covers %d atom(s), plan has %d"
      (Array.length p.order) n;
  let seen = Array.make (max 1 n) false in
  Array.iter
    (fun ai ->
      if ai < 0 || ai >= n || seen.(ai) then
        check_fail "static order is not a permutation of the atoms";
      seen.(ai) <- true)
    p.order;
  (* the order discipline is checked against the *calibrated* key: a plan
     whose order was adapted from observed feedback is sorted by the same
     key the reorder pass used, so zero-calibration plans degrade to the
     static (ground, selectivity) check exactly *)
  let key i =
    let g, s = atom_key p.atoms.(p.order.(i)) in
    (g, s +. calib_of p p.order.(i))
  in
  for i = 0 to n - 2 do
    if compare (key i) (key (i + 1)) > 0 then
      check_fail
        "static order inversion: atom %d (key %d, score %.3f) before atom %d \
         (key %d, score %.3f)"
        p.order.(i) (fst (key i)) (snd (key i))
        p.order.(i + 1)
        (fst (key (i + 1)))
        (snd (key (i + 1)))
  done

(* revalidate one reported solution: every slot an instruction touches is
   bound, and each atom is satisfied by some stored tuple (found through the
   position-0 index, so the cost is one counted cell, not the relation). *)
let verify_solution p env =
  Array.iteri
    (fun ai ap ->
      let ops = ap.a_ops in
      let r = ap.a_rel in
      let expected i =
        match ops.(i) with
        | Check id -> id
        | Slot s ->
            if env.(s) < 0 then
              check_fail "solution leaves slot %d of atom %d unbound" s ai;
            env.(s)
      in
      let matches (t : Tuple.t) =
        let ok = ref true in
        for i = 0 to Array.length ops - 1 do
          if t.(i) <> expected i then ok := false
        done;
        !ok
      in
      let found =
        if Array.length ops = 0 then r.Db.nrows > 0
        else
          match Hashtbl.find_opt r.Db.index.(0) (expected 0) with
          | None -> false
          | Some cell ->
              let rec scan i =
                i < cell.Db.count
                && (matches r.Db.tuples.(cell.Db.rows.(i)) || scan (i + 1))
              in
              scan 0
      in
      if not found then
        check_fail "solution violates atom %d (%s): no matching stored tuple" ai
          r.Db.name)
    p.atoms

(* ------------------------------------------------------------------ *)
(* The fixed-order scalar runner                                        *)
(* ------------------------------------------------------------------ *)

(* Scalar twin of the batched interpreter: the same fixed stage order, one
   environment at a time, restricted to candidates [lo, hi) of the
   top-level choice [fc]. It serves first-match ([sat],
   [first_homomorphism]), which usually stops within a handful of
   candidates and so must not materialize a morsel group first, and it is
   the twin checked-batched mode replays per morsel group and compares env
   for env — matching tuples arrive in increasing stored-row order on both
   sides, so the two enumerations must coincide exactly.

   With [check] it validates the static invariants on entry, every stored
   tuple's width, every probed index cell's count against its capacity and
   every reported solution against the stored relations, and the trail
   and environment restoration on exit. It commits no feedback counters: a
   first-match run stops at a point that depends on where the first
   witness sits, and a checked replay would double-count the genuine run's
   probes. *)
let iter_envs_fixed_slice ~check p fc ~lo ~hi f =
  if check then sanitize_static p;
  if p.feasible && Array.length p.atoms > 0 then begin
    let env = Array.copy p.init_env in
    let fc_atom = p.order.(fc.fc_pos) in
    let rest = Array.of_list (List.tl (fixed_order p fc)) in
    let nrest = Array.length rest in
    let trail = Array.make (Array.length env) 0 in
    let sp = ref 0 in
    let undo_to mark =
      while !sp > mark do
        decr sp;
        env.(trail.(!sp)) <- -1
      done
    in
    let match_tuple ai ops (t : Tuple.t) =
      let mark = !sp in
      let len = Array.length ops in
      if check && Array.length t <> len then
        check_fail "atom %d: stored tuple width %d, %d instruction(s)" ai
          (Array.length t) len;
      let rec go i =
        if i >= len then true
        else
          let arg = t.(i) in
          match ops.(i) with
          | Check id -> if arg = id then go (i + 1) else false
          | Slot s ->
              let v = env.(s) in
              if v < 0 then begin
                env.(s) <- arg;
                trail.(!sp) <- s;
                incr sp;
                go (i + 1)
              end
              else if v = arg then go (i + 1)
              else false
      in
      if go 0 then true
      else begin
        undo_to mark;
        false
      end
    in
    let rec go k =
      if k >= nrest then begin
        if check then verify_solution p env;
        f env
      end
      else begin
        let ai = rest.(k) in
        let ap = p.atoms.(ai) in
        let r = ap.a_rel in
        let cost = ref r.Db.nrows and rows = ref [||] and scan = ref true in
        let ops = ap.a_ops in
        for pos = 0 to Array.length ops - 1 do
          let bound =
            match ops.(pos) with Check id -> id | Slot s -> env.(s)
          in
          if bound >= 0 then
            match Hashtbl.find_opt r.Db.index.(pos) bound with
            | Some cell ->
                if check && cell.Db.count > Array.length cell.Db.rows then
                  check_fail "index cell of %s pos %d: count %d, capacity %d"
                    r.Db.name pos cell.Db.count (Array.length cell.Db.rows);
                if !scan || cell.Db.count < !cost then begin
                  cost := cell.Db.count;
                  rows := cell.Db.rows;
                  scan := false
                end
            | None ->
                cost := 0;
                rows := [||];
                scan := false
        done;
        let tuples = r.Db.tuples in
        if !scan then
          for ti = 0 to !cost - 1 do
            let mark = !sp in
            if match_tuple ai ops tuples.(ti) then begin
              go (k + 1);
              undo_to mark
            end
          done
        else begin
          let rs = !rows in
          for ri = 0 to !cost - 1 do
            let mark = !sp in
            if match_tuple ai ops tuples.(rs.(ri)) then begin
              go (k + 1);
              undo_to mark
            end
          done
        end
      end
    in
    let ap = p.atoms.(fc_atom) in
    let ops = ap.a_ops and tuples = ap.a_rel.Db.tuples in
    let i = ref lo in
    while !i < hi do
      let ti = if fc.fc_scan then !i else fc.fc_rows.(!i) in
      let mark = !sp in
      if match_tuple fc_atom ops tuples.(ti) then begin
        go 0;
        undo_to mark
      end;
      incr i
    done;
    if check then begin
      if !sp <> 0 then check_fail "trail not empty after enumeration";
      Array.iteri
        (fun s v ->
          if v <> p.init_env.(s) then
            check_fail "environment slot %d not restored after enumeration" s)
        env
    end
  end

(* checked-batched execution: every morsel group's batched effects are
   validated env-for-env against the checked fixed-order twin, which
   re-verifies each of its solutions against the stored relations before
   the comparison. A mismatch in either direction (a dropped or an extra
   batched solution, or any slot disagreement) is a Check_failure, raised
   before the caller sees any solution of the group. The slice accepts
   (and ignores) the counter record so it stays interchangeable with
   [iter_envs_batched_slice] in [Parallel.count]'s chunks; the replay runs
   the group twice over, so its counters are deliberately discarded. *)
let iter_envs_batched_checked_slice ?dense p fc ~lo ~hi ~fb:_ f =
  sanitize_static p;
  if p.feasible && Array.length p.atoms > 0 then begin
    let group = morsel_rows () in
    let dense =
      match dense with Some d -> d | None -> dense_tables p fc ~rows:(hi - lo)
    in
    let scratch = fb_create (Array.length p.atoms) in
    let glo = ref lo in
    while !glo < hi do
      let ghi = min hi (!glo + group) in
      let buf = ref [] in
      iter_envs_batched_slice ~dense p fc ~lo:!glo ~hi:ghi ~fb:scratch (fun env -> buf := Array.copy env :: !buf);
      let batched = Array.of_list (List.rev !buf) in
      note_max bm_replay_rows (Array.length batched);
      let k = ref 0 in
      iter_envs_fixed_slice ~check:true p fc ~lo:!glo ~hi:ghi (fun env ->
          if !k >= Array.length batched then
            check_fail
              "batched run dropped solution %d of the scalar fixed-order twin"
              !k
          else begin
            let b = batched.(!k) in
            Array.iteri
              (fun s v ->
                if b.(s) <> v then
                  check_fail
                    "batched solution %d differs from the scalar twin at slot \
                     %d (%d vs %d)"
                    !k s b.(s) v)
              env;
            incr k
          end);
      if !k <> Array.length batched then
        check_fail "batched run produced %d extra solution(s) beyond the twin"
          (Array.length batched - !k);
      Array.iter f batched;
      glo := ghi
    done
  end

(* The one prelude of the sequential runs: a plan with a top-level choice
   runs [slice] over its whole candidate range [0, fc_count); otherwise the
   plan is infeasible (no solution) or has no atoms (one solution, its
   initial environment). *)
let run_seq p f slice =
  match select_first p with
  | Some fc -> slice fc
  | None ->
      if Atomic.get checked then sanitize_static p;
      if p.feasible then f (Array.copy p.init_env)

(* one enumeration over the whole top-level range of [fc], on the calling
   domain: checked mode replays every morsel group against the scalar twin
   (and commits no counters), otherwise the run's counters are committed *)
let enum_slice p fc f =
  if Atomic.get checked then
    iter_envs_batched_checked_slice p fc ~lo:0 ~hi:fc.fc_count
      ~fb:(fb_create 0) f
  else begin
    let fb = fb_create (Array.length p.atoms) in
    iter_envs_batched_slice p fc ~lo:0 ~hi:fc.fc_count ~fb f;
    fb_commit p fc fb
  end

(* Enumeration and first-match run on the calling domain at every pool
   size. A parallel enumeration had to buffer each chunk's solutions for
   the in-order replay, and a parallel first-match paid the region's spawn
   for a search that usually stops within a few candidates; on a 2-core
   x86 VM pool 2 lost to pool 1 on both at every measured size
   (EXPERIMENTS.md, the pool-1 vs pool-2 curve), so only [count] and
   [Rel.semijoin] open regions. *)
let iter_envs p f = run_seq p f (fun fc -> enum_slice p fc f)

(* the first-match run: same order as [iter_envs], one environment at a
   time, so an exception raised by [f] exits at the first witness *)
let iter_envs_first p f =
  run_seq p f (fun fc ->
      iter_envs_fixed_slice ~check:(Atomic.get checked) p fc ~lo:0
        ~hi:fc.fc_count f)

exception Hit

(* First-match probes run on the fixed-order scalar runner: the batched
   pipeline materializes a whole morsel group (and builds its probe tables)
   before its first result, which is exactly wrong for a short-circuit that
   usually stops within a handful of candidates. *)
let sat p =
  try
    iter_envs_first p (fun _ -> raise Hit);
    false
  with Hit -> true

(* ------------------------------------------------------------------ *)
(* Domain-parallel regions: count and semijoin                          *)
(* ------------------------------------------------------------------ *)

module Parallel = struct
  let domains_flag =
    Atomic.make
      (match Sys.getenv_opt "WDPT_ENGINE_DOMAINS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> min n 64
          | _ -> 1)
      | None -> 1)

  let set_domains n = Atomic.set domains_flag (max 1 (min n 64))
  let domains () = Atomic.get domains_flag

  (* Regions are opt-in: a pool alone runs sequentially until a caller names
     the fewest rows (top-level candidates of a count, input rows of a
     semijoin) worth a region's cost (spawning and joining the helper
     domains, merging their results, and the stop-the-world minor
     collections a second domain adds). On a 2-core x86 VM [count] won or
     lost by query shape rather than by row count (EXPERIMENTS.md), so there
     is no measured default; [max_int] stands for "no threshold set". Tests
     set it to 1 to exercise the parallel path on small instances. *)
  let min_rows_flag = Atomic.make max_int
  let set_min_rows n = Atomic.set min_rows_flag (max 1 n)
  let min_rows () = Atomic.get min_rows_flag

  (* one region at a time: a callback that re-enters the engine while a
     region is running (workers included) falls back to the sequential
     path instead of nesting domain pools *)
  let in_region = Atomic.make false

  (* morsel size: re-exported here because it is the unit of parallel work
     distribution (the batched interpreter reads the same flag for its group
     width) *)
  let set_morsel_rows = set_morsel_rows
  let morsel_rows = morsel_rows

  (* Fixed-size morsels: the unit of work pulled off the dispatch counter.
     The chunk size is the configured morsel cap, lowered for small regions
     so the pool still sees ~4 waves per domain (the old 4×pool target); a
     fat candidate range therefore splits into ceil(count/morsel) chunks
     instead of 4×pool huge ones — the single-huge-chunk skew fix. *)
  let chunk_size_for nd count =
    let target = (count + (4 * nd) - 1) / (4 * nd) in
    max 1 (min (morsel_rows ()) target)

  let nchunks_for nd count =
    if count <= 0 then 1
    else
      let s = chunk_size_for nd count in
      (count + s - 1) / s

  (* [i]th of [nchunks] fixed-stride contiguous slices of [0, count): every
     chunk spans ceil(count/nchunks) rows except a possibly-short last one —
     the uniform-stride morsel shape E016 audits. (For any [nchunks]
     produced by [nchunks_for] the stride round-trips exactly, so no chunk
     is empty.) *)
  let chunk_bounds count nchunks =
    let stride = if nchunks <= 0 then 0 else (count + nchunks - 1) / nchunks in
    Array.init nchunks (fun i ->
        (min count (i * stride), min count ((i + 1) * stride)))

  (* ---- data-race sanitizer ----------------------------------------- *)

  (* When enabled, every parallel region logs its shared-location accesses
     into per-chunk event buffers and validates, after the join, that no
     two unordered conflicting accesses occurred. The happens-before order
     of a region is fork -> each chunk -> join: chunks carry independent
     logical clocks with no cross edges (a chunk never waits on another),
     so in vector-clock terms two accesses to the same location from
     different chunks are always unordered — a race whenever the location
     is non-atomic and at least one access is a write. Atomic locations
     are exempt: the hardware totally orders them. *)
  let race_flag =
    Atomic.make
      (match Sys.getenv_opt "WDPT_ENGINE_TSAN" with
      | Some ("1" | "true" | "yes") -> true
      | _ -> false)

  let set_race_check b = Atomic.set race_flag b
  let race_check_enabled () = Atomic.get race_flag

  (* test-only seeded fault: each region chunk additionally stores into a
     peer chunk's cell (value-neutral), exactly the corrupted-reducer shape
     the sanitizer must catch *)
  let fault_flag = Atomic.make false
  let set_fault_injection b = Atomic.set fault_flag b
  let fault_injection_enabled () = Atomic.get fault_flag

  (* the shared locations of a region, by role; [Chunk_cell i] stands for
     chunk [i]'s slot of the per-chunk result array, which only chunk [i]
     may write *)
  type shared_loc =
    | Next_counter
    | Error_slot
    | Chunk_cell of int
    | Column_block of int
        (* chunk [i]'s working state (a count chunk's batched slot columns,
           a semijoin chunk's kept rows), logged as one whole-block access
           per (location, kind) rather than per lane *)

  let loc_atomic = function
    | Next_counter | Error_slot -> true
    | Chunk_cell _ | Column_block _ -> false

  let loc_name = function
    | Next_counter -> "chunk-dispatch-counter"
    | Error_slot -> "error-slot"
    | Chunk_cell i -> Printf.sprintf "chunk cell %d" i
    | Column_block i -> Printf.sprintf "batch columns of chunk %d" i

  (* One access record per (location, kind) a chunk performs: the logical
     clock of the first access plus a repetition count, so logging stays
     O(distinct locations) however often a location is touched. Each chunk
     mutates only its own cell of [tr_events]/[tr_clock] — the sanitizer
     introduces no shared writes of its own. *)
  type access = {
    ac_loc : shared_loc;
    ac_write : bool;
    ac_chunk : int;
    ac_clock : int;
    mutable ac_count : int;
  }

  type trace = { tr_events : access list array; tr_clock : int array }

  let make_trace nchunks =
    { tr_events = Array.make nchunks []; tr_clock = Array.make nchunks 0 }

  let log_access tr chunk loc ~write =
    match
      List.find_opt
        (fun a -> a.ac_loc = loc && a.ac_write = write)
        tr.tr_events.(chunk)
    with
    | Some a -> a.ac_count <- a.ac_count + 1
    | None ->
        let c = tr.tr_clock.(chunk) in
        tr.tr_clock.(chunk) <- c + 1;
        tr.tr_events.(chunk) <-
          { ac_loc = loc; ac_write = write; ac_chunk = chunk; ac_clock = c;
            ac_count = 1 }
          :: tr.tr_events.(chunk)

  type race_stats = { rs_regions : int; rs_events : int; rs_races : int }

  let regions_checked = Atomic.make 0
  let events_logged = Atomic.make 0
  let races_found = Atomic.make 0

  let race_stats () =
    { rs_regions = Atomic.get regions_checked;
      rs_events = Atomic.get events_logged;
      rs_races = Atomic.get races_found }

  let reset_race_stats () =
    Atomic.set regions_checked 0;
    Atomic.set events_logged 0;
    Atomic.set races_found 0

  let rec find_conflict = function
    | [] -> None
    | a :: rest -> (
        match
          List.find_opt
            (fun b ->
              a.ac_loc = b.ac_loc
              && (not (loc_atomic a.ac_loc))
              && a.ac_chunk <> b.ac_chunk
              && (a.ac_write || b.ac_write))
            rest
        with
        | Some b -> Some (a, b)
        | None -> find_conflict rest)

  (* Runs on the calling domain after every worker has joined, so reading
     the per-chunk buffers is ordered-after every log. *)
  let validate_trace tr =
    let all = List.concat (Array.to_list tr.tr_events) in
    Atomic.incr regions_checked;
    ignore (Atomic.fetch_and_add events_logged (List.length all));
    match find_conflict all with
    | None -> ()
    | Some (a, b) ->
        Atomic.incr races_found;
        let kind x = if x.ac_write then "write" else "read" in
        race_fail
          "data race on %s: unordered %s by chunk %d (clock %d) and %s by \
           chunk %d (clock %d)"
          (loc_name a.ac_loc) (kind a) a.ac_chunk a.ac_clock (kind b) b.ac_chunk
          b.ac_clock

  (* Drain chunk ids [0, nchunks) on [nd] domains — the calling domain
     participates, so [nd - 1] are spawned — pulling work off a shared
     atomic counter. The first exception wins, stops the drain on every
     domain, and is re-raised here after all domains are joined. With a
     trace, the dispatch traffic itself (counter bump, error-slot poll and
     store) is logged like any other shared access. *)
  let run_chunks ?trace ~nd ~nchunks work =
    let next = Atomic.make 0 in
    let err = Atomic.make None in
    let log chunk loc ~write =
      match trace with
      | Some tr -> log_access tr chunk loc ~write
      | None -> ()
    in
    let drain () =
      let running = ref true in
      while !running do
        let i = Atomic.fetch_and_add next 1 in
        if i >= nchunks || Option.is_some (Atomic.get err) then running := false
        else begin
          log i Next_counter ~write:true;
          log i Error_slot ~write:false;
          try work i
          with e ->
            log i Error_slot ~write:true;
            ignore (Atomic.compare_and_set err None (Some e))
        end
      done
    in
    let workers =
      List.init (min (nd - 1) (nchunks - 1)) (fun _ -> Domain.spawn drain)
    in
    drain ();
    List.iter Domain.join workers;
    match Atomic.get err with Some e -> raise e | None -> ()

  let leave () = Atomic.set in_region false

  (* The one region driver, shared by [count] and [Rel.semijoin].
     [region ~rows ~fb_atoms prepare] returns [None] — the caller runs
     sequentially — when the pool size is 1, [rows] is under the row
     threshold, or a region is already running. Otherwise it owns the
     region: [prepare ()] runs once on the calling domain and returns the
     chunk worker, which chunk [i] calls over its morsel [lo, hi) of
     [0, rows) with its own counter record of [fb_atoms] atoms. The driver
     logs each chunk's accesses under the sanitizer and validates them at
     the join, applies the seeded fault, and merges the chunk-local counter
     records, so the merged record equals a sequential run's exactly (every
     counter is a per-candidate-row property). It returns the per-chunk
     results in chunk order with the merged counters. *)
  let region ~rows ~fb_atoms prepare =
    let nd = Atomic.get domains_flag in
    if
      nd <= 1
      || rows < Atomic.get min_rows_flag
      || not (Atomic.compare_and_set in_region false true)
    then None
    else
      Fun.protect ~finally:leave (fun () ->
          let work = prepare () in
          let nchunks = nchunks_for nd rows in
          let bounds = chunk_bounds rows nchunks in
          (* chunk [i] writes only [cells.(i)] and [fbs.(i)] (the
             Chunk_cell i owner-only discipline) *)
          let cells = Array.make nchunks None in
          let fbs = Array.init nchunks (fun _ -> fb_create fb_atoms) in
          let trace =
            if Atomic.get race_flag then Some (make_trace nchunks) else None
          in
          let inject = Atomic.get fault_flag in
          let log i loc ~write =
            match trace with
            | Some tr -> log_access tr i loc ~write
            | None -> ()
          in
          run_chunks ?trace ~nd ~nchunks (fun i ->
              let lo, hi = bounds.(i) in
              log i (Column_block i) ~write:true;
              let r = work ~lo ~hi fbs.(i) in
              log i (Chunk_cell i) ~write:true;
              cells.(i) <- Some r;
              if inject && nchunks > 1 then begin
                (* seeded fault: value-neutral store into a peer's cell *)
                let j = (i + 1) mod nchunks in
                log i (Chunk_cell j) ~write:true;
                cells.(j) <- cells.(j)
              end);
          Option.iter validate_trace trace;
          let merged = fb_create fb_atoms in
          Array.iter (fb_add merged) fbs;
          Some (Array.map Option.get cells, merged))

  (* [count p]: per-chunk counts, summed. The region builds the dense probe
     tables once and every chunk reads them. *)
  let count p =
    let n = ref 0 in
    run_seq p
      (fun _ -> incr n)
      (fun fc ->
        let checked_run = Atomic.get checked in
        let prepare () =
          (* the slice interpreter is chosen once per region and shared by
             every worker: a concurrent [set_checked] cannot tear a run into
             mixed chunks *)
          let interp =
            if checked_run then iter_envs_batched_checked_slice
            else iter_envs_batched_slice
          in
          let dense = dense_tables p fc ~rows:fc.fc_count in
          fun ~lo ~hi fb ->
            let k = ref 0 in
            interp ~dense p fc ~lo ~hi ~fb (fun _ -> incr k);
            !k
        in
        match
          region ~rows:fc.fc_count ~fb_atoms:(Array.length p.atoms) prepare
        with
        | None -> enum_slice p fc (fun _ -> incr n)
        | Some (counts, fb) ->
            if not checked_run then fb_commit p fc fb;
            n := Array.fold_left ( + ) 0 counts);
    !n

  (* the count-region partitioning decision for a plan under the current
     configuration, as plain data for Analysis.Cost / the explain CLI.
     Regions serve [count] (and [Rel.semijoin], over its input rows);
     enumeration and first-match run sequentially at every pool size, so a
     chunked decision names the count region only. *)
  type decision = {
    d_domains : int;  (* configured pool size *)
    d_atom : int option;  (* top-level atom (plan index), if any *)
    d_rows : int;  (* top-level candidate rows *)
    d_chunks : int;  (* 1 = sequential *)
    d_chunk_rows : int;  (* estimated rows per chunk *)
    d_reason : string;
  }

  let decision p =
    let nd = Atomic.get domains_flag in
    let mr = Atomic.get min_rows_flag in
    let sequential atom rows reason =
      { d_domains = nd;
        d_atom = atom;
        d_rows = rows;
        d_chunks = 1;
        d_chunk_rows = rows;
        d_reason = "sequential: " ^ reason }
    in
    match select_first p with
    | None ->
        sequential None 0
          (if not p.feasible then "infeasible plan" else "no atoms")
    | Some fc ->
        let atom = Some p.order.(fc.fc_pos) in
        let rows = fc.fc_count in
        if nd <= 1 then sequential atom rows "pool size 1"
        else if rows < mr then
          sequential atom rows
            (if mr = max_int then "no row threshold set (regions are opt-in)"
             else
               Printf.sprintf "%d candidate row(s) under the %d-row threshold"
                 rows mr)
        else
          let nchunks = nchunks_for nd rows in
          { d_domains = nd;
            d_atom = atom;
            d_rows = rows;
            d_chunks = nchunks;
            d_chunk_rows = (rows + nchunks - 1) / nchunks;
            d_reason =
              Printf.sprintf
                "count region: %d morsel(s) of up to %d row(s) on %d \
                 domain(s); enumeration and first-match run sequentially"
                nchunks (chunk_size_for nd rows) nd }
end

let count_envs = Parallel.count

(* ------------------------------------------------------------------ *)
(* Plan inspection                                                      *)
(* ------------------------------------------------------------------ *)

module Inspect = struct
  type atom_view = {
    a_index : int;
    a_atom : Atom.t;
    a_rel : string;
    a_arity : int;
    a_index_arity : int;
    a_rows : int;
    a_dcounts : int array;
    a_ranges : (int * int) array;
    a_ops : op array;
    a_calib : float;  (* feedback calibration, log10; 0. on fresh plans *)
    a_current : bool;  (* the store still holds this relation record *)
  }

  type view = {
    i_feasible : bool;
    i_slots : string array;
    i_pool : int;
    i_env : int array;
    i_atoms : atom_view array;
    i_order : int array;
    i_compiled_version : int;
    i_store_version : int;
    i_live_version : int;
  }

  let plan (p : t) =
    let src = Array.of_list p.src_atoms in
    let atoms =
      Array.mapi
        (fun i (ap : atom_plan) ->
          { a_index = i;
            a_atom = src.(i);
            a_rel = ap.a_rel.Db.name;
            a_arity = ap.a_rel.Db.arity;
            a_index_arity = Array.length ap.a_rel.Db.index;
            a_rows = ap.a_rel.Db.nrows;
            a_dcounts = Array.copy ap.a_rel.Db.dcounts;
            a_ranges = Array.copy ap.a_rel.Db.ranges;
            a_ops = Array.copy ap.a_ops;
            a_calib = calib_of p i;
            a_current = Db.holds p.cdb ap.a_rel })
        p.atoms
    in
    { i_feasible = p.feasible;
      i_slots = Array.init (Interner.size p.vars) (Interner.get p.vars);
      i_pool = Interner.size p.cdb.Db.pool;
      i_env = Array.copy p.init_env;
      i_atoms = atoms;
      i_order = Array.copy p.order;
      i_compiled_version = p.compiled_at;
      i_store_version = p.cdb.Db.db_version;
      i_live_version = Database.version p.src_db }

  (* ---- the cardinality-feedback view, as plain data ----------------- *)

  type feedback_atom = {
    f_atom : int;        (* plan atom index *)
    f_contexts : int;    (* probe contexts this atom was selected in *)
    f_probed : int;      (* candidate rows probed across those contexts *)
    f_survived : int;    (* rows surviving all checks (matches) *)
    f_rows : int;        (* stored relation rows, for the sound E026 bound *)
    f_score : float;     (* static selectivity estimate, log10 *)
    f_calib : float;     (* feedback calibration applied on top, log10 *)
  }

  type feedback_view = {
    f_atoms : feedback_atom array;
    f_runs : int;            (* completed enumerations *)
    f_top : int option;      (* the top-level atom select_first would choose *)
    f_threshold : float;     (* drift threshold in force, log10 decades *)
    f_min_probed : int;      (* evidence floor in force *)
    f_costed_at : int;       (* stats epoch the calibration was costed at *)
    f_compiled_version : int;
    f_store_version : int;
    f_live_version : int;
  }

  (* The counters are read from the plan's accumulator (zero if the plan
     never ran); estimates come from the same [atom_score] the reorder pass
     sorts by, so the drift audit compares exactly what chose the order
     against exactly what the run observed. *)
  let feedback (p : t) =
    let get arr i = if i < Array.length arr then arr.(i) else 0 in
    let atoms =
      Array.mapi
        (fun i (ap : atom_plan) ->
          { f_atom = i;
            f_contexts =
              (match p.feedback with
              | Some fb -> get fb.fb_contexts i
              | None -> 0);
            f_probed =
              (match p.feedback with
              | Some fb -> get fb.fb_probed i
              | None -> 0);
            f_survived =
              (match p.feedback with
              | Some fb -> get fb.fb_survived i
              | None -> 0);
            f_rows = ap.a_rel.Db.nrows;
            f_score = atom_score ap;
            f_calib = calib_of p i })
        p.atoms
    in
    { f_atoms = atoms;
      f_runs = (match p.feedback with Some fb -> fb.fb_runs | None -> 0);
      f_top =
        (match select_first p with
        | None -> None
        | Some fc -> Some p.order.(fc.fc_pos));
      f_threshold = drift_threshold ();
      f_min_probed = drift_min_probed ();
      f_costed_at = p.costed_at;
      f_compiled_version = p.compiled_at;
      f_store_version = p.cdb.Db.db_version;
      f_live_version = Database.version p.src_db }

  (* ---- the parallel execution plan, as plain data ------------------ *)

  type shared_kind =
    | Atomic_cell
    | Chunk_local

  type shared_view = { s_name : string; s_kind : shared_kind }

  type write_view = { w_site : string; w_target : string; w_owner_only : bool }

  type reducer_view = { r_primitive : string; r_merge : string }

  type par_view = {
    pv_domains : int;
    pv_min_rows : int;
    pv_morsel_rows : int;
    pv_atom : int option;
    pv_rows : int;
    pv_sequential : bool;
    pv_reason : string;
    pv_chunks : (int * int) array;
    pv_reducers : reducer_view array;
    pv_shared : shared_view array;
    pv_writes : write_view array;
    pv_snapshots : (int * int * int) array;
  }

  (* The genuine view is re-derived from the same pure functions the runtime
     partitions with (select_first via Parallel.decision, nchunks_for,
     chunk_bounds), so auditing it certifies the decision the region will
     actually take — not a description that could drift. *)
  let par (p : t) =
    let d = Parallel.decision p in
    let chunks = Parallel.chunk_bounds d.Parallel.d_rows d.Parallel.d_chunks in
    (* the plan's one region primitive: enumeration and first-match run
       sequentially *)
    let reducers = [| { r_primitive = "count"; r_merge = "sum" } |] in
    let shared =
      [| { s_name = "chunk-dispatch-counter"; s_kind = Atomic_cell };
         { s_name = "error-slot"; s_kind = Atomic_cell };
         { s_name = "region-guard"; s_kind = Atomic_cell };
         { s_name = "chunk-counts"; s_kind = Chunk_local };
         { s_name = "feedback-cells"; s_kind = Chunk_local };
         (* the batched interpreter's columnar state is chunk-local: each
            chunk allocates and writes only its own slot columns *)
         { s_name = "batch-columns"; s_kind = Chunk_local } |]
    in
    let writes =
      [ { w_site = "chunk-dispatch";
          w_target = "chunk-dispatch-counter";
          w_owner_only = false };
        { w_site = "first-failure"; w_target = "error-slot"; w_owner_only = false };
        { w_site = "region-enter-leave";
          w_target = "region-guard";
          w_owner_only = false };
        { w_site = "count-accumulate";
          w_target = "chunk-counts";
          w_owner_only = true };
        { w_site = "feedback-accumulate";
          w_target = "feedback-cells";
          w_owner_only = true };
        { w_site = "batch-column-write";
          w_target = "batch-columns";
          w_owner_only = true } ]
    in
    (* the seeded fault is an honest part of the runtime while enabled, so
       the static view declares its cross-chunk store — and E014 flags it *)
    let writes =
      if Parallel.fault_injection_enabled () then
        writes
        @ [ { w_site = "fault-injection";
              w_target = "chunk-counts";
              w_owner_only = false } ]
      else writes
    in
    { pv_domains = d.Parallel.d_domains;
      pv_min_rows = Parallel.min_rows ();
      pv_morsel_rows = Parallel.morsel_rows ();
      pv_atom = d.Parallel.d_atom;
      pv_rows = d.Parallel.d_rows;
      pv_sequential = d.Parallel.d_chunks <= 1;
      pv_reason = d.Parallel.d_reason;
      pv_chunks = chunks;
      pv_reducers = reducers;
      pv_shared = shared;
      pv_writes = Array.of_list writes;
      pv_snapshots =
        Array.make d.Parallel.d_domains
          (p.compiled_at, p.cdb.Db.db_version, Database.version p.src_db) }

  (* ---- the batched execution layout, as plain data ------------------ *)

  type batch_stage_view = {
    bv_atom : int;                  (* plan atom index *)
    bv_checks : (int * int) array;  (* (position, interned id) *)
    bv_cols : (int * int) array;    (* (position, slot) column comparisons *)
    bv_binds : (int * int) array;   (* (position, slot) column writes *)
    bv_dups : (int * int) array;    (* (position, earlier position) *)
    bv_filter : bool;               (* mask-narrowing stage, no new columns *)
  }

  type batch_view = {
    b_morsel_rows : int;       (* configured batch group width *)
    b_stages : batch_stage_view array;  (* fixed stage order *)
    b_columns : (int * string) array;
        (* the columnar layout: every stage-bound slot and its variable *)
    b_groups : int;            (* morsel groups over the top-level range *)
  }

  (* Re-derived from [batch_stages], the same pure function the batched
     interpreter compiles its pipeline with — like [par], inspecting it
     certifies the layout the run will actually use. *)
  let batch (p : t) =
    let m = Parallel.morsel_rows () in
    match select_first p with
    | None ->
        { b_morsel_rows = m;
          b_stages = [||];
          b_columns = [||];
          b_groups = 0 }
    | Some fc ->
        let stages = batch_stages p fc in
        let columns =
          List.concat_map
            (fun st ->
              List.map
                (fun (_, s) -> (s, Interner.get p.vars s))
                (Array.to_list st.bs_binds))
            stages
        in
        { b_morsel_rows = m;
          b_stages =
            Array.of_list
              (List.map
                 (fun st ->
                   { bv_atom = st.bs_atom;
                     bv_checks = Array.copy st.bs_checks;
                     bv_cols = Array.copy st.bs_cols;
                     bv_binds = Array.copy st.bs_binds;
                     bv_dups = Array.copy st.bs_dups;
                     bv_filter = st.bs_filter })
                 stages);
          b_columns = Array.of_list columns;
          b_groups = (fc.fc_count + m - 1) / m }

  (* the optimization trail: (view of the plan before each pass, certificate)
     per stage, plus the final view — everything Analysis.Equiv needs *)
  let trail (p : t) =
    match p.provenance with
    | Compiled -> ([], plan p)
    | Optimized { stages } ->
        (List.map (fun (q, c) -> (plan q, c)) stages, plan p)

  (* the plans before each pass, aligned with [trail]'s stages; used to
     build probes for ground-drop justifications *)
  let stage_plans (p : t) =
    match p.provenance with
    | Compiled -> []
    | Optimized { stages } -> List.map fst stages

  (* the unoptimized original: what the engine falls back to when a
     certificate fails verification *)
  let base (p : t) =
    match p.provenance with
    | Compiled -> p
    | Optimized { stages } -> (
        match stages with (q, _) :: _ -> q | [] -> p)

  (* [row_matches p ~atom ~row]: the stored tuple [row] of [atom]'s relation
     satisfies the atom's (all-Check) instructions. O(arity); false for any
     out-of-range input or any atom that still reads a slot. This is the
     probe Analysis.Equiv uses to confirm Ground_matched drop claims. *)
  let row_matches (p : t) ~atom ~row =
    atom >= 0
    && atom < Array.length p.atoms
    &&
    let ap = p.atoms.(atom) in
    let tuples = ap.a_rel.Db.tuples in
    row >= 0
    && row < ap.a_rel.Db.nrows
    && Array.length tuples.(row) = Array.length ap.a_ops
    &&
    let t = tuples.(row) in
    let ok = ref true in
    Array.iteri
      (fun i op ->
        match op with
        | Check id -> if t.(i) <> id then ok := false
        | Slot _ -> ok := false)
      ap.a_ops;
    !ok
end

(* ------------------------------------------------------------------ *)
(* Boundary conversions and the public evaluator API                    *)
(* ------------------------------------------------------------------ *)

(* conversion table computed once per plan: the slots to read back and the
   variable names they decode to (init-bound names are never overwritten) *)
let conversion_table p =
  let out = ref [] in
  Interner.iter
    (fun slot x -> if not (Mapping.mem x p.init) then out := (slot, x) :: !out)
    p.vars;
  Array.of_list !out

let mapping_of_env_with p table env =
  let m = ref p.init in
  Array.iter
    (fun (slot, x) ->
      if env.(slot) >= 0 then m := Mapping.add x (value_of p env.(slot)) !m)
    table;
  !m

let mapping_of_env p env = mapping_of_env_with p (conversion_table p) env

let iter_homomorphisms db atoms ~init f =
  let p = compile db atoms ~init in
  let table = conversion_table p in
  iter_envs p (fun env -> f (mapping_of_env_with p table env))

let homomorphisms db atoms ~init =
  let out = ref [] in
  iter_homomorphisms db atoms ~init (fun h -> out := h :: !out);
  !out

exception Found of Mapping.t

(* first answer = first answer of the enumeration: runs on the sequential
   fixed-order runner so the exception exits as soon as the witness is found
   (a morsel group or a parallel region would buffer before replaying). *)
let first_homomorphism db atoms ~init =
  let p = compile db atoms ~init in
  let table = conversion_table p in
  try
    iter_envs_first p (fun env ->
        raise (Found (mapping_of_env_with p table env)));
    None
  with Found h -> Some h

let satisfiable db atoms ~init = sat (compile db atoms ~init)

(* split the projection targets into environment slots and init
   pass-throughs: (slotted vars, their slots, mapping of fixed vars) *)
let projection_frame p onto =
  let slotted =
    List.filter_map (fun x -> Option.map (fun s -> (x, s)) (slot_of p x)) onto
  in
  let fixed =
    List.fold_left
      (fun acc x ->
        if List.mem_assoc x slotted then acc
        else
          match Mapping.find x p.init with
          | Some v -> Mapping.add x v acc
          | None -> acc)
      Mapping.empty onto
  in
  ( Array.of_list (List.map fst slotted),
    Array.of_list (List.map snd slotted),
    fixed )

let distinct_projections db atoms ~init ~onto =
  let p = compile db atoms ~init in
  if not p.feasible then []
  else begin
    (* dedup happens on raw slot tuples *)
    let hvars, hslots, fixed = projection_frame p onto in
    let seen = Tuple.Tbl.create 256 in
    (* one reusable probe key; copied only when a new projection is seen *)
    let nk = Array.length hslots in
    let probe = Array.make nk 0 in
    iter_envs p (fun env ->
        for i = 0 to nk - 1 do
          probe.(i) <- env.(hslots.(i))
        done;
        if not (Tuple.Tbl.mem seen probe) then
          Tuple.Tbl.add seen (Array.copy probe) ());
    Tuple.Tbl.fold
      (fun key () acc ->
        let m = ref fixed in
        Array.iteri
          (fun i v -> m := Mapping.add hvars.(i) (value_of p v) !m)
          key;
        !m :: acc)
      seen []
  end

exception Stream_done

(* [stream_projections] emits distinct projections in first-seen enumeration
   order, skipping [offset] and stopping after [limit]: pagination without
   materializing the answer set. Deliberately sequential — the early exit is
   the point — and deduplicating on the fly, so a page costs only the
   enumeration prefix that produces it. Returns the number emitted. *)
let stream_projections db atoms ~init ~onto ~offset ~limit f =
  let p = compile db atoms ~init in
  if (not p.feasible) || limit = Some 0 then 0
  else begin
    let hvars, hslots, fixed = projection_frame p onto in
    let seen = Tuple.Tbl.create 256 in
    let nk = Array.length hslots in
    let probe = Array.make nk 0 in
    let skipped = ref 0 and emitted = ref 0 in
    (try
       iter_envs p (fun env ->
           for i = 0 to nk - 1 do
             probe.(i) <- env.(hslots.(i))
           done;
           if not (Tuple.Tbl.mem seen probe) then begin
             Tuple.Tbl.add seen (Array.copy probe) ();
             if !skipped < offset then incr skipped
             else begin
               let m = ref fixed in
               Array.iteri
                 (fun i v -> m := Mapping.add hvars.(i) (value_of p v) !m)
                 probe;
               f !m;
               incr emitted;
               match limit with
               | Some l when !emitted >= l -> raise Stream_done
               | _ -> ()
             end
           end)
     with Stream_done -> ());
    !emitted
  end

(* ------------------------------------------------------------------ *)
(* Interned relations (for hash-based semijoin trees)                   *)
(* ------------------------------------------------------------------ *)

module Rel = struct
  type t = {
    vars : string array;  (* sorted, no duplicates *)
    mutable rows : Tuple.t list;
    mutable count : int;
  }

  let vars r = Array.to_list r.vars
  let var_set r = String_set.of_list (Array.to_list r.vars)
  let cardinal r = r.count
  let is_empty r = r.count = 0
  let unit = { vars = [||]; rows = [ [||] ]; count = 1 }

  let make vars rows =
    let seen = Tuple.Tbl.create (max 16 (List.length rows)) in
    let distinct =
      List.filter
        (fun t ->
          if Tuple.Tbl.mem seen t then false
          else begin
            Tuple.Tbl.add seen t ();
            true
          end)
        rows
    in
    { vars; rows = distinct; count = List.length distinct }

  (* distinct projections of the facts matching [atom] onto its (sorted)
     variables, computed by a single-atom plan *)
  let of_atom db atom =
    let p = compile db [ atom ] ~init:Mapping.empty in
    let vs = Array.of_list (List.sort String.compare (Atom.vars atom)) in
    if not p.feasible then { vars = vs; rows = []; count = 0 }
    else begin
      let slots =
        Array.map
          (fun x ->
            match slot_of p x with
            | Some s -> s
            | None -> assert false (* every variable of the atom has a slot *))
          vs
      in
      let seen = Tuple.Tbl.create 64 in
      let nk = Array.length slots in
      let probe = Array.make nk 0 in
      iter_envs p (fun env ->
          for i = 0 to nk - 1 do
            probe.(i) <- env.(slots.(i))
          done;
          if not (Tuple.Tbl.mem seen probe) then
            Tuple.Tbl.add seen (Array.copy probe) ());
      let rows = Tuple.Tbl.fold (fun t () acc -> t :: acc) seen [] in
      { vars = vs; rows; count = List.length rows }
    end

  (* positions of [xs] inside [r.vars] *)
  let positions r xs =
    Array.map
      (fun x ->
        let rec find i =
          if i >= Array.length r.vars then
            invalid_arg "Engine.Rel: variable not present"
          else if String.equal r.vars.(i) x then i
          else find (i + 1)
        in
        find 0)
      xs

  let shared_vars r s =
    let in_s x = Array.exists (String.equal x) s.vars in
    Array.of_list (List.filter in_s (Array.to_list r.vars))

  let key_of positions t = Array.map (fun p -> t.(p)) positions

  let semijoin r s =
    let shared = shared_vars r s in
    let pr = positions r shared and ps = positions s shared in
    let keys = Tuple.Tbl.create (max 16 s.count) in
    List.iter
      (fun t ->
        let k = key_of ps t in
        if not (Tuple.Tbl.mem keys k) then Tuple.Tbl.add keys k ())
      s.rows;
    let keep t = Tuple.Tbl.mem keys (key_of pr t) in
    (* chunk-parallel filter: [keys] is only read inside the region, so
       sharing the table across domains is safe; per-chunk results are
       concatenated in chunk order to keep the row order deterministic *)
    let filter_chunks () =
      let arr = Array.of_list r.rows in
      fun ~lo ~hi _ ->
        let out = ref [] in
        for j = hi - 1 downto lo do
          if keep arr.(j) then out := arr.(j) :: !out
        done;
        !out
    in
    let rows =
      match Parallel.region ~rows:r.count ~fb_atoms:0 filter_chunks with
      | Some (parts, _) -> List.concat (Array.to_list parts)
      | None -> List.filter keep r.rows
    in
    { r with rows; count = List.length rows }

  let join r s =
    let small, large = if r.count <= s.count then (r, s) else (s, r) in
    let shared = shared_vars large small in
    let pl = positions large shared and psm = positions small shared in
    let idx = Tuple.Tbl.create (max 16 small.count) in
    List.iter
      (fun t ->
        let k = key_of psm t in
        match Tuple.Tbl.find_opt idx k with
        | Some cell -> cell := t :: !cell
        | None -> Tuple.Tbl.add idx k (ref [ t ]))
      small.rows;
    let out_vars =
      Array.of_list
        (List.sort_uniq String.compare
           (Array.to_list r.vars @ Array.to_list s.vars))
    in
    (* each output position reads from the large row or the small row *)
    let from_large =
      Array.map
        (fun x ->
          let rec find i =
            if i >= Array.length large.vars then None
            else if String.equal large.vars.(i) x then Some i
            else find (i + 1)
          in
          find 0)
        out_vars
    in
    let small_pos =
      Array.map
        (fun x ->
          let rec find i =
            if i >= Array.length small.vars then -1
            else if String.equal small.vars.(i) x then i
            else find (i + 1)
          in
          find 0)
        out_vars
    in
    let seen = Tuple.Tbl.create 64 in
    List.iter
      (fun tl ->
        match Tuple.Tbl.find_opt idx (key_of pl tl) with
        | None -> ()
        | Some cell ->
            List.iter
              (fun ts ->
                let out =
                  Array.init (Array.length out_vars) (fun i ->
                      match from_large.(i) with
                      | Some p -> tl.(p)
                      | None -> ts.(small_pos.(i)))
                in
                if not (Tuple.Tbl.mem seen out) then Tuple.Tbl.add seen out ())
              !cell)
      large.rows;
    let rows = Tuple.Tbl.fold (fun t () acc -> t :: acc) seen [] in
    { vars = out_vars; rows; count = List.length rows }

  let project keep r =
    let kept =
      Array.of_list
        (List.filter (fun x -> String_set.mem x keep) (Array.to_list r.vars))
    in
    if Array.length kept = Array.length r.vars then r
    else begin
      let pos = positions r kept in
      let seen = Tuple.Tbl.create (max 16 r.count) in
      List.iter
        (fun t ->
          let k = key_of pos t in
          if not (Tuple.Tbl.mem seen k) then Tuple.Tbl.add seen k ())
        r.rows;
      let rows = Tuple.Tbl.fold (fun t () acc -> t :: acc) seen [] in
      { vars = kept; rows; count = List.length rows }
    end

  let to_mappings db r =
    let cdb = Db.of_database db in
    List.map
      (fun t ->
        let m = ref Mapping.empty in
        Array.iteri
          (fun i x -> m := Mapping.add x (Interner.get cdb.Db.pool t.(i)) !m)
          r.vars;
        !m)
      r.rows
end

(* ------------------------------------------------------------------ *)
(* Delta evaluation: net change batches over the modification log       *)
(* ------------------------------------------------------------------ *)

module Delta = struct
  type batch = {
    from_version : int;
    to_version : int;
    added : Fact.t list;
    removed : Fact.t list;
  }

  let batch db ~since =
    let added, removed = Database.net_changes db since in
    { from_version = since; to_version = Database.version db; added; removed }

  let is_empty b = b.added = [] && b.removed = []

  type index = {
    i_added : Fact.Set.t;
    i_removed : Fact.Set.t;
    i_added_by_rel : (string, Fact.t list) Hashtbl.t;  (* oldest first *)
  }

  let index b =
    let by_rel = Hashtbl.create 8 in
    List.iter
      (fun f ->
        let r = Fact.rel f in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_rel r) in
        Hashtbl.replace by_rel r (f :: prev))
      (List.rev b.added);
    { i_added = Fact.Set.of_list b.added;
      i_removed = Fact.Set.of_list b.removed;
      i_added_by_rel = by_rel }

  let mem_added idx f = Fact.Set.mem f idx.i_added
  let mem_removed idx f = Fact.Set.mem f idx.i_removed

  let added_of idx rel =
    Option.value ~default:[] (Hashtbl.find_opt idx.i_added_by_rel rel)

  type dirty_range = {
    dr_atom : int;
    dr_rel : string;
    dr_pos : int;
    dr_values : Value.t list;  (* distinct, ascending *)
  }

  let dirty_ranges atoms b =
    let touched : (string * int, Value.Set.t ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let note f =
      List.iteri
        (fun i v ->
          match Hashtbl.find_opt touched (Fact.rel f, i) with
          | Some s -> s := Value.Set.add v !s
          | None -> Hashtbl.add touched (Fact.rel f, i) (ref (Value.Set.singleton v)))
        (Fact.tuple f)
    in
    List.iter note b.added;
    List.iter note b.removed;
    List.concat
      (List.mapi
         (fun ai a ->
           let rel = Atom.rel a in
           List.filter_map
             (fun pos ->
               match Hashtbl.find_opt touched (rel, pos) with
               | Some s ->
                   Some
                     { dr_atom = ai;
                       dr_rel = rel;
                       dr_pos = pos;
                       dr_values = Value.Set.elements !s }
               | None -> None)
             (List.init (Atom.arity a) Fun.id))
         atoms)

  (* Scoped re-run for the backtracking path: enumerate homomorphisms of
     [atoms] extending [init] where the atom at index [pivot] maps onto a
     *net-added* fact of the batch. Every genuinely new homomorphism of the
     pattern uses at least one added fact, so ranging the pivot over the
     atom list covers all of them; the remaining atoms run against the full
     (current) database via the counted indexes. *)
  let iter_pivot_homs db atoms ~pivot idx ~init yield =
    match List.nth_opt atoms pivot with
    | None -> invalid_arg "Engine.Delta.iter_pivot_homs: pivot out of range"
    | Some pa ->
        let rest = List.filteri (fun i _ -> i <> pivot) atoms in
        let rec solve h = function
          | [] -> yield h
          | a :: more ->
              List.iter
                (fun h' -> solve h' more)
                (Database.matches db a h)
        in
        List.iter
          (fun f ->
            match Mapping.matches_fact init pa f with
            | Some h0 -> solve h0 rest
            | None -> ())
          (added_of idx (Atom.rel pa))
end
