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

  type t = {
    pool : Value.t Interner.t;
    rels : (string * int, rel) Hashtbl.t;  (* keyed by (name, arity) *)
    mutable db_version : int;  (* the Database.version the store is synced at *)
    mutable plans : plan_store;
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
        plans = No_plans }
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

(* Per-atom runtime cardinality counters. A [context] is one entry into an
   atom's candidate loop (one partial environment the atom was probed
   under), [probed] counts the candidate rows the loop considered, and
   [survived] the rows that passed every check. Counters are plain ints:
   each run owns its private record, folded into the plan's accumulator
   only once the run completed. *)
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

(* what the feedback view hands its auditor: drift beyond this many log10
   decades between an atom's static estimate and its observed per-context
   survival is E022, once at least [drift_min_probed] rows were probed *)
let drift_threshold = 2.0
let drift_min_probed = 64

type t = {
  cdb : Db.t;
  vars : string Interner.t;  (* variable name <-> slot *)
  atoms : atom_plan array;
  order : int array;         (* initial arrangement of [remaining] *)
  init_env : int array;      (* slot -> value id, -1 = unbound *)
  feasible : bool;           (* false: some atom can never match *)
  init : Mapping.t Lazy.t;   (* the binding, built on demand for read-back *)
  src_atoms : Atom.t list;   (* the compiled atom list, for inspection *)
  src_db : Database.t;       (* the database the plan was compiled against *)
  compiled_at : int;         (* database version at compile time; the cdb may
                                since have been incrementally extended *)
  mutable feedback : fb option;  (* accumulated counters of completed runs *)
  provenance : provenance;
}

(* how the plan came to be: unoptimized, rewritten by the optimization
   pipeline, or bound from a prepared plan. Each stage of an [Optimized]
   plan records the plan BEFORE that pass ran together with the pass's
   certificate, so Analysis.Equiv can replay the whole trail. A [Bound]
   plan carries no trail: [Inspect.trail] re-derives it on demand from the
   prepared base and the interned binding [ids] (one id per parameter). *)
and provenance =
  | Compiled
  | Optimized of { stages : (t * cert) list }
  | Bound of { prep : prepared; ids : int array }

(* A plan prepared for one (compiled store, atom list, bound variables): the
   pass pipeline has run once over a base plan whose bound slots hold
   parameter markers instead of ids ([param_id]), so the folded checks of
   [pr_plan] name parameters. [bind] substitutes the interned values. *)
and prepared = {
  pr_db : Database.t;
  pr_cdb : Db.t;
  pr_version : int;            (* store version the pipeline ran at *)
  pr_atoms : Atom.t list;
  pr_bound : string list;      (* the bound variables, in [bind]'s order *)
  pr_slots : int array;        (* per bound variable: its base slot, -1 when
                                  no atom mentions it *)
  pr_base : t;                 (* base plan, markers in init_env *)
  pr_plan : t;                 (* optimized plan, markers in its checks *)
  pr_subst : int array;        (* atoms of [pr_plan] with a parameter check *)
  pr_ground : int array;       (* of those, the all-Check atoms: matched by a
                                  stored row or not depending on the values *)
  pr_pairs : (int * int) array;
      (* (j, i), j < i: atoms that are equal under some binding but not
         under every one — their duplicate test waits for the values *)
  pr_table : (int * string) array Lazy.t;  (* read-back table of [pr_plan] *)
}

(* parameter [k] of a prepared plan, as it sits in a [Check] or an
   [init_env] entry: below -1, so it is neither an interned id nor the
   unbound marker *)
let param_id k = -2 - k

(* the init-independent part of a plan, cached on the compiled database
   keyed by the atom list — repeated evaluation of the same body under
   different partial bindings (the shape of every loop in lib/wdpt) pays
   for instruction selection once, and for the pass pipeline once per set
   of bound variables ([c_prepared]) *)
type core = {
  c_vars : string Interner.t;
  c_atoms : atom_plan array;  (* [||] when statically infeasible *)
  c_order : int array;        (* static atom order: ground first, then
                                 ascending selectivity score *)
  c_feasible : bool;
  mutable c_prepared : (string list * prepared) list;
      (* keyed by the bound variables, most recent first *)
}

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
  { c_vars = vars;
    c_atoms = atoms;
    c_order = order;
    c_feasible = !feasible;
    c_prepared = [] }

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

(* The unoptimized plan of [atom_list] with the variables [bound] held as
   parameters: the init_env entry of a bound slot is its parameter's marker
   ([param_id]). Also returns the slot of each bound variable, -1 for a
   variable no atom mentions (it passes through to read-back only). *)
let param_base db cdb core atom_list bound =
  let nslots = Interner.size core.c_vars in
  let init_env = Array.make (max 1 nslots) (-1) in
  let slots =
    Array.of_list
      (List.mapi
         (fun k x ->
           match Interner.find core.c_vars x with
           | None -> -1
           | Some slot ->
               init_env.(slot) <- param_id k;
               slot)
         bound)
  in
  let feasible = core.c_feasible in
  let atoms = if feasible then core.c_atoms else [||] in
  let plan =
    { cdb;
      vars = core.c_vars;
      atoms;
      order = (if feasible then core.c_order else [||]);
      init_env;
      feasible;
      init = Lazy.from_val Mapping.empty;
      src_atoms = atom_list;
      src_db = db;
      compiled_at = cdb.Db.db_version;
      feedback = None;
      provenance = Compiled }
  in
  (plan, slots)

(* ------------------------------------------------------------------ *)
(* Optimization passes                                                   *)
(* ------------------------------------------------------------------ *)

(* Each pass maps a plan to a rewritten plan plus a certificate, built only
   when forced: a prepared plan keeps none, and a bound plan's trail
   re-runs the passes on demand. Passes never mutate their input (plan
   cores are shared through the per-atom-list cache, so every changed
   array is freshly allocated) and each one is O(plan) — compile-time work
   must stay flat in |D|. *)

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
   environment (see [conversion_table]). A parameter marker folds like an
   id: the check then names the parameter, and [bind] fills in its value. *)
let pass_fold (p : t) =
  let folds = ref [] in
  let changed = ref false in
  let atoms =
    Array.map
      (fun ap ->
        let any =
          Array.exists
            (function Slot s -> p.init_env.(s) <> -1 | Check _ -> false)
            ap.a_ops
        in
        if not any then ap
        else begin
          changed := true;
          let ops =
            Array.map
              (function
                | Slot s when p.init_env.(s) <> -1 ->
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
    lazy
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

(* [p] without the atoms marked in [dead]: survivors keep their relative
   order, the static order is filtered. Returns the atom map (old -> new,
   -1 dropped) too. *)
let drop_atoms (p : t) dead =
  let atom_map = Array.make (Array.length p.atoms) (-1) in
  let nkept = ref 0 in
  Array.iteri
    (fun i d ->
      if not d then begin
        atom_map.(i) <- !nkept;
        incr nkept
      end)
    dead;
  let kept = Array.make !nkept 0 in
  Array.iteri (fun i j -> if j >= 0 then kept.(j) <- i) atom_map;
  let order = Array.make !nkept 0 and k = ref 0 in
  Array.iter
    (fun ai ->
      if atom_map.(ai) >= 0 then begin
        order.(!k) <- atom_map.(ai);
        incr k
      end)
    p.order;
  let atoms = Array.map (fun i -> p.atoms.(i)) kept in
  let src_atoms = List.filteri (fun i _ -> not dead.(i)) p.src_atoms in
  ({ p with atoms; order; src_atoms }, atom_map)

(* dead-instruction elimination: an atom that exactly duplicates an earlier
   kept atom constrains nothing new; an all-Check atom satisfied by some
   stored row (the certificate names the witness row) is always satisfied.
   Unmatched ground atoms are deliberately left in place: proving emptiness
   is O(data), and the top-level choice already kills such enumerations: an
   unmatched ground atom has zero candidates, so the smallest top-level
   candidate range is empty. On a prepared plan, a check naming a parameter
   has no index cell, so an atom holding one is never witnessed here, and
   parameters only equal themselves: both tests are completed by [bind]. *)
let pass_dead_instruction (p : t) =
  let n = Array.length p.atoms in
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
  if !drops = [] then (p, lazy (identity_cert "dead-instruction" p))
  else begin
    let dead = Array.make n true in
    List.iter (fun i -> dead.(i) <- false) !kept_rev;
    let p', atom_map = drop_atoms p dead in
    let cert =
      lazy
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
  if !all then (p, lazy (identity_cert "dead-slot" p))
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
    (p', lazy { (identity_cert "dead-slot" p') with cert_slot_map = slot_map })
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
  (p', lazy { (identity_cert "check-hoist" p') with cert_reorders = true })

(* selectivity-aware reordering: re-establish the full static-order invariant
   (ground first, ascending selectivity) that constant folding broke by
   turning Slot instructions into Checks *)
let pass_reorder (p : t) =
  let key ai = atom_key p.atoms.(ai) in
  let order =
    Array.of_list
      (List.stable_sort
         (fun a b -> compare (key a) (key b))
         (Array.to_list p.order))
  in
  let p' = if order = p.order then p else { p with order } in
  ( p',
    lazy { (identity_cert "selectivity-reorder" p') with cert_reorders = true }
  )

(* the five passes over a feasible plan: the optimized plan, and per pass
   the plan before it with its certificate, built only when forced *)
let run_passes p =
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
  (q, List.rev !stages)

let optimize p =
  match p.provenance with
  | Optimized _ | Bound _ -> p
  | Compiled ->
      if not p.feasible then p
      else begin
        let q, stages = run_passes p in
        let stages = List.map (fun (q, cert) -> (q, Lazy.force cert)) stages in
        { q with provenance = Optimized { stages } }
      end

(* ------------------------------------------------------------------ *)
(* Prepared plans: the pass pipeline once, bound per call                *)
(* ------------------------------------------------------------------ *)

(* read-back table: the slots to decode and the variable names they decode
   to (names [init] binds are never overwritten) *)
let read_back vars init =
  let out = ref [] in
  Interner.iter
    (fun slot x -> if not (Mapping.mem x init) then out := (slot, x) :: !out)
    vars;
  Array.of_list !out

let is_param = function Check id -> id < -1 | Slot _ -> false

(* from position [pos] on, [ops] and [ops'] are equal under some binding
   of the parameters (every position equal, or two checks of which one
   names a parameter), and under not every one when [differ] or some such
   check pair follows *)
let rec collides ops ops' pos differ =
  if pos = Array.length ops then differ
  else
    match (ops.(pos), ops'.(pos)) with
    | Check x, Check y when x = y -> collides ops ops' (pos + 1) differ
    | Check x, Check y when x < -1 || y < -1 -> collides ops ops' (pos + 1) true
    | Slot s, Slot s' when s = s' -> collides ops ops' (pos + 1) differ
    | _ -> false

(* [a] and [b] are equal under some binding of the parameters but not under
   every one *)
let may_collide a b =
  a.a_rel == b.a_rel
  && Array.length a.a_ops = Array.length b.a_ops
  && collides a.a_ops b.a_ops 0 false

(* Everything the passes decide from the set of bound variables is fixed
   here: fold positions, the (ground, selectivity) keys and with them the
   static and hoisted order, dead slots, value-independent duplicates and
   stored-row witnesses of constant-only ground atoms, and the read-back
   table. What the values decide is left to [bind], in O(plan). *)
let build_prepared db cdb core atom_list bound =
  let base, slots = param_base db cdb core atom_list bound in
  (* certificates are left unforced: a bound plan re-derives its trail *)
  let plan = if base.feasible then fst (run_passes base) else base in
  let n = Array.length plan.atoms in
  let with_param =
    Array.map (fun ap -> Array.exists is_param ap.a_ops) plan.atoms
  in
  let subst = ref [] and pairs = ref [] in
  for i = n - 1 downto 0 do
    if with_param.(i) then subst := i :: !subst;
    for j = i - 1 downto 0 do
      if
        (with_param.(i) || with_param.(j))
        && may_collide plan.atoms.(j) plan.atoms.(i)
      then pairs := (j, i) :: !pairs
    done
  done;
  let subst = !subst in
  { pr_db = db;
    pr_cdb = cdb;
    pr_version = cdb.Db.db_version;
    pr_atoms = atom_list;
    pr_bound = bound;
    pr_slots = slots;
    pr_base = base;
    pr_plan = plan;
    pr_subst = Array.of_list subst;
    pr_ground =
      Array.of_list (List.filter (fun i -> ground plan.atoms.(i).a_ops) subst);
    pr_pairs = Array.of_list !pairs;
    pr_table = lazy (read_back plan.vars Mapping.empty) }

(* One prepared plan per (compiled store, atom list, bound variables),
   cached on the atom list's core: [Db.sync] drops it with the cores. *)
let prepare db atom_list ~bound =
  let cdb = Db.of_database db in
  let core = core_of cdb atom_list in
  match List.assoc_opt bound core.c_prepared with
  | Some pr -> pr
  | None ->
      let pr = build_prepared db cdb core atom_list bound in
      (* one entry per distinct set of bound variables; a dumb reset bounds
         the list like the core table *)
      core.c_prepared <-
        (bound, pr)
        :: (if List.length core.c_prepared >= 32 then [] else core.c_prepared);
      pr

(* [pr] itself while its store is unchanged, else its replacement *)
let current pr =
  let cdb = Db.of_database pr.pr_db in
  if cdb == pr.pr_cdb && cdb.Db.db_version = pr.pr_version then pr
  else prepare pr.pr_db pr.pr_atoms ~bound:pr.pr_bound

(* the base plan under binding [ids] (one id per parameter): parameter
   markers become ids *)
let instantiate pr ids init =
  { pr.pr_base with
    init_env =
      Array.map (fun v -> if v < -1 then ids.(-2 - v) else v) pr.pr_base.init_env;
    init }

(* The value-dependent part of the pipeline, O(plan): substitute the ids
   into the parameter checks, then drop what only the values decide, in
   the order dead-instruction elimination would (an atom equal to an
   earlier kept one, or an all-Check atom some stored row matches). A value
   missing from the pool makes the plan infeasible, as at compile time.
   No certificate is built: [Inspect.trail] re-derives the trail. *)
let bind_with pr values init =
  let nb = Array.length pr.pr_slots in
  let ids = Array.make nb (-1) in
  let missing = ref false in
  let rec fill k = function
    | [] -> if k <> nb then invalid_arg "Engine.bind: too few values"
    | v :: rest ->
        if k >= nb then invalid_arg "Engine.bind: too many values";
        (if pr.pr_slots.(k) >= 0 then
           match Interner.find pr.pr_cdb.Db.pool v with
           | Some id -> ids.(k) <- id
           | None -> missing := true);
        fill (k + 1) rest
  in
  fill 0 values;
  let s = pr.pr_plan in
  if !missing || not s.feasible then
    { (instantiate pr ids init) with
      atoms = [||];
      order = [||];
      feasible = false }
  else begin
    let atoms =
      if Array.length pr.pr_subst = 0 then s.atoms
      else begin
        let atoms = Array.copy s.atoms in
        let subst = function
          | Check id when id < -1 -> Check ids.(-2 - id)
          | op -> op
        in
        Array.iter
          (fun i ->
            let ap = atoms.(i) in
            atoms.(i) <- { ap with a_ops = Array.map subst ap.a_ops })
          pr.pr_subst;
        atoms
      end
    in
    let p =
      { s with
        atoms;
        init;
        feedback = None;
        provenance = Bound { prep = pr; ids } }
    in
    if Array.length pr.pr_ground = 0 && Array.length pr.pr_pairs = 0 then p
    else begin
      let n = Array.length atoms in
      let dead = Array.make n false in
      for i = 0 to n - 1 do
        (* with the values in, no check names a parameter: [collides]
           from [differ = true] is plain equality *)
        let dup =
          Array.exists
            (fun (j, i') ->
              i' = i
              && (not dead.(j))
              && collides atoms.(j).a_ops atoms.(i).a_ops 0 true)
            pr.pr_pairs
        in
        if
          dup
          || Array.mem i pr.pr_ground
             && Option.is_some (ground_witness_row atoms.(i))
        then dead.(i) <- true
      done;
      if Array.exists Fun.id dead then fst (drop_atoms p dead) else p
    end
  end

let bind pr values =
  let pr = current pr in
  bind_with pr values
    (lazy
      (List.fold_left2
         (fun m x v -> Mapping.add x v m)
         Mapping.empty pr.pr_bound values))

let compile db atom_list ~init =
  let bindings = Mapping.bindings init in
  let pr = prepare db atom_list ~bound:(List.map fst bindings) in
  bind_with pr (List.map snd bindings) (Lazy.from_val init)

let value_of p id = Interner.get p.cdb.Db.pool id
let slot_of p x = Interner.find p.vars x

(* ------------------------------------------------------------------ *)
(* The top-level choice                                                 *)
(* ------------------------------------------------------------------ *)

(* The first atom of every enumeration, chosen outside the runners so the
   morsel groups can slice its candidate row sequence: at the top level the
   environment is exactly [init_env], so the selection — smallest stored
   count among bound positions of each atom in [order], strict first-wins
   minimum — is a pure function of the plan. Runs over contiguous slices of
   this row sequence, concatenated in slice order, reproduce the whole
   enumeration order exactly. Every atom's count is kept: [fixed_order]
   breaks its ties by them. *)
type first_choice = {
  fc_pos : int;          (* position of the chosen atom inside [order] *)
  fc_rows : int array;   (* candidate row indices (live prefix [fc_count]) *)
  fc_scan : bool;        (* no bound position: iterate the whole relation *)
  fc_count : int;        (* number of top-level candidates *)
  fc_costs : int array;  (* per plan atom: its top-level candidate count *)
}

let select_first p =
  let n = Array.length p.atoms in
  if not p.feasible || n = 0 then None
  else begin
    let env = p.init_env in
    let costs = Array.make n 0 in
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
      costs.(p.order.(j)) <- !cost;
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
        fc_count = !best_cost;
        fc_costs = costs }
  end

(* Commit one completed enumeration's counters into the plan: the top-level
   atom gets its single probe context (one per run), and the record is
   folded into the plan's accumulator. *)
let fb_commit p fc fb =
  let top = p.order.(fc.fc_pos) in
  if top >= 0 && top < Array.length fb.fb_contexts then
    fb.fb_contexts.(top) <- fb.fb_contexts.(top) + 1;
  fb.fb_runs <- fb.fb_runs + 1;
  match p.feedback with
  | Some dst -> fb_add dst fb
  | None -> p.feedback <- Some fb

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

(* morsel size: the batch group width of the vectorized interpreter *)
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
   tables) or one checked-mode group (replay buffering), so a per-slice
   envelope can be checked sound against it directly. The counters are
   bumped once per slice / group, not per row: measurement costs nothing on
   the hot path. *)
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
   with the most already-bound positions (constant positions count).
   Connected queries therefore always probe on at least one bound column —
   processing the remaining atoms in static order would expand a cartesian
   product whenever the selective atom (e.g. one holding an init-bound sink
   variable) sits late in the plan. A tie goes to the smaller top-level
   candidate count ([fc_costs], read off the index cells by
   [select_first]), then to the static order: an atom whose constant hits
   a hot key (R(1, ?y) with most of R under key 1) waits behind a join
   partner with as many bound positions, and then runs as a filter instead
   of expanding the hot cell once per earlier row. The order depends only
   on (plan, fc), so it is identical between the batched run and the fixed
   twin. *)
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
            (fun ((b, bs) as acc) ai ->
              let sa = score ai in
              if sa > bs || (sa = bs && fc.fc_costs.(ai) < fc.fc_costs.(b))
              then (ai, sa)
              else acc)
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
   built, so the checked replay builds them once and shares them with every
   morsel group; per group, the O(index) build would be repeated once per
   morsel and grow with the input as fast as the work it saves. *)
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
         sums over any grouping of the candidate range into morsel groups
         are identical *)
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

(* Global engine toggles are atomics, read exactly once per top-level
   enumeration, so a concurrent set_checked from another domain can never
   tear an in-flight run. *)
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
  let key i = atom_key p.atoms.(p.order.(i)) in
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
   before the caller sees any solution of the group. The dense probe
   tables are built once over the whole range and shared by every group's
   batched run, so the replay probes exactly as the unchecked run does; the
   replay runs the group twice over, so its counters are deliberately
   discarded. *)
let iter_envs_batched_checked_slice p fc ~lo ~hi f =
  sanitize_static p;
  if p.feasible && Array.length p.atoms > 0 then begin
    let group = morsel_rows () in
    let dense = dense_tables p fc ~rows:(hi - lo) in
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

(* one enumeration over the whole top-level range of [fc]: checked mode
   replays every morsel group against the scalar twin (and commits no
   counters), otherwise the run's counters are committed *)
let enum_slice p fc f =
  if Atomic.get checked then
    iter_envs_batched_checked_slice p fc ~lo:0 ~hi:fc.fc_count f
  else begin
    let fb = fb_create (Array.length p.atoms) in
    iter_envs_batched_slice p fc ~lo:0 ~hi:fc.fc_count ~fb f;
    fb_commit p fc fb
  end

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

(* [count_envs p]: the number of solutions, counted off the same
   sequential run as [iter_envs] *)
let count_envs p =
  let n = ref 0 in
  iter_envs p (fun _ -> incr n);
  !n

(* there is no domain pool: [set_domains] only keeps existing callers
   building (see engine.mli) *)
module Parallel = struct
  let set_domains (_ : int) = ()
end

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
  }

  type feedback_view = {
    f_atoms : feedback_atom array;
    f_runs : int;            (* completed enumerations *)
    f_top : int option;      (* the top-level atom select_first would choose *)
    f_threshold : float;     (* drift threshold in force, log10 decades *)
    f_min_probed : int;      (* evidence floor in force *)
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
            f_score = atom_score ap })
        p.atoms
    in
    { f_atoms = atoms;
      f_runs = (match p.feedback with Some fb -> fb.fb_runs | None -> 0);
      f_top =
        (match select_first p with
        | None -> None
        | Some fc -> Some p.order.(fc.fc_pos));
      f_threshold = drift_threshold;
      f_min_probed = drift_min_probed;
      f_compiled_version = p.compiled_at;
      f_store_version = p.cdb.Db.db_version;
      f_live_version = Database.version p.src_db }

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
    b_rows : int;              (* top-level candidate rows *)
    b_groups : int;            (* morsel groups over the top-level range *)
  }

  (* Re-derived from [batch_stages], the same pure function the batched
     interpreter compiles its pipeline with, so inspecting it certifies the
     layout the run will actually use. *)
  let batch (p : t) =
    let m = morsel_rows () in
    match select_first p with
    | None ->
        { b_morsel_rows = m;
          b_stages = [||];
          b_columns = [||];
          b_rows = 0;
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
          b_rows = fc.fc_count;
          b_groups = (fc.fc_count + m - 1) / m }

  (* the pass stages behind [p]. A bound plan re-derives them on demand:
     the five passes run over its prepared base under its binding, and the
     trail still ends at [p] itself, so verifying it checks [bind]'s
     shortcut against the passes *)
  let stages (p : t) =
    match p.provenance with
    | Compiled -> []
    | Optimized { stages } -> stages
    | Bound { prep; ids } -> (
        match (optimize (instantiate prep ids p.init)).provenance with
        | Optimized { stages } -> stages
        | Compiled | Bound _ -> [])

  (* the optimization trail: (view of the plan before each pass, certificate)
     per stage, plus the final view — everything Analysis.Equiv needs *)
  let trail (p : t) =
    (List.map (fun (q, c) -> (plan q, c)) (stages p), plan p)

  (* the plans before each pass, aligned with [trail]'s stages; used to
     build probes for ground-drop justifications *)
  let stage_plans (p : t) = List.map fst (stages p)

  (* the unoptimized original, the reference optimized plans are tested
     against *)
  let base (p : t) =
    match p.provenance with
    | Compiled -> p
    | Optimized { stages } -> (
        match stages with (q, _) :: _ -> q | [] -> p)
    | Bound { prep; ids } -> instantiate prep ids p.init

  let prepared (p : t) =
    match p.provenance with
    | Bound { prep; _ } -> Some prep
    | Compiled | Optimized _ -> None

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

(* conversion table: the slots to read back and the variable names they
   decode to, fixed at prepare time for a bound plan *)
let conversion_table p =
  match p.provenance with
  | Bound { prep; _ } -> Lazy.force prep.pr_table
  | Compiled | Optimized _ -> read_back p.vars (Lazy.force p.init)

let mapping_of_env_with p table env =
  let m = ref (Lazy.force p.init) in
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
   (a morsel group would buffer before replaying). *)
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
          match Mapping.find x (Lazy.force p.init) with
          | Some v -> Mapping.add x v acc
          | None -> acc)
      Mapping.empty onto
  in
  ( Array.of_list (List.map fst slotted),
    Array.of_list (List.map snd slotted),
    fixed )

(* the distinct tuples of [slots] over every environment of [p], deduplicated
   on raw slot tuples *)
let distinct_tuples p slots =
  let seen = Tuple.Tbl.create 64 in
  (* one reusable probe key; copied only when a new projection is seen *)
  let nk = Array.length slots in
  let probe = Array.make nk 0 in
  iter_envs p (fun env ->
      for i = 0 to nk - 1 do
        probe.(i) <- env.(slots.(i))
      done;
      if not (Tuple.Tbl.mem seen probe) then
        Tuple.Tbl.add seen (Array.copy probe) ());
  Tuple.Tbl.fold (fun key () acc -> key :: acc) seen []

let distinct_projections db atoms ~init ~onto =
  let p = compile db atoms ~init in
  if not p.feasible then []
  else begin
    let hvars, hslots, fixed = projection_frame p onto in
    List.map
      (fun key ->
        let m = ref fixed in
        Array.iteri
          (fun i v -> m := Mapping.add hvars.(i) (value_of p v) !m)
          key;
        !m)
      (distinct_tuples p hslots)
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
    if List.exists (fun t -> Array.length t <> Array.length vars) rows then
      invalid_arg "Engine.Rel.make: row width differs from the variables";
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

  (* distinct projections onto [onto] of the homomorphisms of [atoms],
     interned straight from the engine enumeration *)
  let of_atoms db atoms ~onto =
    let p = compile db atoms ~init:Mapping.empty in
    let in_atoms =
      List.fold_left
        (fun acc a -> String_set.union acc (Atom.var_set a))
        String_set.empty atoms
    in
    let vars = Array.of_list (String_set.elements (String_set.inter onto in_atoms)) in
    if not p.feasible then { vars; rows = []; count = 0 }
    else begin
      let slots =
        Array.map
          (fun x ->
            match slot_of p x with
            | Some s -> s
            | None -> assert false (* every variable of an atom has a slot *))
          vars
      in
      let rows = distinct_tuples p slots in
      { vars; rows; count = List.length rows }
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
    let rows = List.filter (fun t -> Tuple.Tbl.mem keys (key_of pr t)) r.rows in
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

  (* each variable of [xs] missing from [r] joins as a column over the
     active domain: a cross product, since it shares no variable *)
  let extend_adom db xs r =
    let pool = (Db.of_database db).Db.pool in
    let ids =
      Value.Set.fold
        (fun v acc ->
          match Interner.find pool v with Some id -> [| id |] :: acc | None -> acc)
        (Database.active_domain db) []
    in
    String_set.fold
      (fun x r -> if Array.mem x r.vars then r else join r (make [| x |] ids))
      xs r

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

  (* relation -> its net-added facts, oldest first *)
  type index = (string, Fact.t list) Hashtbl.t

  let index b =
    let by_rel = Hashtbl.create 8 in
    List.iter
      (fun f ->
        let r = Fact.rel f in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_rel r) in
        Hashtbl.replace by_rel r (f :: prev))
      (List.rev b.added);
    by_rel

  let added_of idx rel = Option.value ~default:[] (Hashtbl.find_opt idx rel)

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
