(* Translation validation of optimization-pass certificates.

   The optimizer is untrusted: each pass emits a plain-data certificate (the
   before -> after slot and atom maps plus the facts justifying each rewrite)
   and this module re-derives every claim from the before/after IR views in
   O(plan). A rewrite the checker cannot justify produces an E-series
   diagnostic (E007-E010) and the whole optimized plan is rejected.
   Evaluation does not call this module; Engine.compile runs the optimized
   plan as it is.

   The only check that needs more than the two views is a Ground_matched
   atom drop ("this all-Check atom is satisfied by stored row r"): views
   deliberately carry no tuples, so the claim is confirmed through an
   O(arity) probe into the before plan (Engine.Inspect.row_matches). With no
   probe available — view-only corruption tests — such drops are
   conservatively rejected. *)

module I = Engine.Inspect

let op_string = function
  | Engine.Check id -> Printf.sprintf "check#%d" id
  | Engine.Slot s -> Printf.sprintf "slot %d" s

let e010 pass field detail =
  Diagnostic.make
    ~witness:(Diagnostic.Cert { pass; field; detail })
    Diagnostic.Cert_mismatch
    (Printf.sprintf "pass %s: certificate %s mismatch: %s" pass field detail)

let e007 pass slot variable target msg =
  Diagnostic.make
    ~witness:(Diagnostic.Renamed { pass; slot; variable; target })
    Diagnostic.Slot_renaming msg

let e008 pass atom pos before after msg =
  Diagnostic.make
    ~witness:(Diagnostic.Dropped { pass; atom; pos; before; after })
    Diagnostic.Dropped_check msg

let e009 pass position atom detail msg =
  Diagnostic.make
    ~witness:(Diagnostic.Reordered { pass; position; atom; detail })
    Diagnostic.Reorder_violation msg

let score_of (av : I.atom_view) =
  Engine.selectivity ~rows:av.I.a_rows ~dcounts:av.I.a_dcounts av.I.a_ops

let close a b =
  (a = neg_infinity && b = neg_infinity) || Float.abs (a -. b) <= 1e-6

(* an injective map from [0, n) into [0, n') hitting every target exactly
   once; -1 entries are drops *)
let check_map pass field map targets acc =
  let hit = Array.make (max 1 targets) 0 in
  let acc = ref acc in
  Array.iteri
    (fun src dst ->
      if dst < -1 || dst >= targets then
        acc :=
          e010 pass field
            (Printf.sprintf "entry %d maps to %d, after plan has %d" src dst
               targets)
          :: !acc
      else if dst >= 0 then hit.(dst) <- hit.(dst) + 1)
    map;
  for dst = 0 to targets - 1 do
    if hit.(dst) <> 1 then
      acc :=
        e010 pass field
          (Printf.sprintf "after entry %d is the image of %d before entries"
             dst hit.(dst))
        :: !acc
  done;
  !acc

(* structural coherence of the certificate with the two views: everything
   that later checks would crash on if it were wrong. Any finding here stops
   verification of this step. *)
let check_structure pass ~(before : I.view) ~(after : I.view)
    (c : Engine.cert) =
  let acc = ref [] in
  if Array.length c.Engine.cert_slot_map <> Array.length before.i_slots then
    acc :=
      e010 pass "slot-map"
        (Printf.sprintf "%d entries, before plan has %d slot(s)"
           (Array.length c.Engine.cert_slot_map)
           (Array.length before.i_slots))
      :: !acc;
  if Array.length c.Engine.cert_atom_map <> Array.length before.i_atoms then
    acc :=
      e010 pass "atom-map"
        (Printf.sprintf "%d entries, before plan has %d atom(s)"
           (Array.length c.Engine.cert_atom_map)
           (Array.length before.i_atoms))
      :: !acc;
  if !acc <> [] then List.rev !acc
  else begin
    let acc =
      check_map pass "slot-map" c.Engine.cert_slot_map
        (Array.length after.i_slots) []
    in
    let acc =
      check_map pass "atom-map" c.Engine.cert_atom_map
        (Array.length after.i_atoms) acc
    in
    let acc = ref acc in
    if before.i_pool <> after.i_pool then
      acc :=
        e010 pass "pool"
          (Printf.sprintf "interner pool changed: %d -> %d" before.i_pool
             after.i_pool)
        :: !acc;
    if before.i_feasible <> after.i_feasible then
      acc :=
        e010 pass "feasible"
          (Printf.sprintf "feasibility changed: %b -> %b" before.i_feasible
             after.i_feasible)
        :: !acc;
    if before.i_compiled_version <> after.i_compiled_version then
      acc :=
        e010 pass "version"
          (Printf.sprintf "compiled version changed: %d -> %d"
             before.i_compiled_version after.i_compiled_version)
        :: !acc;
    if Array.length c.Engine.cert_scores <> Array.length after.i_atoms then
      acc :=
        e010 pass "scores"
          (Printf.sprintf "%d claimed score(s), after plan has %d atom(s)"
             (Array.length c.Engine.cert_scores)
             (Array.length after.i_atoms))
      :: !acc
    else
      Array.iteri
        (fun j claimed ->
          let actual = score_of after.i_atoms.(j) in
          if not (close claimed actual) then
            acc :=
              e010 pass "scores"
                (Printf.sprintf
                   "claimed score %.6f for after atom %d, recomputed %.6f"
                   claimed j actual)
              :: !acc)
        c.Engine.cert_scores;
    List.rev !acc
  end

(* E007: slot identity. A mapped slot must keep its variable name and its
   initial binding; a dropped slot must be touched by no before instruction
   (then dropping it cannot change read-back: init-bound names come from the
   init mapping, untouched unbound slots never hold a value). *)
let check_slots pass ~(before : I.view) ~(after : I.view) (c : Engine.cert)
    acc =
  let env v s = if s < Array.length v.I.i_env then v.I.i_env.(s) else -1 in
  let touched = Array.make (max 1 (Array.length before.i_slots)) false in
  Array.iter
    (fun (av : I.atom_view) ->
      Array.iter
        (function
          | Engine.Slot s when s >= 0 && s < Array.length touched ->
              touched.(s) <- true
          | _ -> ())
        av.I.a_ops)
    before.i_atoms;
  let acc = ref acc in
  Array.iteri
    (fun s t ->
      let x = before.i_slots.(s) in
      if t >= 0 then begin
        if not (String.equal x after.i_slots.(t)) then
          acc :=
            e007 pass s x t
              (Printf.sprintf
                 "slot %d (?%s) mapped to slot %d, which names ?%s" s x t
                 after.i_slots.(t))
            :: !acc;
        if env before s <> env after t then
          acc :=
            e007 pass s x t
              (Printf.sprintf
                 "slot %d (?%s): initial binding changed (%d -> %d) across \
                  the map to slot %d"
                 s x (env before s) (env after t) t)
            :: !acc
      end
      else if touched.(s) then
        acc :=
          e007 pass s x (-1)
            (Printf.sprintf
               "slot %d (?%s) dropped although an instruction still touches it"
               s x)
          :: !acc)
    c.Engine.cert_slot_map;
  !acc

(* E008 (and more E007/E010): instruction preservation. Mapped atoms must
   keep their relation and every instruction modulo the slot map, except a
   Slot -> Check rewrite justified by the before plan's initial binding
   (constant folding). Dropped atoms need a surviving exact duplicate or a
   probe-confirmed stored-row witness. *)
let check_atoms pass ~(before : I.view) ~(after : I.view) ~probe
    (c : Engine.cert) acc =
  let acc = ref acc in
  let fold_listed s id =
    Array.exists (fun (s', id') -> s' = s && id' = id) c.Engine.cert_folds
  in
  (* every listed fold must be real: the slot really carries that binding *)
  Array.iter
    (fun (s, id) ->
      let bound =
        s >= 0
        && s < Array.length before.i_env
        && before.i_env.(s) = id
      in
      if not bound then
        acc :=
          e010 pass "folds"
            (Printf.sprintf
               "claims slot %d folds to id %d, but its initial binding is %d"
               s id
               (if s >= 0 && s < Array.length before.i_env then
                  before.i_env.(s)
                else -1))
          :: !acc)
    c.Engine.cert_folds;
  (* every listed drop must concern an atom the map actually drops *)
  Array.iter
    (fun (i, _) ->
      if
        i < 0
        || i >= Array.length c.Engine.cert_atom_map
        || c.Engine.cert_atom_map.(i) >= 0
      then
        acc :=
          e010 pass "drops"
            (Printf.sprintf "claims atom %d was dropped, but the map keeps it"
               i)
          :: !acc)
    c.Engine.cert_drops;
  Array.iteri
    (fun i j ->
      let bav = before.i_atoms.(i) in
      if j >= 0 then begin
        let aav = after.i_atoms.(j) in
        if
          (not (String.equal bav.I.a_rel aav.I.a_rel))
          || bav.I.a_arity <> aav.I.a_arity
          || bav.I.a_rows <> aav.I.a_rows
        then
          acc :=
            e010 pass "atom-map"
              (Printf.sprintf
                 "atom %d (%s/%d, %d rows) mapped to atom %d (%s/%d, %d rows)"
                 i bav.I.a_rel bav.I.a_arity bav.I.a_rows j aav.I.a_rel
                 aav.I.a_arity aav.I.a_rows)
            :: !acc
        else if Array.length bav.I.a_ops <> Array.length aav.I.a_ops then
          acc :=
            e010 pass "atom-map"
              (Printf.sprintf "atom %d: %d instruction(s) became %d" i
                 (Array.length bav.I.a_ops)
                 (Array.length aav.I.a_ops))
            :: !acc
        else
          Array.iteri
            (fun pos bop ->
              let aop = aav.I.a_ops.(pos) in
              match (bop, aop) with
              | Engine.Check b, Engine.Check a ->
                  if b <> a then
                    acc :=
                      e008 pass i pos (op_string bop) (op_string aop)
                        (Printf.sprintf
                           "atom %d pos %d: check constant changed (#%d -> \
                            #%d)"
                           i pos b a)
                      :: !acc
              | Engine.Slot s, Engine.Slot s' ->
                  let mapped =
                    s >= 0
                    && s < Array.length c.Engine.cert_slot_map
                    && c.Engine.cert_slot_map.(s) = s'
                  in
                  if not mapped then
                    acc :=
                      e007 pass s
                        (if s >= 0 && s < Array.length before.i_slots then
                           before.i_slots.(s)
                         else "?")
                        s'
                        (Printf.sprintf
                           "atom %d pos %d: slot %d rewritten to slot %d \
                            against the slot map"
                           i pos s s')
                      :: !acc
              | Engine.Slot s, Engine.Check id ->
                  let justified =
                    s >= 0
                    && s < Array.length before.i_env
                    && before.i_env.(s) = id
                  in
                  if not justified then
                    acc :=
                      e008 pass i pos (op_string bop) (op_string aop)
                        (Printf.sprintf
                           "atom %d pos %d: slot %d folded to #%d without a \
                            matching initial binding"
                           i pos s id)
                      :: !acc
                  else if not (fold_listed s id) then
                    acc :=
                      e010 pass "folds"
                        (Printf.sprintf
                           "atom %d pos %d folds slot %d to #%d, but the \
                            certificate does not record it"
                           i pos s id)
                      :: !acc
              | Engine.Check id, Engine.Slot s' ->
                  acc :=
                    e008 pass i pos (op_string bop) (op_string aop)
                      (Printf.sprintf
                         "atom %d pos %d: check #%d weakened to slot %d" i pos
                         id s')
                    :: !acc)
            bav.I.a_ops
      end
      else begin
        (* dropped atom: demand a justification and verify it *)
        match
          Array.fold_left
            (fun found (i', why) ->
              match found with Some _ -> found | None -> if i' = i then Some why else None)
            None c.Engine.cert_drops
        with
        | None ->
            acc :=
              e008 pass i (-1)
                (Format.asprintf "%a" Relational.Atom.pp bav.I.a_atom)
                "(dropped)"
                (Printf.sprintf "atom %d dropped without justification" i)
              :: !acc
        | Some (Engine.Duplicate_of k) ->
            let ok =
              k >= 0
              && k < Array.length before.i_atoms
              && k <> i
              && c.Engine.cert_atom_map.(k) >= 0
              &&
              let kav = before.i_atoms.(k) in
              String.equal kav.I.a_rel bav.I.a_rel
              && kav.I.a_arity = bav.I.a_arity
              && kav.I.a_rows = bav.I.a_rows
              && kav.I.a_ops = bav.I.a_ops
            in
            if not ok then
              acc :=
                e008 pass i (-1)
                  (Format.asprintf "%a" Relational.Atom.pp bav.I.a_atom)
                  (Printf.sprintf "(claimed duplicate of atom %d)" k)
                  (Printf.sprintf
                     "atom %d dropped as a duplicate of atom %d, which is \
                      not a surviving exact duplicate"
                     i k)
                :: !acc
        | Some (Engine.Ground_matched row) ->
            let is_ground = Engine.ground bav.I.a_ops in
            let confirmed =
              is_ground
              &&
              match probe with
              | Some f -> f ~atom:i ~row
              | None -> false
            in
            if not confirmed then
              acc :=
                e008 pass i (-1)
                  (Format.asprintf "%a" Relational.Atom.pp bav.I.a_atom)
                  (Printf.sprintf "(claimed matched by stored row %d)" row)
                  (Printf.sprintf
                     "atom %d dropped as ground-matched by row %d, but the \
                      claim %s"
                     i row
                     (if is_ground then
                        "could not be confirmed against the stored relation"
                      else "concerns an atom that still reads slots"))
                :: !acc
      end)
    c.Engine.cert_atom_map;
  !acc

(* E009: order discipline. A non-reordering pass must preserve the static
   order modulo the atom map; check-hoist must be exactly the stable
   ground-first partition of it; any other reordering pass must leave the
   order fully sorted by the (ground, selectivity) key. *)
let check_order pass ~(before : I.view) ~(after : I.view) (c : Engine.cert)
    acc =
  let n = Array.length after.i_atoms in
  let order = after.i_order in
  let acc = ref acc in
  let perm_ok =
    Array.length order = n
    && begin
         let seen = Array.make (max 1 n) false in
         Array.for_all
           (fun ai ->
             if ai < 0 || ai >= n || seen.(ai) then false
             else begin
               seen.(ai) <- true;
               true
             end)
           order
       end
  in
  if not perm_ok then
    acc :=
      e009 pass (-1) (-1) "not-a-permutation"
        (Printf.sprintf
           "after static order (%d entries) is not a permutation of %d atom(s)"
           (Array.length order) n)
      :: !acc
  else begin
    let mapped_before =
      List.filter_map
        (fun ai ->
          if ai >= 0 && ai < Array.length c.Engine.cert_atom_map
             && c.Engine.cert_atom_map.(ai) >= 0
          then Some c.Engine.cert_atom_map.(ai)
          else None)
        (Array.to_list before.i_order)
    in
    let expect expected detail =
      let actual = Array.to_list order in
      if actual <> expected then begin
        (* name the first divergent position *)
        let rec diverge k xs ys =
          match (xs, ys) with
          | x :: xs', y :: ys' -> if x <> y then (k, x) else diverge (k + 1) xs' ys'
          | x :: _, [] -> (k, x)
          | _ -> (k, -1)
        in
        let position, atom = diverge 0 actual expected in
        acc :=
          e009 pass position atom detail
            (Printf.sprintf
               "pass %s: static order diverges at position %d (atom %d): %s"
               pass position atom detail)
          :: !acc
      end
    in
    if not c.Engine.cert_reorders then
      expect mapped_before "non-reordering pass changed the static order"
    else if String.equal pass "check-hoist" then begin
      let g, ng =
        List.partition
          (fun ai -> Engine.ground after.i_atoms.(ai).I.a_ops)
          mapped_before
      in
      expect (g @ ng) "not the stable ground-first partition of the prior order"
    end
    else begin
      (* a full reorder must leave the (ground, selectivity) invariant *)
      let key ai =
        let av = after.i_atoms.(ai) in
        Engine.order_key ~rows:av.I.a_rows ~dcounts:av.I.a_dcounts av.I.a_ops
      in
      for k = 0 to n - 2 do
        if compare (key order.(k)) (key (order.(k + 1))) > 0 then
          acc :=
            e009 pass k order.(k)
              "order not sorted by the (ground, selectivity) key"
              (Printf.sprintf
                 "pass %s: atom %d at position %d has a larger key than its \
                  successor"
                 pass order.(k) k)
            :: !acc
      done
    end
  end;
  !acc

let verify_step ?probe ~(before : I.view) ~(after : I.view) (c : Engine.cert)
    =
  let pass = c.Engine.cert_pass in
  match check_structure pass ~before ~after c with
  | _ :: _ as structural -> structural
  | [] ->
      List.rev
        (check_order pass ~before ~after c
           (check_atoms pass ~before ~after ~probe c
              (check_slots pass ~before ~after c [])))

(* ---- whole-trail verification ------------------------------------------ *)

type step_report = {
  sr_pass : string;
  sr_cert : Engine.cert;
  sr_before : I.view;
  sr_after : I.view;
  sr_diagnostics : Diagnostic.t list;
}

type report = { r_steps : step_report list; r_verified : bool }

let verify_trail p =
  let stages, final = I.trail p in
  let plans = I.stage_plans p in
  let rec go stages plans acc =
    match stages with
    | [] -> List.rev acc
    | (before, cert) :: rest ->
        let after = match rest with (v, _) :: _ -> v | [] -> final in
        let probe =
          match plans with
          | q :: _ -> Some (fun ~atom ~row -> I.row_matches q ~atom ~row)
          | [] -> None
        in
        let ds = verify_step ?probe ~before ~after cert in
        let plans = match plans with _ :: t -> t | [] -> [] in
        go rest plans
          ({ sr_pass = cert.Engine.cert_pass;
             sr_cert = cert;
             sr_before = before;
             sr_after = after;
             sr_diagnostics = ds }
          :: acc)
  in
  let steps = go stages plans [] in
  { r_steps = steps;
    r_verified = List.for_all (fun s -> s.sr_diagnostics = []) steps }

let diagnostics r = List.concat_map (fun s -> s.sr_diagnostics) r.r_steps

(* ---- rendering --------------------------------------------------------- *)

let cert_summary (c : Engine.cert) =
  let dropped_slots =
    Array.fold_left (fun n t -> if t < 0 then n + 1 else n) 0 c.Engine.cert_slot_map
  in
  let dropped_atoms =
    Array.fold_left (fun n t -> if t < 0 then n + 1 else n) 0 c.Engine.cert_atom_map
  in
  Printf.sprintf "%d fold(s), %d atom(s) dropped, %d slot(s) dropped%s"
    (Array.length c.Engine.cert_folds)
    dropped_atoms dropped_slots
    (if c.Engine.cert_reorders then ", reorders" else "")

let drop_json (i, why) =
  match why with
  | Engine.Duplicate_of j ->
      Json.Obj
        [ ("atom", Int i); ("reason", Str "duplicate-of"); ("of", Int j) ]
  | Engine.Ground_matched r ->
      Json.Obj
        [ ("atom", Int i); ("reason", Str "ground-matched"); ("row", Int r) ]

let cert_json (c : Engine.cert) =
  let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a)) in
  Json.Obj
    [ ("pass", Str c.Engine.cert_pass);
      ("reorders", Bool c.Engine.cert_reorders);
      ("slot-map", ints c.Engine.cert_slot_map);
      ("atom-map", ints c.Engine.cert_atom_map);
      ( "folds",
        List
          (Array.to_list
             (Array.map
                (fun (s, id) ->
                  Json.Obj [ ("slot", Json.Int s); ("id", Json.Int id) ])
                c.Engine.cert_folds)) );
      ("drops", List (Array.to_list (Array.map drop_json c.Engine.cert_drops)));
      ( "scores",
        List
          (Array.to_list
             (Array.map (fun f -> Json.Float f) c.Engine.cert_scores)) ) ]

let report_json r =
  Json.Obj
    [ ("verified", Bool r.r_verified);
      ( "passes",
        List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("pass", Str s.sr_pass);
                   ("verified", Bool (s.sr_diagnostics = []));
                   ("summary", Str (cert_summary s.sr_cert));
                   ("certificate", cert_json s.sr_cert);
                   ( "diagnostics",
                     List (List.map Diagnostic.to_json s.sr_diagnostics) ) ])
             r.r_steps) ) ]

let pp_report ppf r =
  if r.r_steps = [] then Format.fprintf ppf "no optimization trail@,"
  else
    List.iter
      (fun s ->
        match s.sr_diagnostics with
        | [] ->
            Format.fprintf ppf "  %-19s ok: %s@," s.sr_pass
              (cert_summary s.sr_cert)
        | ds ->
            Format.fprintf ppf "  %-19s REJECTED:@," s.sr_pass;
            List.iter
              (fun d -> Format.fprintf ppf "    %a@," Diagnostic.pp d)
              ds)
      r.r_steps;
  Format.fprintf ppf "  verdict: %s"
    (if r.r_verified then "all certificates verified"
     else "rejected — the optimized plan is not justified")
