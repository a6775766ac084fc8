(* Static verification of compiled engine plans.

   The auditor runs over the inspectable IR view (Engine.Inspect.view), not
   over the abstract plan, so tests can corrupt a copy of the view and watch
   the right E-code come back. Every check is O(plan size): nothing here
   touches stored tuples, only the per-atom summary statistics the view
   carries (row counts, arities, pool size). The diagnostics mirror the
   W-series of Lint: stable code, severity, message, machine-checkable
   witness. *)

module I = Engine.Inspect

let d ?witness code message = Diagnostic.make ?witness code message

let pp_atom ppf (av : I.atom_view) =
  Format.fprintf ppf "%a" Relational.Atom.pp av.I.a_atom

(* E001: every Slot instruction must stay inside the initialized environment,
   and the environment must cover the slot table. *)
let check_slots (v : I.view) acc =
  let nenv = Array.length v.i_env in
  let acc =
    if nenv < Array.length v.i_slots then
      d
        ~witness:
          (Diagnostic.Slot_range
             { atom = -1; op = -1; slot = Array.length v.i_slots - 1; env = nenv })
        Diagnostic.Uninit_slot_read
        (Format.asprintf
           "environment has %d slot(s) but the slot table names %d variable(s): \
            reading the last slot is uninitialized"
           nenv (Array.length v.i_slots))
      :: acc
    else acc
  in
  Array.fold_left
    (fun acc (av : I.atom_view) ->
      let acc = ref acc in
      Array.iteri
        (fun oi op ->
          match op with
          | Engine.Slot s when s < 0 || s >= nenv ->
              acc :=
                d
                  ~witness:
                    (Diagnostic.Slot_range
                       { atom = av.I.a_index; op = oi; slot = s; env = nenv })
                  Diagnostic.Uninit_slot_read
                  (Format.asprintf
                     "atom %d (%a) op %d reads slot %d of a %d-slot environment"
                     av.I.a_index pp_atom av oi s nenv)
                :: !acc
          | _ -> ())
        av.I.a_ops;
      !acc)
    acc v.i_atoms

(* E002: interned ids — Check constants and initial bindings — must come from
   the pool. -1 in the initial environment means unbound and is fine. *)
let check_ids (v : I.view) acc =
  let pool = v.i_pool in
  let acc =
    Array.fold_left
      (fun acc (av : I.atom_view) ->
        let acc = ref acc in
        Array.iteri
          (fun oi op ->
            match op with
            | Engine.Check id when id < 0 || id >= pool ->
                acc :=
                  d
                    ~witness:
                      (Diagnostic.Id_range
                         { site = Printf.sprintf "atom %d op %d" av.I.a_index oi;
                           id;
                           pool })
                    Diagnostic.Interner_range
                    (Format.asprintf
                       "atom %d (%a) op %d checks interner id %d; pool has %d"
                       av.I.a_index pp_atom av oi id pool)
                  :: !acc
            | _ -> ())
          av.I.a_ops;
        !acc)
      acc v.i_atoms
  in
  let out = ref acc in
  Array.iteri
    (fun s id ->
      if id < -1 || id >= pool then
        out :=
          d
            ~witness:
              (Diagnostic.Id_range
                 { site = Printf.sprintf "init slot %d" s; id; pool })
            Diagnostic.Interner_range
            (Printf.sprintf "initial binding of slot %d is interner id %d; pool has %d"
               s id pool)
          :: !out)
    v.i_env;
  !out

(* E003: instruction count, stored arity and index count must agree. *)
let check_arities (v : I.view) acc =
  Array.fold_left
    (fun acc (av : I.atom_view) ->
      let ops = Array.length av.I.a_ops in
      if ops <> av.I.a_arity || av.I.a_index_arity <> av.I.a_arity then
        d
          ~witness:
            (Diagnostic.Plan_arity
               { atom = av.I.a_index;
                 relation = av.I.a_rel;
                 ops;
                 arity = av.I.a_arity;
                 index = av.I.a_index_arity })
          Diagnostic.Plan_arity_mismatch
          (Format.asprintf
             "atom %d (%a): %d instruction(s) against relation %s of arity %d \
              with %d per-position index(es)"
             av.I.a_index pp_atom av ops av.I.a_rel av.I.a_arity
             av.I.a_index_arity)
        :: acc
      else acc)
    acc v.i_atoms

(* E004: a slot no instruction touches and no initial binding fills would
   never be written nor read back — dead weight in the environment. *)
let check_dead_slots (v : I.view) acc =
  let n = Array.length v.i_slots in
  let touched = Array.make (max 1 n) false in
  Array.iter
    (fun (av : I.atom_view) ->
      Array.iter
        (function
          | Engine.Slot s when s >= 0 && s < n -> touched.(s) <- true
          | _ -> ())
        av.I.a_ops)
    v.i_atoms;
  let out = ref acc in
  for s = n - 1 downto 0 do
    let init_bound = s < Array.length v.i_env && v.i_env.(s) >= 0 in
    if not (touched.(s) || init_bound) then
      out :=
        d
          ~witness:(Diagnostic.Dead_slot_of { slot = s; variable = v.i_slots.(s) })
          Diagnostic.Dead_slot
          (Printf.sprintf
             "slot %d (variable %s) is never read or written by any instruction"
             s v.i_slots.(s))
        :: !out
  done;
  !out

(* E005: the static order must be a permutation sorted ascending by the
   (ground, selectivity) key — the invariant the compiler establishes and the
   selectivity-reorder pass re-establishes after constant folding. The key is
   recomputed here from the view's row counts and distinct counts, not read
   from anywhere the optimizer wrote. *)
let atom_order_key (av : I.atom_view) =
  Engine.order_key ~rows:av.I.a_rows ~dcounts:av.I.a_dcounts av.I.a_ops

let check_order (v : I.view) acc =
  let n = Array.length v.i_atoms in
  let order = v.i_order in
  let valid_perm =
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
  if not valid_perm then
    d
      ~witness:
        (Diagnostic.Inversion
           { first = -1;
             rows_first = 0;
             score_first = 0.;
             ground_first = false;
             second = -1;
             rows_second = 0;
             score_second = 0.;
             ground_second = false })
      Diagnostic.Order_inversion
      (Printf.sprintf "static order (%d entries) is not a permutation of the %d atom(s)"
         (Array.length order) n)
    :: acc
  else begin
    let out = ref acc in
    for i = n - 2 downto 0 do
      let a = order.(i) and b = order.(i + 1) in
      let ga, sa = atom_order_key v.i_atoms.(a)
      and gb, sb = atom_order_key v.i_atoms.(b) in
      if compare (ga, sa) (gb, sb) > 0 then
        out :=
          d
            ~witness:
              (Diagnostic.Inversion
                 { first = a;
                   rows_first = v.i_atoms.(a).I.a_rows;
                   score_first = sa;
                   ground_first = ga = 0;
                   second = b;
                   rows_second = v.i_atoms.(b).I.a_rows;
                   score_second = sb;
                   ground_second = gb = 0 })
            Diagnostic.Order_inversion
            (Printf.sprintf
               "static order places atom %d (%s, score %.3f) before atom %d \
                (%s, score %.3f)"
               a
               (if ga = 0 then "ground" else "non-ground")
               sa b
               (if gb = 0 then "ground" else "non-ground")
               sb)
          :: !out
    done;
    !out
  end

(* E006: three-way version discipline. A store that fell behind the live
   database is detached — the plan enumerates against missing facts (error).
   So is a plan with an atom whose relation record a removal synced after
   compile replaced by a compacted copy: the plan still reads the
   pre-removal rows (error). A store ahead of the plan's compile stamp but
   level with the live database otherwise only had insertions appended in
   place: existing rows are untouched and candidate sets only grow, so the
   plan stays sound — reported as a warning (its cached static order may no
   longer be cost-optimal). *)
let check_version (v : I.view) acc =
  if v.i_store_version < v.i_live_version then
    d
      ~witness:
        (Diagnostic.Stale
           { compiled = v.i_store_version; live = v.i_live_version })
      Diagnostic.Stale_plan
      (Printf.sprintf
         "plan compiled against database version %d; the database is at version %d"
         v.i_store_version v.i_live_version)
    :: acc
  else
    match Array.find_opt (fun (av : I.atom_view) -> not av.a_current) v.i_atoms with
    | Some av ->
        d
          ~witness:
            (Diagnostic.Stale
               { compiled = v.i_compiled_version; live = v.i_live_version })
          Diagnostic.Stale_plan
          (Printf.sprintf
             "plan compiled at database version %d; atom %d (%s) reads rows \
              that a removal synced by version %d compacted away"
             v.i_compiled_version av.I.a_index av.I.a_rel v.i_store_version)
        :: acc
    | None ->
        if v.i_compiled_version < v.i_store_version then
          { (d
               ~witness:
                 (Diagnostic.Extended
                    { compiled = v.i_compiled_version;
                      store = v.i_store_version;
                      live = v.i_live_version })
               Diagnostic.Stale_plan
               (Printf.sprintf
                  "plan compiled at database version %d; its store was \
                   incrementally extended to version %d"
                  v.i_compiled_version v.i_store_version))
            with
            severity = Diagnostic.Warning
          }
          :: acc
        else acc

let audit_view (v : I.view) =
  let acc = check_version v [] in
  if not v.i_feasible then List.rev acc
    (* an infeasible plan carries no instructions: only staleness applies *)
  else
    List.rev
      (check_order v
         (check_dead_slots v (check_arities v (check_ids v (check_slots v acc)))))

let audit p = audit_view (Engine.Inspect.plan p)

(* ---- rendering (consumed by the explain CLI) --------------------------- *)

let op_json = function
  | Engine.Check id -> Json.Obj [ ("op", Str "check"); ("id", Int id) ]
  | Engine.Slot s -> Json.Obj [ ("op", Str "slot"); ("slot", Int s) ]

let view_json (v : I.view) =
  Json.Obj
    [ ("feasible", Bool v.i_feasible);
      ( "slots",
        List
          (List.mapi
             (fun s x -> Json.Obj [ ("slot", Int s); ("variable", Str x) ])
             (Array.to_list v.i_slots)) );
      ("pool-size", Int v.i_pool);
      ( "init-env",
        List
          (List.filteri (fun s _ -> s < Array.length v.i_slots)
             (Array.to_list v.i_env)
          |> List.mapi (fun s id ->
                 Json.Obj
                   [ ("slot", Int s);
                     ("id", if id < 0 then Json.Null else Int id) ])) );
      ( "atoms",
        List
          (Array.to_list
             (Array.map
                (fun (av : I.atom_view) ->
                  Json.Obj
                    [ ("index", Int av.I.a_index);
                      ("atom", Str (Format.asprintf "%a" pp_atom av));
                      ("relation", Str av.I.a_rel);
                      ("arity", Int av.I.a_arity);
                      ("rows", Int av.I.a_rows);
                      ( "distinct",
                        List
                          (Array.to_list
                             (Array.map (fun c -> Json.Int c) av.I.a_dcounts)) );
                      ( "score",
                        Float
                          (Engine.selectivity ~rows:av.I.a_rows
                             ~dcounts:av.I.a_dcounts av.I.a_ops) );
                      ("ground", Bool (Engine.ground av.I.a_ops));
                      ("ops", List (Array.to_list (Array.map op_json av.I.a_ops))) ])
                v.i_atoms)) );
      ("order", List (Array.to_list (Array.map (fun i -> Json.Int i) v.i_order)));
      ("compiled-version", Int v.i_compiled_version);
      ("store-version", Int v.i_store_version);
      ("live-version", Int v.i_live_version) ]

let pp_op slots ppf = function
  | Engine.Check id -> Format.fprintf ppf "check#%d" id
  | Engine.Slot s ->
      if s >= 0 && s < Array.length slots then
        Format.fprintf ppf "slot %d (?%s)" s slots.(s)
      else Format.fprintf ppf "slot %d (!)" s

let pp_view ppf (v : I.view) =
  Format.fprintf ppf "feasible: %b; %d slot(s), pool of %d interned value(s)@,"
    v.i_feasible (Array.length v.i_slots) v.i_pool;
  Array.iteri
    (fun s x ->
      let bound = s < Array.length v.i_env && v.i_env.(s) >= 0 in
      Format.fprintf ppf "  slot %d = ?%s%s@," s x
        (if bound then Printf.sprintf " (init id %d)" v.i_env.(s) else ""))
    v.i_slots;
  Array.iteri
    (fun k ai ->
      let av = v.i_atoms.(ai) in
      Format.fprintf ppf "  [%d] %a  %s/%d, %d row(s), score %.3f%s: %a@," k
        pp_atom av av.I.a_rel av.I.a_arity av.I.a_rows
        (Engine.selectivity ~rows:av.I.a_rows ~dcounts:av.I.a_dcounts av.I.a_ops)
        (if Engine.ground av.I.a_ops then ", ground" else "")
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (pp_op v.i_slots))
        (Array.to_list av.I.a_ops))
    v.i_order;
  Format.fprintf ppf "  versions: compiled %d, store %d, live %d"
    v.i_compiled_version v.i_store_version v.i_live_version
