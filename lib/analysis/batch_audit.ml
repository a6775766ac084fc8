(* Static verification of the batched execution layout.

   Mirrors Plan_audit: the auditor runs over the inspectable view
   (Engine.Inspect.batch_view), not over the runtime itself, so tests can
   corrupt a copy of the view and watch the right E-code come back — while
   the genuine view is re-derived from the same pure stage compiler the
   vectorized interpreter runs, so a clean audit certifies the layout an
   actual run uses. Every check is O(plan): O(stages * arity) for the
   dataflow and cover walks, O(1) per stage for the role-consistency check,
   O(1) for the envelope comparison. *)

module I = Engine.Inspect

let d ?witness code message = Diagnostic.make ?witness code message

(* E017: a probe column (bv_cols) may only reference a slot some strictly
   earlier stage's bv_binds wrote — init-bound slots have no materialized
   column (the stage compiler folds them into constant checks), so reading
   one chases memory no stage ever filled. The witness names the stage that
   does bind the slot (null if none does), pinning the ordering bug. *)
let check_read_before_bind (v : I.view) (b : I.batch_view) acc =
  let nslots = Array.length v.I.i_slots in
  (* who ever binds each slot, for the witness *)
  let eventual = Array.make (max 1 nslots) (-1) in
  Array.iteri
    (fun k st ->
      Array.iter
        (fun (_, s) ->
          if s >= 0 && s < nslots && eventual.(s) < 0 then eventual.(s) <- k)
        st.I.bv_binds)
    b.I.b_stages;
  let bound = Array.make (max 1 nslots) false in
  let acc = ref acc in
  Array.iteri
    (fun k st ->
      Array.iter
        (fun (pos, s) ->
          if s < 0 || s >= nslots || not bound.(s) then begin
            let binder = if s >= 0 && s < nslots then eventual.(s) else -1 in
            acc :=
              d
                ~witness:
                  (Diagnostic.Read_before_bind
                     { stage = k; atom = st.I.bv_atom; pos; slot = s; binder })
                Diagnostic.Stage_read_before_bind
                (Printf.sprintf
                   "stage %d probes position %d against slot %d's column, \
                    but %s binds it%s"
                   k pos s
                   (if binder < 0 then "no stage"
                    else Printf.sprintf "only stage %d" binder)
                   (if binder < 0 then "" else " — reads must follow binds"))
              :: !acc
          end)
        st.I.bv_cols;
      Array.iter
        (fun (_, s) -> if s >= 0 && s < nslots then bound.(s) <- true)
        st.I.bv_binds)
    b.I.b_stages;
  !acc

(* E018: each slot's column has exactly one writer. A second bind would
   overwrite live values the earlier stage's survivors still read through
   their parent pointers; binding an init-bound slot means the compiler's
   constant folding was bypassed. *)
let check_aliasing (v : I.view) (b : I.batch_view) acc =
  let nslots = Array.length v.I.i_slots in
  let binder = Array.make (max 1 nslots) (-2) in
  Array.iteri (fun s id -> if id >= 0 then binder.(s) <- -1) v.I.i_env;
  let acc = ref acc in
  Array.iteri
    (fun k st ->
      Array.iter
        (fun (_, s) ->
          if s >= 0 && s < nslots then begin
            if binder.(s) >= -1 then begin
              let init = binder.(s) = -1 in
              acc :=
                d
                  ~witness:
                    (Diagnostic.Aliased
                       { slot = s;
                         first_stage = binder.(s);
                         second_stage = k;
                         init })
                  Diagnostic.Column_aliasing
                  (Printf.sprintf
                     "stage %d rebinds slot %d's column, already %s — one \
                      writer per column"
                     k s
                     (if init then "pinned by the initial environment"
                      else Printf.sprintf "written by stage %d" binder.(s)))
                :: !acc
            end
            else binder.(s) <- k
          end)
        st.I.bv_binds)
    b.I.b_stages;
  !acc

(* E019: a stage's roles (constant checks, probe columns, binds, duplicate
   positions) must cover every argument position of its stored relation —
   an uncovered position admits tuples the scalar semantics would reject
   there. *)
let check_position_cover (v : I.view) (b : I.batch_view) acc =
  let natoms = Array.length v.I.i_atoms in
  let acc = ref acc in
  Array.iteri
    (fun k st ->
      if st.I.bv_atom >= 0 && st.I.bv_atom < natoms then begin
        let arity = v.I.i_atoms.(st.I.bv_atom).I.a_arity in
        let covered = Array.make (max 1 arity) false in
        let mark (pos, _) =
          if pos >= 0 && pos < arity then covered.(pos) <- true
        in
        Array.iter mark st.I.bv_checks;
        Array.iter mark st.I.bv_cols;
        Array.iter mark st.I.bv_binds;
        Array.iter mark st.I.bv_dups;
        let n = ref 0 and missing = ref (-1) in
        for pos = arity - 1 downto 0 do
          if covered.(pos) then incr n else missing := pos
        done;
        if !n < arity then
          acc :=
            d
              ~witness:
                (Diagnostic.Cover
                   { stage = k;
                     atom = st.I.bv_atom;
                     arity;
                     covered = !n;
                     missing = !missing })
              Diagnostic.Position_cover
              (Printf.sprintf
                 "stage %d covers %d of atom %d's %d position(s): position \
                  %d has no check, probe, bind or duplicate role"
                 k !n st.I.bv_atom arity !missing)
            :: !acc
      end)
    b.I.b_stages;
  !acc

(* E020: bv_filter must equal (bv_binds = []). A "filter" that binds would
   have its writes skipped by the mask-only path; a binding-shaped stage
   with no binds materializes nothing — on the final stage its streamed
   output would then be consumed through the column read-back path. *)
let check_filter_binds (b : I.batch_view) acc =
  let nstages = Array.length b.I.b_stages in
  let acc = ref acc in
  Array.iteri
    (fun k st ->
      let binds = Array.length st.I.bv_binds in
      if st.I.bv_filter && binds > 0 then
        acc :=
          d
            ~witness:
              (Diagnostic.Filter_bind
                 { stage = k; atom = st.I.bv_atom; binds; streamed = false })
            Diagnostic.Filter_binds
            (Printf.sprintf
               "stage %d is flagged mask-only but binds %d column(s) — the \
                filter path would skip its writes"
               k binds)
          :: !acc
      else if (not st.I.bv_filter) && binds = 0 then begin
        let streamed = k = nstages - 1 in
        acc :=
          d
            ~witness:
              (Diagnostic.Filter_bind
                 { stage = k; atom = st.I.bv_atom; binds = 0; streamed })
            Diagnostic.Filter_binds
            (Printf.sprintf
               "stage %d binds no column yet is not flagged mask-only%s" k
               (if streamed then
                  " — its streamed final output would be read back as a \
                   materialized column"
                else ""))
          :: !acc
      end)
    b.I.b_stages;
  !acc

let audit_view (v : I.view) (b : I.batch_view) =
  []
  |> check_read_before_bind v b
  |> check_aliasing v b
  |> check_position_cover v b
  |> check_filter_binds b
  |> List.rev

let audit p = audit_view (I.plan p) (I.batch p)

(* E021: certified-vs-measured, one finding per violated component. The
   envelope is per slice / per group exactly like the high-water marks
   (peaks of one slice's scratch, one group's replay buffer), so
   domination is a plain <= per component. *)
let check_envelope (r : Resource.t) (s : Engine.batch_stats) =
  let chk component certified measured acc =
    if measured > certified then
      d
        ~witness:(Diagnostic.Envelope { component; certified; measured })
        Diagnostic.Resource_envelope
        (Printf.sprintf
           "measured %s high-water mark %d exceeds the certified envelope \
            %d — the admission bound is unsound for this plan"
           component measured certified)
      :: acc
    else acc
  in
  []
  |> chk "column-words" r.Resource.r_column_words s.Engine.bm_column_words
  |> chk "probe-table-words" r.Resource.r_dense_words s.Engine.bm_dense_words
  |> chk "replay-rows" r.Resource.r_replay_rows s.Engine.bm_replay_rows
  |> List.rev

(* ---- rendering --------------------------------------------------------- *)

let batch_json (b : I.batch_view) =
  Json.Obj
    [ ("morsel-rows", Int b.I.b_morsel_rows);
      ("groups", Int b.I.b_groups);
      ( "columns",
        List
          (Array.to_list b.I.b_columns
          |> List.map (fun (s, x) ->
                 Json.Obj
                   [ ("slot", Json.Int s); ("variable", Json.Str x) ])) );
      ( "stages",
        List
          (Array.to_list b.I.b_stages
          |> List.map (fun (st : I.batch_stage_view) ->
                 Json.Obj
                   [ ("atom", Int st.I.bv_atom);
                     ("checks", Int (Array.length st.I.bv_checks));
                     ("probe-cols", Int (Array.length st.I.bv_cols));
                     ("binds", Int (Array.length st.I.bv_binds));
                     ("dups", Int (Array.length st.I.bv_dups));
                     ("filter", Bool st.I.bv_filter) ])) ) ]

let pp_batch ppf (b : I.batch_view) =
  begin
    Format.fprintf ppf
      "batch: vectorized — %d-row morsel group(s), %d group(s) at the top \
       level@,"
      b.I.b_morsel_rows b.I.b_groups;
    Format.fprintf ppf "  columns:";
    if Array.length b.I.b_columns = 0 then Format.fprintf ppf " none"
    else
      Array.iter
        (fun (s, x) -> Format.fprintf ppf " %d:%s" s x)
        b.I.b_columns;
    Format.fprintf ppf "@,";
    Array.iteri
      (fun i (st : I.batch_stage_view) ->
        if i > 0 then Format.fprintf ppf "@,";
        Format.fprintf ppf
          "  stage %d: atom %d — %d check(s), %d probe col(s), %d bind(s), \
           %d dup(s)%s"
          i st.I.bv_atom
          (Array.length st.I.bv_checks)
          (Array.length st.I.bv_cols)
          (Array.length st.I.bv_binds)
          (Array.length st.I.bv_dups)
          (if st.I.bv_filter then ", mask-only filter" else ""))
      b.I.b_stages;
    if Array.length b.I.b_stages = 0 then
      Format.fprintf ppf "  no stages (atomless plan)"
  end
