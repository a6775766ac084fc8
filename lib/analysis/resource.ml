(* Certified resource envelopes for the batched pipeline.

   The envelope mirrors the batched interpreter's allocation discipline
   (engine.ml, iter_envs_batched_slice) component for component:

   - slot columns and parent pointers grow geometrically via ensure/regrow,
     so a buffer's capacity never exceeds twice the widest width it served
     (floor 16, the interior expansion's initial capacity);
   - probe scratch (pcol_scratch) is bounded by the widest level a probing
     stage ever ran over; the composite-key candidate arrays are transient
     per stage invocation (2 pointers-and-counts rows + a permutation);
   - dense probe tables are gated on [max key < 4 * cells + 64] with
     [cells] the counted index's population — exactly the per-position
     distinct count the view snapshots — so the two top arrays cost at most
     2 * (4 * dcount + 64) words per eligible stage;
   - per-stage expansion factors come from Dataflow re-run along the fixed
     stage order (the order the pipeline executes), whose st_rows_max is a
     sound per-environment candidate bound: level widths are products of
     them, and solutions per group never exceed the group width times the
     product over expansion stages.

   Everything saturates at [cap]: an exponential bound must surface as a
   huge envelope the admission gate rejects, not as an overflowed small
   one. *)

module I = Engine.Inspect

let cap = max_int / 16

let sat_add a b = if a >= cap - b then cap else a + b
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a >= cap / b then cap else a * b

(* capacity bound of a geometrically grown buffer that served width [w] *)
let cap_bound w = sat_mul 2 (max 16 w)

type t = {
  r_checked : bool;
  r_rows : int;
  r_group_rows : int;
  r_groups : int;
  r_nslots : int;
  r_stage_rows : int array;
  r_peak_rows : int;
  r_column_words : int;
  r_dense_words : int;
  r_replay_rows : int;
  r_peak_bytes : int;
  r_infeasible : bool;
  r_saturated : bool;
}

let analyze ?checked (v : I.view) (b : I.batch_view) =
  let checked =
    match checked with Some c -> c | None -> Engine.checked_enabled ()
  in
  let nstages = Array.length b.I.b_stages in
  let nslots = Array.length v.I.i_slots in
  let rows = b.I.b_rows in
  (* per-stage sound candidate bounds along the fixed order: Dataflow's
     narrowing (and its provably-empty verdicts) must follow the order the
     pipeline executes, so re-run it on a view whose order is the stage
     sequence *)
  let stage_rows =
    if nstages = 0 then [||]
    else
      let fixed = Array.map (fun st -> st.I.bv_atom) b.I.b_stages in
      let df = Dataflow.analyze { v with I.i_order = fixed } in
      Array.map (fun st -> st.Dataflow.st_rows_max) df.Dataflow.steps
  in
  let infeasible =
    (not v.I.i_feasible) || rows = 0
    || Array.exists (fun r -> r = 0) stage_rows
  in
  if nstages = 0 then
    { r_checked = checked;
      r_rows = rows;
      r_group_rows = 0;
      r_groups = b.I.b_groups;
      r_nslots = nslots;
      r_stage_rows = stage_rows;
      r_peak_rows = 0;
      r_column_words = 0;
      r_dense_words = 0;
      r_replay_rows = 0;
      r_peak_bytes = 0;
      r_infeasible = infeasible;
      r_saturated = false }
  else begin
    let g = min b.I.b_morsel_rows rows in
    (* a provably-empty stage kills the pipeline, but groups still run (and
       allocate scratch) up to it — clamp its factor to 1 so the envelope
       keeps covering the scratch of the stages that do execute; the
       infeasible flag reports the emptiness separately *)
    let factor k = max 1 stage_rows.(k) in
    (* level widths: stage 0 compacts to at most the group width, every
       interior expansion multiplies by its candidate bound, filters only
       narrow, the final expansion streams (its width is replay-only) *)
    let width = ref g in
    let peak = ref g in
    let column_words = ref 0 in
    let expansion_product = ref 1 in
    let max_ncols = ref 1 in
    let any_composite = ref false in
    let nbinds0 = Array.length b.I.b_stages.(0).I.bv_binds in
    column_words := sat_mul nbinds0 (cap_bound g);
    for k = 1 to nstages - 1 do
      let st = b.I.b_stages.(k) in
      max_ncols := max !max_ncols (Array.length st.I.bv_cols);
      if Array.length st.I.bv_cols >= 2 then any_composite := true;
      if not st.I.bv_filter then begin
        expansion_product := sat_mul !expansion_product (factor k);
        if k < nstages - 1 then begin
          width := sat_mul !width (factor k);
          peak := max !peak !width;
          (* the new level's bind columns plus its parent-pointer array *)
          column_words :=
            sat_add !column_words
              (sat_mul
                 (Array.length st.I.bv_binds + 1)
                 (cap_bound !width))
        end
      end
    done;
    (* probe scratch, candidate scratch, survivor mask, composite arrays *)
    column_words :=
      sat_add !column_words (sat_mul !max_ncols (cap_bound !peak));
    column_words := sat_add !column_words (sat_mul 2 (max 1 g));
    column_words :=
      sat_add !column_words (((sat_mul 2 !peak + 7) / 8) + 1);
    if !any_composite then
      column_words := sat_add !column_words (sat_mul 3 !peak);
    (* dense probe tables: every stage that could clear the gate *)
    let dense_words = ref 0 in
    for k = 1 to nstages - 1 do
      let st = b.I.b_stages.(k) in
      if Array.length st.I.bv_cols = 1 then begin
        let pos, _ = st.I.bv_cols.(0) in
        let av = v.I.i_atoms.(st.I.bv_atom) in
        let dc =
          if pos >= 0 && pos < Array.length av.I.a_dcounts then
            av.I.a_dcounts.(pos)
          else 0
        in
        dense_words :=
          sat_add !dense_words (sat_mul 2 (sat_add (sat_mul 4 dc) 64))
      end
    done;
    (* buffering: checked mode replays one group at a time *)
    let replay_rows = sat_mul g !expansion_product in
    let scratch_bytes = sat_mul 8 (sat_add !column_words !dense_words) in
    let buffered_bytes =
      if checked then sat_mul 8 (sat_mul (nslots + 2) replay_rows) else 0
    in
    let peak_bytes = sat_add scratch_bytes buffered_bytes in
    let saturated =
      !peak >= cap || !column_words >= cap || !dense_words >= cap
      || replay_rows >= cap || peak_bytes >= cap
    in
    { r_checked = checked;
      r_rows = rows;
      r_group_rows = g;
      r_groups = b.I.b_groups;
      r_nslots = nslots;
      r_stage_rows = stage_rows;
      r_peak_rows = !peak;
      r_column_words = !column_words;
      r_dense_words = !dense_words;
      r_replay_rows = replay_rows;
      r_peak_bytes = peak_bytes;
      r_infeasible = infeasible;
      r_saturated = saturated }
  end

let of_plan p = analyze (I.plan p) (I.batch p)

let admits t ~budget = (not t.r_saturated) && t.r_peak_bytes <= budget

(* ---- rendering --------------------------------------------------------- *)

let to_json t =
  Json.Obj
    [ ("checked", Bool t.r_checked);
      ("rows", Int t.r_rows);
      ("group-rows", Int t.r_group_rows);
      ("groups", Int t.r_groups);
      ("slots", Int t.r_nslots);
      ( "stage-rows",
        List (Array.to_list (Array.map (fun r -> Json.Int r) t.r_stage_rows))
      );
      ("peak-rows", Int t.r_peak_rows);
      ("column-words", Int t.r_column_words);
      ("dense-words", Int t.r_dense_words);
      ("replay-rows", Int t.r_replay_rows);
      ("peak-bytes", Int t.r_peak_bytes);
      ("infeasible", Bool t.r_infeasible);
      ("saturated", Bool t.r_saturated) ]

let pp_bytes ppf n =
  if n >= 1 lsl 30 then
    Format.fprintf ppf "%.1f GiB" (float_of_int n /. float_of_int (1 lsl 30))
  else if n >= 1 lsl 20 then
    Format.fprintf ppf "%.1f MiB" (float_of_int n /. float_of_int (1 lsl 20))
  else if n >= 1 lsl 10 then
    Format.fprintf ppf "%.1f KiB" (float_of_int n /. float_of_int (1 lsl 10))
  else Format.fprintf ppf "%d B" n

let pp ppf t =
  if t.r_infeasible then
    Format.fprintf ppf
      "plan provably empty — certified peak %a (pipeline scratch only, no \
       answer ever buffered)"
      pp_bytes t.r_peak_bytes
  else if t.r_saturated then
    Format.fprintf ppf
      "certified peak UNBOUNDED (saturated) — %d stage(s), peak rows >= \
       %d; any finite --max-mem budget rejects"
      (Array.length t.r_stage_rows)
      t.r_peak_rows
  else begin
    Format.fprintf ppf "certified peak %a" pp_bytes t.r_peak_bytes;
    Format.fprintf ppf
      "@,  scratch: %d column word(s), %d dense probe-table word(s), peak \
       level width %d row(s)"
      t.r_column_words t.r_dense_words t.r_peak_rows;
    if t.r_checked then
      Format.fprintf ppf
        "@,  buffering: <= %d row(s) per group (checked-mode replay armed)"
        t.r_replay_rows
    else
      Format.fprintf ppf
        "@,  buffering: none (a checked-mode replay would hold <= %d row(s) \
         per group)"
        t.r_replay_rows;
    Format.fprintf ppf
      "@,  geometry: %d-row group(s), %d group(s) over %d candidate row(s)"
      t.r_group_rows t.r_groups t.r_rows
  end
