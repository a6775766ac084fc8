(* Cardinality-feedback auditor: static verification of the runtime counter
   view (Engine.Inspect.feedback_view) and of adaptive plan-swap
   certificates (Engine.swap_cert).

   Mirrors Plan_audit / Batch_audit: the auditor runs over the
   plain-data view, not over the runtime, so tests can corrupt a copy and
   watch the right E-code come back — while the genuine view is read from
   the same accumulator the engine commits into, so a clean audit certifies
   what actually ran. Every check is O(plan size); no stored tuple is
   inspected and no query is re-executed.

   The codes:
   - E022 estimate-drift (warning): observed selectivity left the calibrated
     estimate by more than the threshold — the trigger for adaptation;
   - E023 counter-coverage: the counter vector does not cover the plan's
     instruction list, or is internally impossible;
   - E024 stale-stats-epoch: a calibrated plan served under a newer stats
     epoch than its calibration was costed against;
   - E025 unjustified-replan: a swap certificate that does not re-verify;
   - E026 inconsistent-collector: observed counts exceeding the sound
     per-run ceiling — the collector itself is broken. *)

module I = Engine.Inspect

let d ?witness code message = Diagnostic.make ?witness code message

(* numeric slack for recomputed log-domain quantities (same eps Equiv uses
   for certificate score recomputation) *)
let eps = 1e-6

(* The calibrated estimate and the observed log10 selectivity of one counter
   entry. Observation = survivors per probe context; [None] without enough
   evidence (no context, below the probe floor, or zero survivors — a dead
   atom only tells us the estimate was an overestimate, which never forces
   anything). *)
let observed (v : I.feedback_view) (fa : I.feedback_atom) =
  if
    fa.I.f_contexts > 0
    && fa.I.f_probed >= v.I.f_min_probed
    && fa.I.f_survived > 0
  then
    Some (log10 (float_of_int fa.I.f_survived /. float_of_int fa.I.f_contexts))
  else None

let estimated (fa : I.feedback_atom) = fa.I.f_score +. fa.I.f_calib

(* ---- E022: estimate-vs-actual drift ------------------------------------ *)

(* One-sided: only an underestimate (more survivors per context than the
   calibrated score predicted) is drift — an overestimate merely makes the
   static order conservative. The baseline is the CALIBRATED estimate, so a
   freshly adapted plan observing the same distribution audits clean. *)
let check_drift (v : I.feedback_view) acc =
  Array.fold_left
    (fun acc (fa : I.feedback_atom) ->
      match observed v fa with
      | None -> acc
      | Some obs ->
          let est = estimated fa in
          if obs -. est > v.I.f_threshold then
            d
              ~witness:
                (Diagnostic.Drifted
                   { atom = fa.I.f_atom;
                     estimated = est;
                     observed = obs;
                     threshold = v.I.f_threshold;
                     contexts = fa.I.f_contexts;
                     probed = fa.I.f_probed;
                     survived = fa.I.f_survived })
              Diagnostic.Drift
              (Printf.sprintf
                 "atom %d: observed selectivity 10^%.2f exceeds the \
                  calibrated estimate 10^%.2f by more than %.1f decade(s) \
                  (%d survivor(s) over %d context(s), %d row(s) probed)"
                 fa.I.f_atom obs est v.I.f_threshold fa.I.f_survived
                 fa.I.f_contexts fa.I.f_probed)
            :: acc
          else acc)
    acc v.I.f_atoms

(* ---- E023: counter coverage -------------------------------------------- *)

(* The counter vector must cover the plan's instruction list one-to-one
   (entry i counts atom i), every counter must be a genuine count
   (non-negative), and the per-atom stream must nest: an atom cannot have
   more survivors than probed rows, nor probes without a context. A ran
   plan must also have credited its top-level probe context — checked only
   while the store is untouched since compilation, because an incremental
   extension can legitimately move the top-level choice between runs. *)
let check_counters (v : I.feedback_view) acc =
  let acc = ref acc in
  let bad atom detail message =
    acc :=
      d
        ~witness:(Diagnostic.Counter_of { atom; detail })
        Diagnostic.Counter_coverage message
      :: !acc
  in
  Array.iteri
    (fun i (fa : I.feedback_atom) ->
      if fa.I.f_atom <> i then
        bad i "index-mismatch"
          (Printf.sprintf
             "counter entry %d claims atom %d: the vector does not cover \
              the instruction list"
             i fa.I.f_atom)
      else begin
        if fa.I.f_contexts < 0 || fa.I.f_probed < 0 || fa.I.f_survived < 0
        then
          bad i "negative-counter"
            (Printf.sprintf
               "atom %d carries a negative counter (%d context(s), %d \
                probed, %d survived)"
               i fa.I.f_contexts fa.I.f_probed fa.I.f_survived);
        if fa.I.f_survived > fa.I.f_probed then
          bad i "survivors-exceed-probes"
            (Printf.sprintf
               "atom %d reports %d survivor(s) out of only %d probed row(s)"
               i fa.I.f_survived fa.I.f_probed);
        if fa.I.f_probed > 0 && fa.I.f_contexts = 0 then
          bad i "probes-without-context"
            (Printf.sprintf
               "atom %d probed %d row(s) without entering any probe context"
               i fa.I.f_probed)
      end)
    v.I.f_atoms;
  if v.I.f_runs < 0 then
    bad (-1) "negative-runs"
      (Printf.sprintf "%d completed run(s) recorded" v.I.f_runs);
  (match v.I.f_top with
  | Some t
    when v.I.f_runs > 0
         && v.I.f_store_version = v.I.f_compiled_version
         && t >= 0
         && t < Array.length v.I.f_atoms ->
      let fa = v.I.f_atoms.(t) in
      if fa.I.f_contexts < v.I.f_runs then
        bad t "missing-top-context"
          (Printf.sprintf
             "top-level atom %d has %d probe context(s) over %d completed \
              run(s): an executed instruction with no counter"
             t fa.I.f_contexts v.I.f_runs)
  | _ -> ());
  !acc

(* ---- E024: stale stats epoch ------------------------------------------- *)

(* Fires only for calibrated plans: an uncalibrated plan's costing epoch is
   vacuous (nothing was learned), and incremental store extension is the
   legitimate E006 note-form story. A CALIBRATED plan under a newer epoch
   is being served feedback conclusions the current statistics never
   justified. *)
let check_epoch (v : I.feedback_view) acc =
  let calibrated =
    Array.exists (fun (fa : I.feedback_atom) -> fa.I.f_calib <> 0.) v.I.f_atoms
  in
  if calibrated && v.I.f_costed_at < v.I.f_store_version then
    d
      ~witness:
        (Diagnostic.Epoch
           { costed = v.I.f_costed_at;
             store = v.I.f_store_version;
             live = v.I.f_live_version })
      Diagnostic.Stale_epoch
      (Printf.sprintf
         "calibrated plan costed at stats epoch %d is served by a store at \
          version %d (live database at %d): the calibration predates the \
          statistics"
         v.I.f_costed_at v.I.f_store_version v.I.f_live_version)
    :: acc
  else acc

(* ---- E026: collector consistency --------------------------------------- *)

(* A sound ceiling that needs no trust in the collector: one completed run
   explores at most Π_a max(1, |R_a|) search-tree nodes (every node matches
   one stored row per atom on its path), so no atom can report more
   survivors than runs × that product. Stated in log10 so the product stays
   finite; the per-relation row counts come from the stored statistics, not
   from the counters under audit. *)
let check_collector (v : I.feedback_view) acc =
  if v.I.f_runs <= 0 then acc
  else begin
    let product =
      Array.fold_left
        (fun s (fa : I.feedback_atom) ->
          s +. log10 (float_of_int (max 1 fa.I.f_rows)))
        0. v.I.f_atoms
    in
    let bound = log10 (float_of_int v.I.f_runs) +. product in
    Array.fold_left
      (fun acc (fa : I.feedback_atom) ->
        if
          fa.I.f_survived > 0
          && log10 (float_of_int fa.I.f_survived) > bound +. eps
        then
          d
            ~witness:
              (Diagnostic.Collector_of
                 { atom = fa.I.f_atom;
                   survived = fa.I.f_survived;
                   runs = v.I.f_runs;
                   bound })
            Diagnostic.Collector_inconsistent
            (Printf.sprintf
               "atom %d reports %d survivor(s) over %d run(s), above the \
                sound ceiling 10^%.2f from the stored row counts: the \
                collector is broken"
               fa.I.f_atom fa.I.f_survived v.I.f_runs bound)
          :: acc
        else acc)
      acc v.I.f_atoms
  end

(* ---- the view audit ----------------------------------------------------- *)

let audit_view (v : I.feedback_view) =
  List.rev (check_drift v (check_epoch v (check_collector v (check_counters v []))))

let audit p = audit_view (I.feedback p)

(* ---- E025: swap-certificate verification -------------------------------- *)

(* Re-verify an adaptive plan swap from its certificate and the before/after
   plan views, trusting neither the loop that produced it nor the numbers it
   recorded. The certificate is valid iff:
   - it is costed at the before-plan's store epoch, over at least one run;
   - it names at least one drifted atom, each in range, each with its
     claimed estimate recomputing from the before-view's statistics and
     calibration, and each genuinely above the threshold;
   - the full calibration vector recomputes: before-calibration plus the
     per-atom drift surplus for drifted atoms, unchanged elsewhere;
   - the after-plan is the before-plan with ONLY calibration and order
     changed — same atoms, instructions, slots, initial bindings, pool —
     its calibration is the certificate's, and its order is sorted by the
     calibrated key. *)
let verify_swap ~(before : I.view) ~(after : I.view) (cert : Engine.swap_cert)
    =
  let acc = ref [] in
  let fail field detail =
    acc :=
      d
        ~witness:(Diagnostic.Replan_of { field; detail })
        Diagnostic.Unjustified_replan
        (Printf.sprintf "swap certificate rejected (%s): %s" field detail)
      :: !acc
  in
  let n = Array.length before.I.i_atoms in
  if cert.Engine.sw_epoch <> before.I.i_store_version then
    fail "epoch"
      (Printf.sprintf "costed at stats epoch %d, store is at %d"
         cert.Engine.sw_epoch before.I.i_store_version);
  if cert.Engine.sw_runs <= 0 then
    fail "runs"
      (Printf.sprintf "%d run(s) of evidence" cert.Engine.sw_runs);
  if Array.length cert.Engine.sw_calib <> max 1 n then
    fail "calibration"
      (Printf.sprintf "calibration vector has %d entr(ies), plan has %d atom(s)"
         (Array.length cert.Engine.sw_calib) n);
  if Array.length cert.Engine.sw_drift = 0 then
    fail "drift" "no drifted atom: nothing justifies a swap";
  let threshold = Engine.drift_threshold () in
  Array.iter
    (fun (i, est, obs) ->
      if i < 0 || i >= n then
        fail "drift" (Printf.sprintf "drifted atom %d out of range" i)
      else begin
        let av = before.I.i_atoms.(i) in
        let est' =
          Engine.selectivity ~rows:av.I.a_rows ~dcounts:av.I.a_dcounts
            av.I.a_ops
          +. av.I.a_calib
        in
        if Float.abs (est -. est') > eps then
          fail "drift"
            (Printf.sprintf
               "atom %d: claimed estimate %.6f does not recompute (%.6f)" i
               est est');
        if obs -. est <= threshold then
          fail "drift"
            (Printf.sprintf
               "atom %d: drift %.2f is within the %.1f-decade threshold" i
               (obs -. est) threshold)
      end)
    cert.Engine.sw_drift;
  if Array.length cert.Engine.sw_calib = max 1 n && n > 0 then begin
    let expected =
      Array.init n (fun i -> before.I.i_atoms.(i).I.a_calib)
    in
    Array.iter
      (fun (i, est, obs) ->
        if i >= 0 && i < n then expected.(i) <- expected.(i) +. (obs -. est))
      cert.Engine.sw_drift;
    Array.iteri
      (fun i c ->
        if i < n && Float.abs (c -. expected.(i)) > eps then
          fail "calibration"
            (Printf.sprintf
               "atom %d: calibration %.6f does not recompute from the drift \
                evidence (%.6f)"
               i c expected.(i)))
      cert.Engine.sw_calib
  end;
  (* structural identity: the swap may only move calibration and order *)
  if Array.length after.I.i_atoms <> n then
    fail "structure"
      (Printf.sprintf "after-plan has %d atom(s), before has %d"
         (Array.length after.I.i_atoms) n);
  if after.I.i_slots <> before.I.i_slots then
    fail "structure" "slot table changed across the swap";
  if after.I.i_env <> before.I.i_env then
    fail "structure" "initial environment changed across the swap";
  if after.I.i_pool <> before.I.i_pool then
    fail "structure" "interner pool changed across the swap";
  if Array.length after.I.i_atoms = n then begin
    Array.iteri
      (fun i (av : I.atom_view) ->
        let bv = before.I.i_atoms.(i) in
        if
          av.I.a_rel <> bv.I.a_rel
          || av.I.a_ops <> bv.I.a_ops
          || av.I.a_atom <> bv.I.a_atom
        then
          fail "structure"
            (Printf.sprintf "atom %d changed across the swap" i);
        let claimed =
          if i < Array.length cert.Engine.sw_calib then
            cert.Engine.sw_calib.(i)
          else 0.
        in
        if Float.abs (av.I.a_calib -. claimed) > eps then
          fail "calibration"
            (Printf.sprintf
               "atom %d: after-plan calibration %.6f is not the certified \
                %.6f"
               i av.I.a_calib claimed))
      after.I.i_atoms;
    (* the after order must be sorted by the calibrated key *)
    let order = after.I.i_order in
    if Array.length order = n then begin
      let key ai =
        let av = after.I.i_atoms.(ai) in
        let g, s =
          Engine.order_key ~rows:av.I.a_rows ~dcounts:av.I.a_dcounts
            av.I.a_ops
        in
        (g, s +. av.I.a_calib)
      in
      for k = 0 to n - 2 do
        if compare (key order.(k)) (key order.(k + 1)) > 0 then
          fail "order"
            (Printf.sprintf
               "position %d: atom %d precedes a smaller calibrated key"
               k order.(k))
      done
    end
    else fail "order" "after-plan order does not cover the atoms"
  end;
  List.rev !acc

(* ---- rendering (consumed by the explain CLI) ---------------------------- *)

let view_json (v : I.feedback_view) =
  Json.Obj
    [ ("runs", Int v.I.f_runs);
      ("top", (match v.I.f_top with None -> Json.Null | Some t -> Int t));
      ("threshold", Float v.I.f_threshold);
      ("min-probed", Int v.I.f_min_probed);
      ("costed-at", Int v.I.f_costed_at);
      ("compiled-version", Int v.I.f_compiled_version);
      ("store-version", Int v.I.f_store_version);
      ("live-version", Int v.I.f_live_version);
      ( "atoms",
        List
          (Array.to_list
             (Array.map
                (fun (fa : I.feedback_atom) ->
                  Json.Obj
                    [ ("atom", Int fa.I.f_atom);
                      ("contexts", Int fa.I.f_contexts);
                      ("probed", Int fa.I.f_probed);
                      ("survived", Int fa.I.f_survived);
                      ("rows", Int fa.I.f_rows);
                      ("score", Float fa.I.f_score);
                      ("calib", Float fa.I.f_calib);
                      ("estimated", Float (estimated fa));
                      ( "observed",
                        match observed v fa with
                        | Some o -> Json.Float o
                        | None -> Json.Null ) ])
                v.I.f_atoms)) ) ]

let pp_view ppf (v : I.feedback_view) =
  Format.fprintf ppf
    "feedback: %d completed run(s); drift threshold %.1f decade(s), probe \
     floor %d@,"
    v.I.f_runs v.I.f_threshold v.I.f_min_probed;
  Format.fprintf ppf
    "epochs: costed at %d, store at %d, live at %d@," v.I.f_costed_at
    v.I.f_store_version v.I.f_live_version;
  if Array.length v.I.f_atoms = 0 then
    Format.fprintf ppf "no atoms (infeasible or empty plan)"
  else begin
    Format.fprintf ppf
      "  atom  contexts     probed   survived   estimate   observed      drift";
    Array.iter
      (fun (fa : I.feedback_atom) ->
        let est = estimated fa in
        match observed v fa with
        | Some obs ->
            Format.fprintf ppf
              "@,  %4d  %8d %10d %10d   10^%5.2f   10^%5.2f   %+.2f%s"
              fa.I.f_atom fa.I.f_contexts fa.I.f_probed fa.I.f_survived est
              obs (obs -. est)
              (if obs -. est > v.I.f_threshold then "  <- drift" else "")
        | None ->
            Format.fprintf ppf
              "@,  %4d  %8d %10d %10d   10^%5.2f          -          -"
              fa.I.f_atom fa.I.f_contexts fa.I.f_probed fa.I.f_survived est)
      v.I.f_atoms
  end

let pp_report ppf = function
  | [] -> Format.fprintf ppf "feedback audit: clean"
  | ds ->
      Format.fprintf ppf "feedback audit: %d finding(s)@," (List.length ds);
      Format.pp_print_list ~pp_sep:Format.pp_print_cut Diagnostic.pp ppf ds
