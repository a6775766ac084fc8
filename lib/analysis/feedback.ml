(* Cardinality-feedback auditor: static verification of the runtime counter
   view (Engine.Inspect.feedback_view), the per-atom actuals printed next to
   the static estimates that chose the plan. Nothing feeds them back into
   planning.

   Mirrors Plan_audit / Batch_audit: the auditor runs over the
   plain-data view, not over the runtime, so tests can corrupt a copy and
   watch the right E-code come back — while the genuine view is read from
   the same accumulator the engine commits into, so a clean audit certifies
   what actually ran. Every check is O(plan size); no stored tuple is
   inspected and no query is re-executed.

   The codes:
   - E022 estimate-drift (warning): observed selectivity left the static
     estimate by more than the view's threshold;
   - E023 counter-coverage: the counter vector does not cover the plan's
     instruction list, or is internally impossible;
   - E026 inconsistent-collector: observed counts exceeding the sound
     per-run ceiling — the collector itself is broken. *)

module I = Engine.Inspect

let d ?witness code message = Diagnostic.make ?witness code message

(* numeric slack for recomputed log-domain quantities (same eps Equiv uses
   for certificate score recomputation) *)
let eps = 1e-6

(* The static estimate and the observed log10 selectivity of one counter
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

(* ---- E022: estimate-vs-actual drift ------------------------------------ *)

(* One-sided: only an underestimate (more survivors per context than the
   static score predicted) is drift — an overestimate merely makes the
   static order conservative. *)
let check_drift (v : I.feedback_view) acc =
  Array.fold_left
    (fun acc (fa : I.feedback_atom) ->
      match observed v fa with
      | None -> acc
      | Some obs ->
          let est = fa.I.f_score in
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
                  estimate 10^%.2f by more than %.1f decade(s) \
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
  List.rev (check_drift v (check_collector v (check_counters v [])))

let audit p = audit_view (I.feedback p)

(* ---- rendering (consumed by the explain CLI) ---------------------------- *)

let view_json (v : I.feedback_view) =
  Json.Obj
    [ ("runs", Int v.I.f_runs);
      ("top", (match v.I.f_top with None -> Json.Null | Some t -> Int t));
      ("threshold", Float v.I.f_threshold);
      ("min-probed", Int v.I.f_min_probed);
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
                      ("estimated", Float fa.I.f_score);
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
  Format.fprintf ppf "versions: store at %d, live at %d@,"
    v.I.f_store_version v.I.f_live_version;
  if Array.length v.I.f_atoms = 0 then
    Format.fprintf ppf "no atoms (infeasible or empty plan)"
  else begin
    Format.fprintf ppf
      "  atom  contexts     probed   survived   estimate   observed      drift";
    Array.iter
      (fun (fa : I.feedback_atom) ->
        let est = fa.I.f_score in
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
