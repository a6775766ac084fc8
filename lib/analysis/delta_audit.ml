open Relational

(* The delta-maintenance auditor: E027–E030.

   Everything here runs on plain data — the dirty-range derivation
   (Engine.Delta.dirty_ranges output), the standing-query view
   (Wdpt.Standing.view) and refresh event streams — so tests can corrupt
   the inputs and prove each code fires. Costs are O(batch × atoms) for
   E027 and O(view) for E028/E029 (frontier checks are quadratic within a
   comparability group, which is part of the view's own invariant; the
   materialised answer sets are compared with the group unions in
   O(view · log view)). *)

let str pp v = Format.asprintf "%a" pp v
let mstr = str Mapping.pp

(* -- E027: dirty ranges cover every touched probe position -------------- *)

let audit_ranges atoms (b : Engine.Delta.batch) ranges =
  let found = ref [] in
  let covered ai pos v =
    List.exists
      (fun (r : Engine.Delta.dirty_range) ->
        r.dr_atom = ai && r.dr_pos = pos
        && List.exists (Value.equal v) r.dr_values)
      ranges
  in
  List.iteri
    (fun ai a ->
      List.iter
        (fun f ->
          if String.equal (Atom.rel a) (Fact.rel f)
             && Atom.arity a = Fact.arity f then
            List.iteri
              (fun pos v ->
                if not (covered ai pos v) then
                  found :=
                    Diagnostic.make ~witness:(Diagnostic.Dirty_of
                        { atom = ai;
                          pos;
                          value = str Value.pp v;
                          fact = str Fact.pp f })
                      Diagnostic.Delta_dirty
                      (Format.asprintf
                         "batch fact %a touches atom %d position %d but the \
                          dirty range misses value %a"
                         Fact.pp f ai pos Value.pp v)
                    :: !found)
              (Fact.tuple f))
        (b.added @ b.removed))
    atoms;
  List.rev !found

(* -- E028/E029: view invariants ----------------------------------------- *)

let audit_view p (v : Wdpt.Standing.view) =
  let found = ref [] in
  let report ?witness code msg = found := Diagnostic.make ?witness code msg :: !found in
  let root_vars =
    String_set.elements (Wdpt.Pattern_tree.node_vars p (Wdpt.Pattern_tree.root p))
  in
  let free = Wdpt.Pattern_tree.free_set p in
  let root_free =
    List.filter (fun x -> String_set.mem x free) root_vars
  in
  (* E029: stored homs filed under the right rootkey *)
  List.iter
    (fun (rk, homs) ->
      List.iter
        (fun h ->
          let rk' = Mapping.restrict_list root_vars h in
          if not (Mapping.equal rk rk') then
            report
              ~witness:(Diagnostic.Support_of
                  { group = mstr rk;
                    answer = mstr h;
                    stored = 0;
                    derived = 0;
                    detail = "rootkey-mismatch" })
              Diagnostic.Support_mismatch
              (Format.asprintf
                 "stored homomorphism %a filed under rootkey %a but its root \
                  restriction is %a"
                 Mapping.pp h Mapping.pp rk Mapping.pp rk'))
        homs)
    v.v_rootkeys;
  (* derived supports: project every stored hom, group by root-free-key.
     Keys are mappings, so lookups must go through [Mapping.compare] — a
     polymorphic Hashtbl would hash the balanced-tree representation, which
     is not canonical across construction paths. *)
  let module MM = Map.Make (Mapping) in
  let derived =
    List.fold_left
      (fun acc (rk, homs) ->
        let gk = Mapping.restrict_list root_free rk in
        List.fold_left
          (fun acc h ->
            let a = Mapping.restrict free h in
            MM.update gk
              (fun tbl ->
                let tbl = Option.value ~default:MM.empty tbl in
                Some
                  (MM.update a
                     (function Some n -> Some (n + 1) | None -> Some 1)
                     tbl))
              acc)
          acc homs)
      MM.empty v.v_rootkeys
  in
  let derived_support gk a =
    match MM.find_opt gk derived with
    | None -> 0
    | Some tbl -> Option.value ~default:0 (MM.find_opt a tbl)
  in
  (* E029: stored supports match the derived ones, both directions *)
  List.iter
    (fun (gk, answers, _frontier) ->
      List.iter
        (fun (a, stored) ->
          let d = derived_support gk a in
          if stored <> d then
            report
              ~witness:(Diagnostic.Support_of
                  { group = mstr gk;
                    answer = mstr a;
                    stored;
                    derived = d;
                    detail = "support-count" })
              Diagnostic.Support_mismatch
              (Format.asprintf
                 "answer %a in group %a has stored support %d but %d stored \
                  homomorphisms project to it"
                 Mapping.pp a Mapping.pp gk stored d))
        answers)
    v.v_groups;
  MM.iter
    (fun gk tbl ->
      MM.iter
        (fun a n ->
          let stored =
            match
              List.find_opt (fun (g, _, _) -> Mapping.equal g gk) v.v_groups
            with
            | None -> 0
            | Some (_, answers, _) -> (
                match
                  List.find_opt (fun (a', _) -> Mapping.equal a a') answers
                with
                | Some (_, s) -> s
                | None -> 0)
          in
          if stored = 0 then
            report
              ~witness:(Diagnostic.Support_of
                  { group = mstr gk;
                    answer = mstr a;
                    stored = 0;
                    derived = n;
                    detail = "missing-answer" })
              Diagnostic.Support_mismatch
              (Format.asprintf
                 "%d stored homomorphisms project to %a in group %a but the \
                  group does not list it"
                 n Mapping.pp a Mapping.pp gk))
        tbl)
    derived;
  (* E028: each group's frontier is exactly the ⊑-maximal answers *)
  List.iter
    (fun (gk, answers, frontier) ->
      let answer_list = List.map fst answers in
      let is_answer a = List.exists (Mapping.equal a) answer_list in
      List.iter
        (fun a ->
          if not (is_answer a) then
            report
              ~witness:(Diagnostic.Frontier_of
                  { group = mstr gk;
                    answer = mstr a;
                    against = "";
                    detail = "frontier-not-answer" })
              Diagnostic.Frontier_nonmaximal
              (Format.asprintf
                 "frontier of group %a lists %a, which is not an answer"
                 Mapping.pp gk Mapping.pp a)
          else
            match
              List.find_opt (fun b -> Mapping.strictly_subsumes a b) answer_list
            with
            | Some b ->
                report
                  ~witness:(Diagnostic.Frontier_of
                      { group = mstr gk;
                        answer = mstr a;
                        against = mstr b;
                        detail = "dominated-on-frontier" })
                  Diagnostic.Frontier_nonmaximal
                  (Format.asprintf
                     "frontier answer %a of group %a is strictly subsumed by \
                      answer %a"
                     Mapping.pp a Mapping.pp gk Mapping.pp b)
            | None -> ())
        frontier;
      List.iter
        (fun a ->
          let maximal =
            not
              (List.exists (fun b -> Mapping.strictly_subsumes a b) answer_list)
          in
          if maximal && not (List.exists (Mapping.equal a) frontier) then
            report
              ~witness:(Diagnostic.Frontier_of
                  { group = mstr gk;
                    answer = mstr a;
                    against = "";
                    detail = "missing-from-frontier" })
              Diagnostic.Frontier_nonmaximal
              (Format.asprintf
                 "answer %a of group %a is ⊑-maximal but missing from the \
                  frontier"
                 Mapping.pp a Mapping.pp gk))
        answer_list)
    v.v_groups;
  (* E029 / E028: the materialised p(D) and p_m(D) are exactly the unions of
     the group answers and of the group frontiers *)
  let union members =
    List.fold_left
      (fun acc g -> List.fold_left (fun acc a -> Mapping.Set.add a acc) acc (members g))
      Mapping.Set.empty v.v_groups
  in
  let materialised stored derived mismatch =
    let stored = Mapping.Set.of_list stored in
    Mapping.Set.iter (mismatch "materialised-extra") (Mapping.Set.diff stored derived);
    Mapping.Set.iter (mismatch "materialised-missing") (Mapping.Set.diff derived stored)
  in
  materialised v.v_answers
    (union (fun (_, answers, _) -> List.map fst answers))
    (fun detail a ->
      report
        ~witness:(Diagnostic.Support_of
            { group = ""; answer = mstr a; stored = 0; derived = 0; detail })
        Diagnostic.Support_mismatch
        (Format.asprintf
           "the materialised answer set and the union of the group answers \
            disagree on %a (%s)"
           Mapping.pp a detail));
  materialised v.v_maximal
    (union (fun (_, _, frontier) -> frontier))
    (fun detail a ->
      report
        ~witness:(Diagnostic.Frontier_of
            { group = ""; answer = mstr a; against = ""; detail })
        Diagnostic.Frontier_nonmaximal
        (Format.asprintf
           "the materialised maximal answer set and the union of the group \
            frontiers disagree on %a (%s)"
           Mapping.pp a detail));
  List.rev !found

let audit t = audit_view (Wdpt.Standing.query t) (Wdpt.Standing.view t)

(* -- E030: events reproduce full re-evaluation -------------------------- *)

let check_events ~before_eval ~before_max ~after_eval ~after_max events =
  let found = ref [] in
  let report answer level detail msg =
    found :=
      Diagnostic.make
        ~witness:(Diagnostic.Event_of { answer = mstr answer; level; detail })
        Diagnostic.Event_mismatch msg
      :: !found
  in
  (* replay the events over the before sets *)
  let ev = ref before_eval and mx = ref before_max in
  List.iter
    (fun (e : Wdpt.Standing.event) ->
      match e with
      | Added { answer; maximal } ->
          if Mapping.Set.mem answer !ev then
            report answer "eval" "added-existing"
              (Format.asprintf "Added event for existing answer %a" Mapping.pp
                 answer);
          ev := Mapping.Set.add answer !ev;
          if maximal then mx := Mapping.Set.add answer !mx
      | Removed { answer; was_maximal } ->
          if not (Mapping.Set.mem answer !ev) then
            report answer "eval" "removed-missing"
              (Format.asprintf "Removed event for unknown answer %a" Mapping.pp
                 answer);
          ev := Mapping.Set.remove answer !ev;
          if was_maximal <> Mapping.Set.mem answer !mx then
            report answer "max" "removed-wrong-flag"
              (Format.asprintf
                 "Removed event flags %a as %smaximal, contradicting the \
                  replayed frontier"
                 Mapping.pp answer
                 (if was_maximal then "" else "non-"));
          mx := Mapping.Set.remove answer !mx
      | Promoted answer ->
          if Mapping.Set.mem answer !mx then
            report answer "max" "promoted-existing"
              (Format.asprintf "Promoted event for frontier answer %a"
                 Mapping.pp answer);
          mx := Mapping.Set.add answer !mx
      | Demoted answer ->
          if not (Mapping.Set.mem answer !mx) then
            report answer "max" "demoted-missing"
              (Format.asprintf "Demoted event for non-frontier answer %a"
                 Mapping.pp answer);
          mx := Mapping.Set.remove answer !mx)
    events;
  let diff level replayed reference =
    Mapping.Set.iter
      (fun a ->
        report a level "replay-extra"
          (Format.asprintf
             "replaying the events yields %a at %s level, full re-evaluation \
              does not"
             Mapping.pp a level))
      (Mapping.Set.diff replayed reference);
    Mapping.Set.iter
      (fun a ->
        report a level "replay-missing"
          (Format.asprintf
             "full re-evaluation yields %a at %s level, replaying the events \
              does not"
             Mapping.pp a level))
      (Mapping.Set.diff reference replayed)
  in
  diff "eval" !ev after_eval;
  diff "max" !mx after_max;
  List.rev !found
