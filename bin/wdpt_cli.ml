(* wdpt: command-line front end.

   Subcommands:
     eval        evaluate an {AND,OPT}-SPARQL query over a triple file
     watch       standing query: replay a change stream, print change sets
     classify    report fragment membership (Section 3 classes)
     approximate compute WB(k)-approximations (Section 5)
     check       well-designedness of a pattern
     lint        static analysis: structured diagnostics (text or JSON)

   Data files contain one "subject predicate object" triple per line
   ('#' comments); see Rdf.Graph. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let query_arg =
  let doc = "The query: either inline {AND,OPT}-SPARQL or a path to a file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let relational_arg =
  let doc =
    "Relational mode: the query uses the generic pattern-tree syntax \
     (free (x) { R(?x, ?y) } [ { S(?y) } ]) and the data file contains \
     ground atoms like R(1, foo)."
  in
  Arg.(value & flag & info [ "r"; "relational" ] ~doc)

(* load a pattern tree in either front-end syntax *)
let load_tree ~relational query =
  let src = if Sys.file_exists query then read_file query else query in
  if relational then Wdpt.Syntax.parse src
  else
    match Rdf.Sparql.parse src with
    | Error e -> Error ("query: " ^ e)
    | Ok q ->
        if Rdf.Sparql.is_well_designed q.Rdf.Sparql.where then
          Ok (Rdf.Sparql.to_pattern_tree q)
        else Error "query: pattern is not well-designed"

let load_db ~relational path =
  let doc = read_file path in
  if relational then Wdpt.Syntax.parse_database doc
  else
    match Rdf.Graph.of_string doc with
    | Error e -> Error ("data: " ^ e)
    | Ok g -> Ok (Rdf.Graph.database g)

let data_arg =
  let doc = "Triple data file (one 's p o' triple per line)." in
  Arg.(required & opt (some file) None & info [ "d"; "data" ] ~docv:"FILE" ~doc)

let k_arg =
  let doc = "Width bound k." in
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc)

let width_arg =
  let doc = "Width notion: tw (treewidth) or hw (β-hypertreewidth)." in
  Arg.(value & opt (enum [ ("tw", Wdpt.Classes.Tw); ("hw", Wdpt.Classes.Hw') ]) Wdpt.Classes.Tw
       & info [ "w"; "width" ] ~docv:"WIDTH" ~doc)

let or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline e;
      exit 1

(* --morsel-rows is validated against the bounds Engine.set_morsel_rows
   clamps to (an out-of-bounds value is an error here, not a silent clamp),
   then applied for the duration of the command. Unset, the ambient size
   (WDPT_ENGINE_MORSEL, default 1024) stays. *)
let morsel_rows_arg =
  let doc =
    Printf.sprintf
      "Morsel size: rows per batch group of the vectorized interpreter \
       (1-%d; default 1024). Overrides WDPT_ENGINE_MORSEL."
      Engine.morsel_cap
  in
  Arg.(value & opt (some int) None & info [ "morsel-rows" ] ~docv:"N" ~doc)

let apply_morsel_rows = function
  | Some n when n < 1 || n > Engine.morsel_cap ->
      or_die
        (Error
           (Printf.sprintf "--morsel-rows %d: morsel size must be within 1..%d"
              n Engine.morsel_cap))
  | Some n -> Engine.set_morsel_rows n
  | None -> ()

let max_mem_arg =
  let doc =
    "Admission control: reject the command with exit code 3 when the \
     certified resource envelope of the compiled plan exceeds $(docv) \
     bytes. The envelope is the static peak-memory bound certified by the \
     batch-pipeline auditor (the $(b,resource:) block of $(b,explain))."
  in
  Arg.(value & opt (some int) None & info [ "max-mem" ] ~docv:"BYTES" ~doc)

(* Exit code 3 is reserved for admission rejections, so scripts can tell
   "too expensive under --max-mem" from diagnostic findings (1/2). *)
let exit_admission_reject = 3

(* The gate certifies the full-tree plan: the widest CQ the evaluation
   compiles (per-node plans are plans of sub-bodies, so its envelope
   dominates theirs under the same configuration). Evaluation runs
   sequentially, so there is nothing to fall back to: over budget is a
   rejection. *)
let admission_gate ~budget db q =
  match budget with
  | None -> ()
  | Some budget ->
      let atoms = Cq.Query.body q in
      let plan = Engine.compile db atoms ~init:Relational.Mapping.empty in
      let r = Analysis.Resource.of_plan plan in
      if not (Analysis.Resource.admits r ~budget) then begin
        Format.eprintf
          "max-mem: rejected — certified peak %d byte(s)%s exceeds the \
           %d-byte budget@."
          r.Analysis.Resource.r_peak_bytes
          (if r.Analysis.Resource.r_saturated then ", saturated" else "")
          budget;
        exit exit_admission_reject
      end

let eval_cmd =
  let run query data maximal relational limit offset morsel_rows max_mem =
    apply_morsel_rows morsel_rows;
    let p = or_die (load_tree ~relational query) in
    let db = or_die (load_db ~relational data) in
    admission_gate ~budget:max_mem db (Wdpt.Pattern_tree.q_full p);
    let print_answer h = Format.printf "%a@." Relational.Mapping.pp h in
    if limit = None && offset = 0 then begin
      (* exact answer set, cardinality first *)
      let ans =
        if maximal then Wdpt.Semantics.eval_max db p
        else Wdpt.Semantics.eval db p
      in
      Format.printf "%d answer(s)@." (Relational.Mapping.Set.cardinal ans);
      List.iter print_answer (Relational.Mapping.Set.elements ans)
    end
    else if (not maximal) && Wdpt.Pattern_tree.node_count p = 1 then begin
      (* a single-node tree is a plain projection of its root body, so the
         page streams straight off the enumeration (first-seen order) and
         stops as soon as it is full — nothing is materialized *)
      let q = Wdpt.Pattern_tree.q_full p in
      let shown =
        Engine.stream_projections db (Cq.Query.body q)
          ~init:Relational.Mapping.empty ~onto:(Cq.Query.head q) ~offset ~limit
          print_answer
      in
      Format.printf "%d answer(s) shown, offset %d (streamed)@." shown offset
    end
    else if not maximal then begin
      (* tree-shaped (OPT) queries stream too: every hom the procedural
         enumeration yields is already maximal, so its projection is an
         answer on first sight — the page short-circuits with a buffer
         bounded by offset+limit instead of materializing the answer set *)
      let shown = Wdpt.Semantics.stream_eval db p ~offset ~limit print_answer in
      Format.printf "%d answer(s) shown, offset %d (streamed)@." shown offset
    end
    else begin
      (* maximal semantics needs the full answer set; page the sorted
         elements *)
      let ans = Wdpt.Semantics.eval_max db p in
      let total = Relational.Mapping.Set.cardinal ans in
      let shown = ref 0 in
      (try
         List.iteri
           (fun i h ->
             if i >= offset then begin
               (match limit with
               | Some l when !shown >= l -> raise Exit
               | _ -> ());
               print_answer h;
               incr shown
             end)
           (Relational.Mapping.Set.elements ans)
       with Exit -> ());
      Format.printf "%d of %d answer(s) shown, offset %d@." !shown total offset
    end
  in
  let maximal =
    Arg.(value & flag & info [ "m"; "maximal" ] ~doc:"Maximal-mappings semantics (Section 3.4).")
  in
  let limit =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N"
             ~doc:"Print at most $(docv) answers. Under eval semantics the \
                   page is streamed — single-node queries off the engine's \
                   projection stream, tree-shaped (OPT) queries off the \
                   procedural enumeration, whose homs are maximal on first \
                   sight — so enumeration short-circuits as soon as the page \
                   is full instead of materializing the answer set (answers \
                   arrive in first-seen order). Only --maximal materializes.")
  in
  let offset =
    Arg.(value & opt int 0
         & info [ "offset" ] ~docv:"N"
             ~doc:"Skip the first $(docv) answers of the page.")
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate a well-designed query ({AND,OPT}-SPARQL, or pattern-tree syntax with -r).")
    Term.(const run $ query_arg $ data_arg $ maximal $ relational_arg $ limit
          $ offset $ morsel_rows_arg $ max_mem_arg)

(* shared by watch, lint and explain; the lint -j flag stays as an alias *)
let format_arg =
  let doc = "Output format: $(b,text) or $(b,json). The JSON diagnostic \
             schema (codes, spans, witnesses, fixes) is documented in the \
             README." in
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FORMAT" ~doc)

(* -- watch: standing query over a replayed fact stream ------------------- *)

(* Batch files: one change per line, '+' to insert and '-' to delete, the
   fact in the data syntax of the active mode ('R(1, foo)' with -r, 's p o'
   triples otherwise). A blank line or '---' closes the batch; '#' starts a
   comment. Each closed batch is applied as one Database.add/remove window
   and refreshed as one delta. *)
let parse_batches ~relational path =
  let parse_fact lineno body =
    let r =
      if relational then Wdpt.Syntax.parse_fact body
      else Result.map Rdf.Triple.to_fact (Rdf.Graph.triple_of_line body)
    in
    match r with
    | Ok f -> f
    | Error e -> or_die (Error (Printf.sprintf "%s:%d: %s" path lineno e))
  in
  let batches = ref [] and current = ref [] in
  let close () =
    if !current <> [] then begin
      batches := List.rev !current :: !batches;
      current := []
    end
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let line = String.trim line in
      if line = "" || line = "---" then close ()
      else
        let body () = String.trim (String.sub line 1 (String.length line - 1)) in
        match line.[0] with
        | '+' -> current := `Add (parse_fact lineno (body ())) :: !current
        | '-' -> current := `Remove (parse_fact lineno (body ())) :: !current
        | _ ->
            or_die
              (Error
                 (Printf.sprintf
                    "%s:%d: expected '+fact', '-fact', '---' or a blank line"
                    path lineno)))
    (String.split_on_char '\n' (read_file path));
  close ();
  List.rev !batches

let value_json v =
  match v with
  | Relational.Value.Int n -> Analysis.Json.Int n
  | Relational.Value.Str s -> Analysis.Json.Str s

let mapping_json h =
  Analysis.Json.Obj
    (List.map (fun (x, v) -> (x, value_json v)) (Relational.Mapping.bindings h))

let event_json (e : Wdpt.Standing.event) =
  let open Analysis.Json in
  match e with
  | Added { answer; maximal } ->
      Obj
        [ ("kind", Str "added");
          ("answer", mapping_json answer);
          ("maximal", Bool maximal) ]
  | Removed { answer; was_maximal } ->
      Obj
        [ ("kind", Str "removed");
          ("answer", mapping_json answer);
          ("was-maximal", Bool was_maximal) ]
  | Promoted answer -> Obj [ ("kind", Str "promoted"); ("answer", mapping_json answer) ]
  | Demoted answer -> Obj [ ("kind", Str "demoted"); ("answer", mapping_json answer) ]

let watch_cmd =
  let run query data batches_path relational format audit =
    let p = or_die (load_tree ~relational query) in
    let db =
      match data with
      | Some path -> or_die (load_db ~relational path)
      | None -> Relational.Database.create ()
    in
    let batches = parse_batches ~relational batches_path in
    let st = Wdpt.Standing.register db p in
    let counts () =
      ( Relational.Mapping.Set.cardinal (Wdpt.Standing.answers st),
        Relational.Mapping.Set.cardinal (Wdpt.Standing.maximal_answers st) )
    in
    let emit_json fields =
      Format.printf "%a@." Analysis.Json.pp
        (Analysis.Json.Obj
           (("schema", Analysis.Json.Int Analysis.Json.schema_version)
           :: fields))
    in
    let n0, m0 = counts () in
    (match format with
    | `Json ->
        emit_json
          [ ("registered", Analysis.Json.Bool true);
            ("version", Analysis.Json.Int (Wdpt.Standing.version st));
            ("answers", Analysis.Json.Int n0);
            ("maximal", Analysis.Json.Int m0) ]
    | `Text ->
        Format.printf "registered: %d answer(s), %d maximal, version %d@." n0
          m0 (Wdpt.Standing.version st));
    let audit_failures = ref 0 in
    List.iteri
      (fun i ops ->
        List.iter
          (fun op ->
            match op with
            | `Add f -> Relational.Database.add db f
            | `Remove f -> Relational.Database.remove db f)
          ops;
        let evs = Wdpt.Standing.refresh st in
        let s = Wdpt.Standing.stats st in
        let ds = if audit then Analysis.Delta_audit.audit st else [] in
        if ds <> [] then incr audit_failures;
        let n, m = counts () in
        match format with
        | `Json ->
            emit_json
              ([ ("batch", Analysis.Json.Int (i + 1));
                 ("version", Analysis.Json.Int (Wdpt.Standing.version st));
                 ("added", Analysis.Json.Int s.Wdpt.Standing.last_batch_added);
                 ("removed", Analysis.Json.Int s.Wdpt.Standing.last_batch_removed);
                 ("dirty", Analysis.Json.Int s.Wdpt.Standing.last_dirty);
                 ("recomputed", Analysis.Json.Int s.Wdpt.Standing.last_recomputed);
                 ("events", Analysis.Json.List (List.map event_json evs));
                 ("answers", Analysis.Json.Int n);
                 ("maximal", Analysis.Json.Int m) ]
              @
              if audit then
                [ ("audit", Analysis.Diagnostic.report_json ds) ]
              else [])
        | `Text ->
            Format.printf "batch %d: +%d -%d, %d dirty, %d recomputed -> %d event(s), %d answer(s), %d maximal@."
              (i + 1) s.Wdpt.Standing.last_batch_added
              s.Wdpt.Standing.last_batch_removed s.Wdpt.Standing.last_dirty
              s.Wdpt.Standing.last_recomputed (List.length evs) n m;
            List.iter
              (fun (e : Wdpt.Standing.event) ->
                match e with
                | Added { answer; maximal } ->
                    Format.printf "  + %a%s@." Relational.Mapping.pp answer
                      (if maximal then " (maximal)" else "")
                | Removed { answer; was_maximal } ->
                    Format.printf "  - %a%s@." Relational.Mapping.pp answer
                      (if was_maximal then " (was maximal)" else "")
                | Promoted a ->
                    Format.printf "  promoted %a@." Relational.Mapping.pp a
                | Demoted a ->
                    Format.printf "  demoted %a@." Relational.Mapping.pp a)
              evs;
            List.iter (Format.printf "  %a@." Analysis.Diagnostic.pp) ds)
      batches;
    if !audit_failures > 0 then exit 2
  in
  let data_opt =
    Arg.(value & opt (some file) None
         & info [ "d"; "data" ] ~docv:"FILE"
             ~doc:"Initial data to register against; defaults to an empty \
                   database.")
  in
  let batches_arg =
    let doc =
      "Change stream to replay: lines '+FACT' (insert) and '-FACT' (delete), \
       batches separated by blank lines or '---', '#' comments. Facts use \
       the data syntax of the active mode."
    in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"BATCHES" ~doc)
  in
  let audit_arg =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"After every refresh, run the delta-maintenance auditor \
                   (E027-E030) over the standing view and report its \
                   findings; exit 2 if any batch fails.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Register the query as a standing view and replay a change \
             stream against it, printing the answer change set (added / \
             removed / promoted / demoted events) after every batch instead \
             of re-evaluating from scratch. With --format json, one \
             schema-tagged JSON document per batch.")
    Term.(const run $ query_arg $ data_opt $ batches_arg $ relational_arg
          $ format_arg $ audit_arg)

let classify_cmd =
  let run query k relational =
    let p = or_die (load_tree ~relational query) in
    Format.printf "well-designed:        true@.";
    Format.printf "nodes:                %d@." (Wdpt.Pattern_tree.node_count p);
    Format.printf "size (atoms):         %d@." (Wdpt.Pattern_tree.size p);
    Format.printf "projection-free:      %b@." (Wdpt.Pattern_tree.is_projection_free p);
    Format.printf "interface (least c):  %d@." (Wdpt.Classes.interface p);
    Format.printf "locally in TW(%d):     %b@." k (Wdpt.Classes.locally_in ~width:Tw ~k p);
    Format.printf "locally in HW(%d):     %b@." k (Wdpt.Classes.locally_in ~width:Hw ~k p);
    Format.printf "globally in TW(%d):    %b@." k (Wdpt.Classes.globally_in ~width:Tw ~k p);
    Format.printf "globally in HW(%d):    %b@." k (Wdpt.Classes.globally_in ~width:Hw ~k p);
    Format.printf "in WB(%d) [g-TW]:      %b@." k (Wdpt.Classes.in_wb ~width:Tw ~k p);
    let q_full = Wdpt.Pattern_tree.q_full p in
    Format.printf "full-tree treewidth:  %d@." (Cq.Query.treewidth q_full)
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Fragment membership per Section 3 of the paper.")
    Term.(const run $ query_arg $ k_arg $ relational_arg)

let approximate_cmd =
  let run query k width relational =
    let p = or_die (load_tree ~relational query) in
    let print_tree a =
      if relational then Format.printf "%a@." Wdpt.Pattern_tree.pp a
      else Format.printf "%a@." Rdf.Sparql.pp_query (Rdf.Sparql.of_pattern_tree a)
    in
    if Wdpt.Classes.in_wb ~width ~k p then
      Format.printf "query already in WB(%d); it is its own approximation@." k
    else begin
      let apps = Wdpt.Approximation.wb_approximations ~width ~k p in
      Format.printf "%d WB(%d)-approximation(s)@." (List.length apps) k;
      List.iter print_tree apps
    end
  in
  Cmd.v
    (Cmd.info "approximate" ~doc:"WB(k)-approximations (Section 5.2).")
    Term.(const run $ query_arg $ k_arg $ width_arg $ relational_arg)

let optimize_cmd =
  let run query k relational data =
    let p = or_die (load_tree ~relational query) in
    let db =
      Option.map (fun path -> or_die (load_db ~relational path)) data
    in
    let pl = Wdpt.Optimizer.plan ?db ~k p in
    Format.printf "plan: %s@." (Wdpt.Optimizer.describe pl);
    match db with
    | None -> ()
    | Some db ->
        let ans = Wdpt.Optimizer.eval pl db in
        Format.printf "%d answer(s)%s@."
          (Relational.Mapping.Set.cardinal ans)
          (if Wdpt.Optimizer.complete pl then ""
           else " (sound approximation: a subset of the exact answers)");
        List.iter
          (fun h -> Format.printf "%a@." Relational.Mapping.pp h)
          (Relational.Mapping.Set.elements ans)
  in
  let data_opt =
    Arg.(value & opt (some file) None
         & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Optional data to evaluate through the plan.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Pick an evaluation strategy (Sections 3-5) and optionally run it.")
    Term.(const run $ query_arg $ k_arg $ relational_arg $ data_opt)

let union_cmd =
  let run query k data =
    let src = if Sys.file_exists query then read_file query else query in
    let u = or_die (Wdpt.Syntax.parse_union src) in
    Format.printf "union of %d WDPT(s)@." (List.length u);
    Format.printf "in M(UWB(%d)) [Theorem 17]: %b@." k
      (Wdpt.Union.in_m_uwb ~width:Tw ~k u);
    (match Wdpt.Union.uwb_witness ~width:Tw ~k u with
    | Some w ->
        Format.printf "equivalent UWB(%d) union (%d disjuncts):@." k (List.length w);
        List.iter (fun p -> Format.printf "  %a@." Wdpt.Pattern_tree.pp p) w
    | None ->
        let app = Wdpt.Union.uwb_approximation ~width:Tw ~k u in
        Format.printf "UWB(%d)-approximation [Theorem 18] (%d disjuncts):@." k
          (List.length app);
        List.iter (fun p -> Format.printf "  %a@." Wdpt.Pattern_tree.pp p) app);
    match data with
    | None -> ()
    | Some path ->
        let db = or_die (load_db ~relational:true path) in
        let ans = Wdpt.Union.eval db u in
        Format.printf "%d answer(s)@." (Relational.Mapping.Set.cardinal ans);
        List.iter
          (fun h -> Format.printf "%a@." Relational.Mapping.pp h)
          (Relational.Mapping.Set.elements ans)
  in
  let data_opt =
    Arg.(value & opt (some file) None
         & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Optional facts file to evaluate over.")
  in
  Cmd.v
    (Cmd.info "union"
       ~doc:"Unions of WDPTs (Section 6): membership, witness/approximation, evaluation. \
             Query syntax: pattern-tree disjuncts separated by UNION.")
    Term.(const run $ query_arg $ k_arg $ data_opt)

(* lint and check share the analyzer front end *)
let lint_source ~relational query =
  let src = if Sys.file_exists query then read_file query else query in
  if relational then Analysis.Lint.lint_relational src
  else Analysis.Lint.lint_sparql src

let json_arg =
  Arg.(value & flag
       & info [ "j"; "json" ] ~doc:"Emit the diagnostics as a JSON report (same as --format json).")

let lint_cmd =
  let run query json format relational =
    let json = json || format = `Json in
    let ds = lint_source ~relational query in
    if json then
      Format.printf "%a@." Analysis.Json.pp (Analysis.Diagnostic.report_json ds)
    else if ds = [] then Format.printf "no findings@."
    else List.iter (Format.printf "%a@." Analysis.Diagnostic.pp) ds;
    exit (Analysis.Diagnostic.exit_code ds)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis: well-designedness witnesses, unsafe free \
             variables, unsatisfiable nodes, redundant atoms, cartesian \
             products, dead OPT branches, class membership. Exit code 0 = \
             clean (hints only), 1 = warnings, 2 = errors.")
    Term.(const run $ query_arg $ json_arg $ format_arg $ relational_arg)

let explain_cmd =
  let run query data format relational opt morsel_rows max_mem drift =
    apply_morsel_rows morsel_rows;
    let lint_ds = lint_source ~relational query in
    let fatal =
      List.exists
        (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
        lint_ds
    in
    if fatal then begin
      (* the query does not compile to a plan: report like lint and stop *)
      (if format = `Json then
         Format.printf "%a@." Analysis.Json.pp
           (Analysis.Diagnostic.report_json lint_ds)
       else List.iter (Format.printf "%a@." Analysis.Diagnostic.pp) lint_ds);
      exit (Analysis.Diagnostic.exit_code lint_ds)
    end;
    let p = or_die (load_tree ~relational query) in
    let q = Wdpt.Pattern_tree.q_full p in
    let db =
      match data with
      | Some path -> or_die (load_db ~relational path)
      | None ->
          (* no data given: explain against the canonical database of the
             full-tree query, which the plan matches by construction *)
          fst (Cq.Query.freeze q)
    in
    let atoms = Cq.Query.body q in
    let plan = Engine.compile db atoms ~init:Relational.Mapping.empty in
    let view = Engine.Inspect.plan plan in
    let audit_ds = Analysis.Plan_audit.audit_view view in
    let equiv = if opt then Some (Analysis.Equiv.verify_trail plan) else None in
    let dataflow = if opt then Some (Analysis.Dataflow.analyze view) else None in
    let equiv_ds =
      match equiv with None -> [] | Some r -> Analysis.Equiv.diagnostics r
    in
    let bview = Engine.Inspect.batch plan in
    let batch_ds = Analysis.Batch_audit.audit_view view bview in
    let resource = Analysis.Resource.analyze view bview in
    let admitted =
      Option.map
        (fun budget -> Analysis.Resource.admits resource ~budget)
        max_mem
    in
    (* --drift: one counting evaluation over the plan collects the genuine
       per-atom counters; the feedback view and its audit are reported. E022
       findings are warnings, so a drift-y query exits 1, not 2. *)
    let feedback =
      if not drift then None
      else begin
        ignore (Engine.count_envs plan);
        Some (Engine.Inspect.feedback plan, Analysis.Feedback.audit plan)
      end
    in
    let feedback_ds = match feedback with None -> [] | Some (_, fds) -> fds in
    let ds = lint_ds @ audit_ds @ equiv_ds @ batch_ds @ feedback_ds in
    let exit_code =
      match admitted with
      | Some false -> exit_admission_reject
      | _ -> Analysis.Diagnostic.exit_code ds
    in
    let resource_json =
      let base =
        match Analysis.Resource.to_json resource with
        | Analysis.Json.Obj fields -> fields
        | j -> [ ("envelope", j) ]
      in
      Analysis.Json.Obj
        (base
        @
        match (max_mem, admitted) with
        | Some budget, Some ok ->
            [ ("budget", Analysis.Json.Int budget);
              ("admitted", Analysis.Json.Bool ok) ]
        | _ -> [])
    in
    let cost = Analysis.Cost.analyze db atoms ~free:(Wdpt.Pattern_tree.free p) in
    let feedback_json =
      match feedback with
      | None -> Analysis.Json.Obj [ ("enabled", Analysis.Json.Bool false) ]
      | Some (fview, fds) ->
          Analysis.Json.Obj
            [ ("enabled", Analysis.Json.Bool true);
              ("view", Analysis.Feedback.view_json fview);
              ("audit", Analysis.Diagnostic.report_json fds) ]
    in
    let tree_growth = Analysis.Cost.tree_growth p in
    (match format with
    | `Json ->
        let tree_json =
          Analysis.Json.Obj
            (("growth", Analysis.Cost.growth_json tree_growth)
            ::
            (match Analysis.Cost.tree_class p with
            | Some (k, c) ->
                [ ("local-tw", Analysis.Json.Int k); ("interface", Int c) ]
            | None -> []))
        in
        let opt_fields =
          match (equiv, dataflow) with
          | Some r, Some df ->
              [ ("optimization", Analysis.Equiv.report_json r);
                ("dataflow", Analysis.Dataflow.to_json df) ]
          | _ -> []
        in
        Format.printf "%a@." Analysis.Json.pp
          (Analysis.Json.Obj
             ([ ("schema", Analysis.Json.Int Analysis.Json.schema_version);
                ("version", Analysis.Json.Int 1);
                ("plan", Analysis.Plan_audit.view_json view);
                ("audit", Analysis.Diagnostic.report_json ds) ]
             @ opt_fields
             @ [ ("cost", Analysis.Cost.to_json cost);
                 ("batch", Analysis.Batch_audit.batch_json bview);
                 ("batch_audit", Analysis.Diagnostic.report_json batch_ds);
                 ("resource", resource_json);
                 ("feedback", feedback_json);
                 ("tree", tree_json);
                 ("exit-code", Analysis.Json.Int exit_code) ]))
    | `Text ->
        Format.printf "@[<v>plan:@,%a@]@." Analysis.Plan_audit.pp_view view;
        if ds = [] then Format.printf "audit: clean@."
        else begin
          Format.printf "audit:@.";
          List.iter (Format.printf "  %a@." Analysis.Diagnostic.pp) ds
        end;
        (match equiv with
        | Some r ->
            Format.printf "@[<v>optimization:@,%a@]@." Analysis.Equiv.pp_report r
        | None -> ());
        (match dataflow with
        | Some df ->
            Format.printf "@[<v>dataflow:@,%a@]@." Analysis.Dataflow.pp df
        | None -> ());
        Format.printf "@[<v>cost:@,%a@]@." Analysis.Cost.pp cost;
        Format.printf "@[<v>%a@]@." Analysis.Batch_audit.pp_batch bview;
        (if batch_ds = [] then Format.printf "batch-audit: clean@."
         else begin
           Format.printf "batch-audit:@.";
           List.iter (Format.printf "  %a@." Analysis.Diagnostic.pp) batch_ds
         end);
        Format.printf "@[<v>resource:@,%a@]@." Analysis.Resource.pp resource;
        (match (max_mem, admitted) with
        | Some budget, Some ok ->
            Format.printf
              "admission: %s — certified peak %d byte(s), budget %d byte(s)@."
              (if ok then "admit" else "reject (exit 3)")
              resource.Analysis.Resource.r_peak_bytes budget
        | _ -> ());
        (match feedback with
        | None -> ()
        | Some (fview, fds) ->
            Format.printf "@[<v>%a@]@." Analysis.Feedback.pp_view fview;
            Format.printf "@[<v>%a@]@." Analysis.Feedback.pp_report fds);
        Format.printf "tree: %a%s@." Analysis.Cost.pp_growth tree_growth
          (match Analysis.Cost.tree_class p with
          | Some (k, c) ->
              Printf.sprintf " (locally TW(%d), interface %d)" k c
          | None -> ""));
    exit exit_code
  in
  let data_opt =
    Arg.(value & opt (some file) None
         & info [ "d"; "data" ] ~docv:"FILE"
             ~doc:"Data to compile against; defaults to the query's canonical \
                   database.")
  in
  let opt_arg =
    Arg.(value & flag
         & info [ "opt" ]
             ~doc:"Re-verify every pass certificate of the optimized plan \
                   (translation validation, E007-E010) and print the pass \
                   trail plus the dataflow summary of the optimized plan.")
  in
  let drift_arg =
    Arg.(value & flag
         & info [ "drift" ]
             ~doc:"Run one counting evaluation over the plan to collect \
                   per-atom cardinality feedback, then print the \
                   estimate-vs-actual selectivity table and the feedback \
                   audit verdict (E022, E023, E026); in JSON the report \
                   lands under the schema-stable $(b,feedback) key. \
                   Estimate-drift findings (E022) are warnings: exit 1, \
                   not 2.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Compile the query and print the engine plan, the static audit \
             verdict (E-series diagnostics over the IR) and width-based cost \
             bounds. With $(b,--opt), also the optimization pass trail with \
             per-pass translation-validation verdicts and the dataflow \
             summary. Also reports the batched-execution decision (stage \
             pipeline, columnar layout, morsel geometry), audits the \
             batched layout (E017-E020) and certifies a resource \
             envelope for admission control ($(b,--max-mem)). With \
             $(b,--drift), collects runtime cardinality feedback and audits \
             it (E022, E023, E026). Exit codes match $(b,lint): 0 = \
             clean, 1 = warnings, 2 = errors; 3 = rejected by \
             $(b,--max-mem).")
    Term.(const run $ query_arg $ data_opt $ format_arg $ relational_arg
          $ opt_arg $ morsel_rows_arg $ max_mem_arg $ drift_arg)

let check_cmd =
  let run query relational =
    let errors =
      List.filter
        (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
        (lint_source ~relational query)
    in
    if errors = [] then begin
      let p = or_die (load_tree ~relational query) in
      Format.printf "well-designed: true@.%a@." Wdpt.Pattern_tree.pp p;
      exit 0
    end
    else begin
      Format.printf "well-designed: false@.";
      List.iter (Format.printf "%a@." Analysis.Diagnostic.pp) errors;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check well-designedness and show the pattern tree; failures name \
             the violating variable and nodes (see also $(b,lint)).")
    Term.(const run $ query_arg $ relational_arg)

let () =
  let info =
    Cmd.info "wdpt" ~version:"1.0.0"
      ~doc:"Well-designed pattern trees: evaluation, classification, approximation."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ eval_cmd;
            watch_cmd;
            classify_cmd;
            approximate_cmd;
            optimize_cmd;
            union_cmd;
            check_cmd;
            lint_cmd;
            explain_cmd ]))
