open Relational
module Loc = Wdpt.Loc

type severity = Error | Warning | Hint

type code =
  | Parse_error
  | Not_well_designed
  | Unsafe_free
  | Unsatisfiable
  | Redundant_atom
  | Cartesian_product
  | Dead_branch
  | Class_membership
  | Uninit_slot_read
  | Interner_range
  | Plan_arity_mismatch
  | Dead_slot
  | Order_inversion
  | Stale_plan
  | Slot_renaming
  | Dropped_check
  | Reorder_violation
  | Cert_mismatch
  | Stage_read_before_bind
  | Column_aliasing
  | Position_cover
  | Filter_binds
  | Resource_envelope
  | Drift
  | Counter_coverage
  | Collector_inconsistent
  | Delta_dirty
  | Frontier_nonmaximal
  | Support_mismatch
  | Event_mismatch

let code_id = function
  | Parse_error -> "S001"
  | Not_well_designed -> "W001"
  | Unsafe_free -> "W002"
  | Unsatisfiable -> "W003"
  | Redundant_atom -> "W004"
  | Cartesian_product -> "W005"
  | Dead_branch -> "W006"
  | Class_membership -> "W007"
  | Uninit_slot_read -> "E001"
  | Interner_range -> "E002"
  | Plan_arity_mismatch -> "E003"
  | Dead_slot -> "E004"
  | Order_inversion -> "E005"
  | Stale_plan -> "E006"
  | Slot_renaming -> "E007"
  | Dropped_check -> "E008"
  | Reorder_violation -> "E009"
  | Cert_mismatch -> "E010"
  | Stage_read_before_bind -> "E017"
  | Column_aliasing -> "E018"
  | Position_cover -> "E019"
  | Filter_binds -> "E020"
  | Resource_envelope -> "E021"
  | Drift -> "E022"
  | Counter_coverage -> "E023"
  | Collector_inconsistent -> "E026"
  | Delta_dirty -> "E027"
  | Frontier_nonmaximal -> "E028"
  | Support_mismatch -> "E029"
  | Event_mismatch -> "E030"

let code_name = function
  | Parse_error -> "parse-error"
  | Not_well_designed -> "not-well-designed"
  | Unsafe_free -> "unsafe-free-variable"
  | Unsatisfiable -> "unsatisfiable"
  | Redundant_atom -> "redundant-atom"
  | Cartesian_product -> "cartesian-product"
  | Dead_branch -> "dead-branch"
  | Class_membership -> "class-membership"
  | Uninit_slot_read -> "uninitialized-slot-read"
  | Interner_range -> "interner-id-out-of-range"
  | Plan_arity_mismatch -> "plan-arity-mismatch"
  | Dead_slot -> "dead-slot"
  | Order_inversion -> "atom-order-inversion"
  | Stale_plan -> "stale-plan-cache"
  | Slot_renaming -> "unjustified-slot-renaming"
  | Dropped_check -> "dropped-check"
  | Reorder_violation -> "reorder-violates-dependency"
  | Cert_mismatch -> "certificate-plan-mismatch"
  | Stage_read_before_bind -> "stage-read-before-bind"
  | Column_aliasing -> "column-aliasing"
  | Position_cover -> "incomplete-position-cover"
  | Filter_binds -> "filter-stage-binds"
  | Resource_envelope -> "unsound-resource-envelope"
  | Drift -> "estimate-drift"
  | Counter_coverage -> "counter-coverage"
  | Collector_inconsistent -> "inconsistent-collector"
  | Delta_dirty -> "delta-dirty-coverage"
  | Frontier_nonmaximal -> "frontier-nonmaximal"
  | Support_mismatch -> "delta-support-mismatch"
  | Event_mismatch -> "delta-event-mismatch"

let code_severity = function
  | Parse_error | Not_well_designed | Unsafe_free -> Error
  | Unsatisfiable | Redundant_atom | Cartesian_product | Dead_branch -> Warning
  | Class_membership -> Hint
  | Uninit_slot_read | Interner_range | Plan_arity_mismatch | Stale_plan -> Error
  | Dead_slot | Order_inversion -> Warning
  | Slot_renaming | Dropped_check | Reorder_violation | Cert_mismatch -> Error
  | Stage_read_before_bind | Column_aliasing | Position_cover | Filter_binds
  | Resource_envelope ->
      Error
  (* drift is evidence the estimates were off, not that anything computed a
     wrong answer — the other two mean the collector itself is broken *)
  | Drift -> Warning
  | Counter_coverage | Collector_inconsistent -> Error
  | Delta_dirty | Frontier_nonmaximal | Support_mismatch | Event_mismatch ->
      Error

type witness =
  | Disconnected of { variable : string; top : int; stray : int; broken_at : int }
  | Escaping of { variable : string; subpattern : string }
  | Missing_free of string
  | Duplicate_free of string
  | Arity_clash of {
      relation : string;
      node_a : int;
      arity_a : int;
      node_b : int;
      arity_b : int;
    }
  | Redundant of { node : int; atom : Atom.t; rule : Wdpt.Simplify.reason }
  | Cartesian of { node : int; components : string list list }
  | Dead of { node : int }
  | Membership of { local_tw : int; interface : int; wb_tw : int }
  | Slot_range of { atom : int; op : int; slot : int; env : int }
  | Id_range of { site : string; id : int; pool : int }
  | Plan_arity of { atom : int; relation : string; ops : int; arity : int; index : int }
  | Dead_slot_of of { slot : int; variable : string }
  | Inversion of {
      first : int;
      rows_first : int;
      score_first : float;
      ground_first : bool;
      second : int;
      rows_second : int;
      score_second : float;
      ground_second : bool;
    }
  | Stale of { compiled : int; live : int }
  | Extended of { compiled : int; store : int; live : int }
  | Renamed of { pass : string; slot : int; variable : string; target : int }
  | Dropped of { pass : string; atom : int; pos : int; before : string; after : string }
  | Reordered of { pass : string; position : int; atom : int; detail : string }
  | Cert of { pass : string; field : string; detail : string }
  | Read_before_bind of { stage : int; atom : int; pos : int; slot : int; binder : int }
  | Aliased of { slot : int; first_stage : int; second_stage : int; init : bool }
  | Cover of { stage : int; atom : int; arity : int; covered : int; missing : int }
  | Filter_bind of { stage : int; atom : int; binds : int; streamed : bool }
  | Envelope of { component : string; certified : int; measured : int }
  | Drifted of {
      atom : int;
      estimated : float;  (* static log10 selectivity estimate *)
      observed : float;  (* log10 (survived / contexts) *)
      threshold : float;
      contexts : int;
      probed : int;
      survived : int;
    }
  | Counter_of of { atom : int; detail : string }
  | Collector_of of {
      atom : int;
      survived : int;
      runs : int;
      bound : float;  (* sound log10 ceiling on survivors *)
    }
  | Dirty_of of { atom : int; pos : int; value : string; fact : string }
  | Frontier_of of { group : string; answer : string; against : string; detail : string }
  | Support_of of { group : string; answer : string; stored : int; derived : int; detail : string }
  | Event_of of { answer : string; level : string; detail : string }

type fix =
  | Apply_rewrite of Wdpt.Simplify.rewrite
  | Remove_free of string

type t = {
  code : code;
  severity : severity;
  span : Loc.span option;
  message : string;
  witness : witness option;
  fix : fix option;
}

let make ?span ?witness ?fix code message =
  { code; severity = code_severity code; span; message; witness; fix }

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let exit_code ds =
  if List.exists (fun d -> d.severity = Error) ds then 2
  else if List.exists (fun d -> d.severity = Warning) ds then 1
  else 0

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let pp ppf d =
  match d.span with
  | Some span ->
      Format.fprintf ppf "%s %s %a: %s" (code_id d.code)
        (severity_string d.severity) Loc.pp_span span d.message
  | None ->
      Format.fprintf ppf "%s %s: %s" (code_id d.code)
        (severity_string d.severity) d.message

(* ---- JSON --------------------------------------------------------------- *)

let atom_string a = Format.asprintf "%a" Atom.pp a

let pos_json (p : Loc.pos) = Json.Obj [ ("line", Int p.line); ("col", Int p.col) ]

let span_json (s : Loc.span) =
  Json.Obj [ ("start", pos_json s.start); ("end", pos_json s.stop) ]

let rule_fields (r : Wdpt.Simplify.reason) =
  match r with
  | Duplicate_in_node -> [ ("rule", Json.Str "duplicate-in-node") ]
  | Duplicate_in_ancestor i ->
      [ ("rule", Json.Str "duplicate-in-ancestor"); ("ancestor", Int i) ]
  | Foldable -> [ ("rule", Json.Str "foldable") ]

let witness_json w =
  let kind k fields = Json.Obj (("kind", Json.Str k) :: fields) in
  match w with
  | Disconnected { variable; top; stray; broken_at } ->
      kind "disconnected-variable"
        [ ("variable", Str variable);
          ("nodes", List [ Int top; Int stray ]);
          ("broken-at", Int broken_at) ]
  | Escaping { variable; subpattern } ->
      kind "escaping-variable"
        [ ("variable", Str variable); ("subpattern", Str subpattern) ]
  | Missing_free x -> kind "missing-free-variable" [ ("variable", Str x) ]
  | Duplicate_free x -> kind "duplicate-free-variable" [ ("variable", Str x) ]
  | Arity_clash { relation; node_a; arity_a; node_b; arity_b } ->
      kind "arity-clash"
        [ ("relation", Str relation);
          ( "uses",
            List
              [ Obj [ ("node", Int node_a); ("arity", Int arity_a) ];
                Obj [ ("node", Int node_b); ("arity", Int arity_b) ] ] ) ]
  | Redundant { node; atom; rule } ->
      kind "redundant-atom"
        ([ ("node", Json.Int node); ("atom", Json.Str (atom_string atom)) ]
        @ rule_fields rule)
  | Cartesian { node; components } ->
      kind "cartesian-product"
        [ ("node", Int node);
          ( "components",
            List (List.map (fun c -> Json.List (List.map (fun v -> Json.Str v) c)) components)
          ) ]
  | Dead { node } -> kind "dead-branch" [ ("node", Int node) ]
  | Membership { local_tw; interface; wb_tw } ->
      kind "class-membership"
        [ ("local-tw", Int local_tw); ("interface", Int interface); ("wb-tw", Int wb_tw) ]
  | Slot_range { atom; op; slot; env } ->
      kind "slot-out-of-range"
        [ ("atom", Int atom); ("op", Int op); ("slot", Int slot); ("env-size", Int env) ]
  | Id_range { site; id; pool } ->
      kind "interner-id-out-of-range"
        [ ("site", Str site); ("id", Int id); ("pool-size", Int pool) ]
  | Plan_arity { atom; relation; ops; arity; index } ->
      kind "plan-arity-mismatch"
        [ ("atom", Int atom);
          ("relation", Str relation);
          ("ops", Int ops);
          ("arity", Int arity);
          ("indexes", Int index) ]
  | Dead_slot_of { slot; variable } ->
      kind "dead-slot" [ ("slot", Int slot); ("variable", Str variable) ]
  | Inversion
      { first;
        rows_first;
        score_first;
        ground_first;
        second;
        rows_second;
        score_second;
        ground_second } ->
      kind "atom-order-inversion"
        [ ( "earlier",
            Obj
              [ ("atom", Int first);
                ("rows", Int rows_first);
                ("score", Float score_first);
                ("ground", Bool ground_first) ] );
          ( "later",
            Obj
              [ ("atom", Int second);
                ("rows", Int rows_second);
                ("score", Float score_second);
                ("ground", Bool ground_second) ] ) ]
  | Stale { compiled; live } ->
      kind "stale-plan-cache"
        [ ("compiled-version", Int compiled); ("live-version", Int live) ]
  | Extended { compiled; store; live } ->
      kind "incrementally-extended-plan"
        [ ("compiled-version", Int compiled);
          ("store-version", Int store);
          ("live-version", Int live) ]
  | Renamed { pass; slot; variable; target } ->
      kind "unjustified-slot-renaming"
        [ ("pass", Str pass);
          ("slot", Int slot);
          ("variable", Str variable);
          ("target", if target < 0 then Json.Null else Int target) ]
  | Dropped { pass; atom; pos; before; after } ->
      kind "dropped-check"
        [ ("pass", Str pass);
          ("atom", Int atom);
          ("position", if pos < 0 then Json.Null else Int pos);
          ("before", Str before);
          ("after", Str after) ]
  | Reordered { pass; position; atom; detail } ->
      kind "reorder-violates-dependency"
        [ ("pass", Str pass);
          ("position", Int position);
          ("atom", Int atom);
          ("detail", Str detail) ]
  | Cert { pass; field; detail } ->
      kind "certificate-plan-mismatch"
        [ ("pass", Str pass); ("field", Str field); ("detail", Str detail) ]
  | Read_before_bind { stage; atom; pos; slot; binder } ->
      kind "stage-read-before-bind"
        [ ("stage", Int stage);
          ("atom", Int atom);
          ("position", Int pos);
          ("slot", Int slot);
          ("binder", if binder < 0 then Json.Null else Int binder) ]
  | Aliased { slot; first_stage; second_stage; init } ->
      kind "column-aliasing"
        [ ("slot", Int slot);
          ("first-stage", if first_stage < 0 then Json.Null else Int first_stage);
          ("second-stage", Int second_stage);
          ("init-bound", Bool init) ]
  | Cover { stage; atom; arity; covered; missing } ->
      kind "incomplete-position-cover"
        [ ("stage", Int stage);
          ("atom", Int atom);
          ("arity", Int arity);
          ("covered", Int covered);
          ("missing-position", Int missing) ]
  | Filter_bind { stage; atom; binds; streamed } ->
      kind "filter-stage-binds"
        [ ("stage", Int stage);
          ("atom", Int atom);
          ("binds", Int binds);
          ("streamed", Bool streamed) ]
  | Envelope { component; certified; measured } ->
      kind "unsound-resource-envelope"
        [ ("component", Str component);
          ("certified", Int certified);
          ("measured", Int measured) ]
  | Drifted { atom; estimated; observed; threshold; contexts; probed; survived }
    ->
      kind "estimate-drift"
        [ ("atom", Int atom);
          ("estimated", Float estimated);
          ("observed", Float observed);
          ("threshold", Float threshold);
          ("contexts", Int contexts);
          ("probed", Int probed);
          ("survived", Int survived) ]
  | Counter_of { atom; detail } ->
      kind "counter-coverage"
        [ ("atom", if atom < 0 then Json.Null else Int atom);
          ("detail", Str detail) ]
  | Collector_of { atom; survived; runs; bound } ->
      kind "inconsistent-collector"
        [ ("atom", Int atom);
          ("survived", Int survived);
          ("runs", Int runs);
          ("log10-bound", Float bound) ]
  | Dirty_of { atom; pos; value; fact } ->
      kind "delta-dirty-coverage"
        [ ("atom", Int atom);
          ("position", Int pos);
          ("value", Str value);
          ("fact", Str fact) ]
  | Frontier_of { group; answer; against; detail } ->
      kind "frontier-nonmaximal"
        [ ("group", Str group);
          ("answer", Str answer);
          ("against", Str against);
          ("detail", Str detail) ]
  | Support_of { group; answer; stored; derived; detail } ->
      kind "delta-support-mismatch"
        [ ("group", Str group);
          ("answer", Str answer);
          ("stored", Int stored);
          ("derived", Int derived);
          ("detail", Str detail) ]
  | Event_of { answer; level; detail } ->
      kind "delta-event-mismatch"
        [ ("answer", Str answer); ("level", Str level); ("detail", Str detail) ]

let fix_json f =
  let kind k fields = Json.Obj (("kind", Json.Str k) :: fields) in
  match f with
  | Apply_rewrite (Wdpt.Simplify.Drop_atom { node; atom; _ }) ->
      kind "drop-atom" [ ("node", Int node); ("atom", Str (atom_string atom)) ]
  | Apply_rewrite (Wdpt.Simplify.Drop_subtree { node }) ->
      kind "drop-subtree" [ ("node", Int node) ]
  | Remove_free x -> kind "remove-free-variable" [ ("variable", Str x) ]

let to_json d =
  let optional name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    ([ ("code", Json.Str (code_id d.code));
       ("name", Json.Str (code_name d.code));
       ("severity", Json.Str (severity_string d.severity)) ]
    @ optional "span" span_json d.span
    @ [ ("message", Json.Str d.message) ]
    @ optional "witness" witness_json d.witness
    @ optional "fix" fix_json d.fix)

let report_json ds =
  Json.Obj
    [ ("schema", Int Json.schema_version);
      ("version", Int 1);
      ("diagnostics", List (List.map to_json ds));
      ( "summary",
        Obj
          [ ("errors", Int (count Error ds));
            ("warnings", Int (count Warning ds));
            ("hints", Int (count Hint ds)) ] );
      ("exit-code", Int (exit_code ds)) ]
