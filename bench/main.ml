(* Benchmark harness: one experiment per table/figure of the paper.

   The paper is a PODS theory paper; its "evaluation" is the complexity
   classification of Tables 1 and 2 plus the Figure-2 lower bound. Each cell
   becomes an empirical scaling experiment: tractable cells must show
   polynomial growth (small log-log slope in the database size), hardness
   cells must show exponential growth in the instance parameter, and the
   Figure-2 series must show the quadratic-vs-exponential size separation.
   See EXPERIMENTS.md for the paper-vs-measured record.

   Output sections are keyed by the experiment ids of DESIGN.md. A final
   section runs one Bechamel micro-benchmark per table/figure on fixed
   instances. *)

open Relational

(* ---- CLI / recording -------------------------------------------------- *)

let json_out : string option ref = ref None
let smoke = ref false
let only : string option ref = ref (Sys.getenv_opt "WDPT_BENCH_ONLY")

(* (experiment id, point label, median seconds), in run order *)
let records : (string * string * float) list ref = ref []
let record exp_id label seconds = records := (exp_id, label, seconds) :: !records

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path =
  let oc = open_out path in
  let groups =
    (* stable grouping by experiment id, preserving first-seen order *)
    List.fold_left
      (fun acc (exp_id, label, t) ->
        match List.assoc_opt exp_id acc with
        | Some cell ->
            cell := (label, t) :: !cell;
            acc
        | None -> acc @ [ (exp_id, ref [ (label, t) ]) ])
      []
      (List.rev !records)
  in
  Printf.fprintf oc "{\n  \"schema\": %d,\n  \"suite\": \"wdpt-bench\",\n  \"pr\": 10,\n  \"experiments\": {\n"
    Analysis.Json.schema_version;
  let n_groups = List.length groups in
  List.iteri
    (fun gi (exp_id, cell) ->
      Printf.fprintf oc "    \"%s\": [\n" (json_escape exp_id);
      let points = List.rev !cell in
      let n = List.length points in
      List.iteri
        (fun i (label, t) ->
          Printf.fprintf oc "      {\"label\": \"%s\", \"median_ms\": %.6f}%s\n"
            (json_escape label) (t *. 1000.)
            (if i = n - 1 then "" else ","))
        points;
      Printf.fprintf oc "    ]%s\n" (if gi = n_groups - 1 then "" else ","))
    groups;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Format.printf "wrote %d timings to %s@." (List.length !records) path

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* median of three runs; a single run when the first one is already slow *)
let time_it f =
  let first = snd (time_once f) in
  if first > 1.0 then first
  else begin
    let samples = first :: List.init 2 (fun _ -> snd (time_once f)) in
    match List.sort compare samples with
    | [ _; m; _ ] -> m
    | _ -> assert false
  end

let section id title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s  —  %s@." id title;
  Format.printf "==================================================================@."

(* least-squares slope of log t vs log n: the polynomial degree estimate *)
let loglog_slope points =
  let pts =
    List.filter_map
      (fun (n, t) -> if t > 0. then Some (log (float_of_int n), log t) else None)
      points
  in
  let m = float_of_int (List.length pts) in
  if m < 2. then nan
  else begin
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
    ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx))
  end

(* successive ratios, for exponential growth *)
let mean_ratio points =
  let rec ratios = function
    | (_, a) :: ((_, b) :: _ as rest) when a > 0. -> (b /. a) :: ratios rest
    | _ :: rest -> ratios rest
    | [] -> []
  in
  let rs = ratios points in
  if rs = [] then nan
  else List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs)

let print_row fmt = Format.printf fmt

(* ---------------------------------------------------------------- *)
(* T1-EVAL-a: Table 1, row EVAL, column ℓ-C(k) ∩ BI(c): polynomial   *)
(* ---------------------------------------------------------------- *)

let t1_eval_tractable () =
  section "T1-EVAL-a" "Table 1 / EVAL on ℓ-TW(1) ∩ BI(1): polynomial in |D| (Theorems 6, 7)";
  let p = Workload.Gen_wdpt.chain_tree ~nodes:5 ~rel:"E" in
  Format.printf "query: chain WDPT, %d nodes, interface %d, locally TW(1): %b@."
    (Wdpt.Pattern_tree.node_count p)
    (Wdpt.Classes.interface p)
    (Wdpt.Classes.locally_in ~width:Tw ~k:1 p);
  print_row "  %8s  %12s  %10s@." "|D|" "time EVAL(ms)" "answer";
  let points =
    List.map
      (fun size ->
        let db = Workload.Gen_db.random_graph_db ~seed:1 ~nodes:(size / 4) ~edges:size in
        (* probe a mapping derived from an actual answer *)
        let h =
          match Wdpt.Semantics.any_maximal_homomorphism db p with
          | Some m -> Mapping.restrict (Wdpt.Pattern_tree.free_set p) m
          | None -> Mapping.empty
        in
        let t = time_it (fun () -> ignore (Wdpt.Eval_tractable.decision db p h)) in
        print_row "  %8d  %12.2f  %10b@." size (t *. 1000.)
          (Wdpt.Eval_tractable.decision db p h);
        record "T1-EVAL-a" (string_of_int size) t;
        (size, t))
      (if !smoke then [ 200; 400 ] else [ 200; 400; 800; 1600; 3200 ])
  in
  print_row "  fitted growth exponent in |D|: %.2f  (paper: polynomial; expect << 3)@."
    (loglog_slope points)

(* ---------------------------------------------------------------- *)
(* T1-EVAL-b: EVAL NP-hard for general / g-C(k) (Prop 3)             *)
(* ---------------------------------------------------------------- *)

let t1_eval_hard () =
  section "T1-EVAL-b"
    "Table 1 / EVAL on g-TW(1) without bounded interface: 3-colorability (Prop 3)";
  Format.printf
    "instances encode 3-colorability of K4-plus-odd-cycles; EVAL must answer@.";
  Format.printf
    "false, which requires refuting every coloring: exponential growth in n.@.";
  print_row "  %4s  %6s  %14s  %16s  %16s@." "n" "edges" "EVAL(ms)" "PARTIAL-EVAL(ms)" "MAX-EVAL(ms)";
  let points = ref [] in
  List.iter
    (fun n ->
      (* a non-3-colorable graph: K4 with a path attached, grown by n *)
      let g =
        let base = Wdpt.Reductions.complete 4 in
        { Wdpt.Reductions.n = 4 + n;
          edges =
            base.Wdpt.Reductions.edges
            @ List.init n (fun i -> (3 + i, 4 + i)) }
      in
      let p, db, h = Wdpt.Reductions.three_col_instance g in
      let t_eval = time_it (fun () -> ignore (Wdpt.Eval_tractable.decision db p h)) in
      let t_part = time_it (fun () -> ignore (Wdpt.Partial_eval.decision db p h)) in
      let t_max = time_it (fun () -> ignore (Wdpt.Max_eval.decision db p h)) in
      print_row "  %4d  %6d  %14.2f  %16.2f  %16.2f@." g.Wdpt.Reductions.n
        (List.length g.Wdpt.Reductions.edges)
        (t_eval *. 1000.) (t_part *. 1000.) (t_max *. 1000.);
      record "T1-EVAL-b" (Printf.sprintf "n=%d" g.Wdpt.Reductions.n) t_eval;
      points := (g.Wdpt.Reductions.n, t_eval) :: !points)
    [ 2; 4; 6; 8 ];
  print_row
    "  EVAL mean growth ratio per step: %.2fx (exponential; PARTIAL/MAX stay flat: Thms 8, 9)@."
    (mean_ratio (List.rev !points))

(* ---------------------------------------------------------------- *)
(* T1-PF: Theorem 4, projection-free EVAL under local tractability    *)
(* ---------------------------------------------------------------- *)

let t1_projection_free () =
  section "T1-PF"
    "Table 1 / Theorem 4: projection-free EVAL is polynomial under local tractability";
  let v = Term.var in
  let e a b = Atom.make "E" [ v a; v b ] in
  let p =
    Wdpt.Pattern_tree.make ~free:[ "x"; "y"; "z"; "w" ]
      (Node ([ e "x" "y" ], [ Node ([ e "y" "z" ], []); Node ([ e "x" "w" ], []) ]))
  in
  print_row "  %8s  %12s@." "|D|" "EVAL(ms)";
  let points =
    List.map
      (fun size ->
        let db = Workload.Gen_db.random_graph_db ~seed:5 ~nodes:(size / 4) ~edges:size in
        let h =
          match Wdpt.Semantics.any_maximal_homomorphism db p with
          | Some m -> m
          | None -> Mapping.empty
        in
        let t = time_it (fun () -> ignore (Wdpt.Eval_projection_free.decision db p h)) in
        print_row "  %8d  %12.3f@." size (t *. 1000.);
        record "T1-PF" (string_of_int size) t;
        (size, t))
      [ 200; 400; 800; 1600; 3200 ]
  in
  print_row "  growth exponent: %.2f (paper: PTIME, Theorem 4)@." (loglog_slope points)

(* ---------------------------------------------------------------- *)
(* T1-HW: Example 5 / Theorem 3 — hypertreewidth beats treewidth      *)
(* ---------------------------------------------------------------- *)

let t1_hw_vs_tw () =
  section "T1-HW"
    "Theorem 3 vs Theorem 2 (Example 5): acyclic evaluation is immune to treewidth";
  Format.printf
    "guarded n-cliques are in HW(1) but have treewidth n-1: the join-forest@.";
  Format.printf
    "(Yannakakis) evaluator stays flat, the tree-decomposition evaluator blows up.@.";
  print_row "  %4s  %6s  %16s  %18s@." "n" "tw" "Yannakakis(ms)" "tree-decomp(ms)";
  List.iter
    (fun n ->
      let q = Workload.Gen_cq.guarded_clique n in
      (* a database with a complete digraph on 2n nodes plus matching guards *)
      let db = Database.create () in
      let vals = List.init (2 * n) (fun i -> Value.int i) in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (Relational.Value.equal a b) then
                Database.add db (Fact.make "E" [ a; b ]))
            vals)
        vals;
      Database.add db (Fact.make ("T" ^ string_of_int n) (List.filteri (fun i _ -> i < n) vals));
      let t_y =
        time_it (fun () ->
            match Cq.Yannakakis.satisfiable db q ~init:Mapping.empty with
            | Some b -> ignore b
            | None -> assert false)
      in
      let hg = Cq.Query.hypergraph q in
      let _, td = Hypergraphs.Tree_decomposition.upper_bound hg in
      let t_td =
        if n > 6 then nan
        else time_it (fun () -> ignore (Cq.Decomp_eval.satisfiable ~td db q ~init:Mapping.empty))
      in
      record "T1-HW" (Printf.sprintf "yannakakis n=%d" n) t_y;
      print_row "  %4d  %6d  %16.2f  %18.2f@." n
        (Cq.Query.treewidth q) (t_y *. 1000.) (t_td *. 1000.))
    [ 3; 4; 5; 6; 7 ];
  print_row "  (tree-decomposition column capped at n = 6; it is Θ(|adom|^tw))@."

(* ---------------------------------------------------------------- *)
(* T1-PEVAL / T1-MEVAL: polynomial in |D| under global tractability  *)
(* ---------------------------------------------------------------- *)

let t1_partial_max () =
  section "T1-PEVAL/T1-MEVAL"
    "Table 1 / PARTIAL-EVAL and MAX-EVAL on g-TW(k): polynomial in |D| (Theorems 8, 9)";
  let p = Workload.Gen_wdpt.chain_tree ~nodes:5 ~rel:"E" in
  print_row "  %8s  %14s  %14s@." "|D|" "PARTIAL(ms)" "MAX(ms)";
  let pp_points = ref [] and mm_points = ref [] in
  List.iter
    (fun size ->
      let db = Workload.Gen_db.random_graph_db ~seed:2 ~nodes:(size / 4) ~edges:size in
      let h =
        match Wdpt.Semantics.any_maximal_homomorphism db p with
        | Some m -> Mapping.restrict (Wdpt.Pattern_tree.free_set p) m
        | None -> Mapping.empty
      in
      let h_part = Mapping.restrict (String_set.of_list [ "f0" ]) h in
      let t_p = time_it (fun () -> ignore (Wdpt.Partial_eval.decision db p h_part)) in
      let t_m = time_it (fun () -> ignore (Wdpt.Max_eval.decision db p h)) in
      print_row "  %8d  %14.2f  %14.2f@." size (t_p *. 1000.) (t_m *. 1000.);
      record "T1-PEVAL" (string_of_int size) t_p;
      record "T1-MEVAL" (string_of_int size) t_m;
      pp_points := (size, t_p) :: !pp_points;
      mm_points := (size, t_m) :: !mm_points)
    [ 200; 400; 800; 1600; 3200 ];
  print_row "  growth exponents: PARTIAL %.2f, MAX %.2f (paper: polynomial)@."
    (loglog_slope (List.rev !pp_points))
    (loglog_slope (List.rev !mm_points))

(* ---------------------------------------------------------------- *)
(* T1-SUB: subsumption / subsumption-equivalence                     *)
(* ---------------------------------------------------------------- *)

let t1_subsumption () =
  section "T1-SUB"
    "Table 1 / ⊑ and ≡ₛ: coNP when the right-hand side is globally tractable (Thm 11)";
  Format.printf
    "left-hand side grows (subtree enumeration, the coNP part); the inner@.";
  Format.printf "check stays polynomial because p2 ∈ g-TW(1).@.";
  print_row "  %8s  %10s  %14s  %14s@." "|p1| nodes" "subtrees" "⊑ (ms)" "≡ₛ (ms)";
  let points = ref [] in
  List.iter
    (fun nodes ->
      let p1 = Workload.Gen_wdpt.chain_tree ~nodes ~rel:"E" in
      let p2 = Workload.Gen_wdpt.chain_tree ~nodes ~rel:"E" in
      let t_sub = time_it (fun () -> ignore (Wdpt.Subsumption.subsumes p1 p2)) in
      let t_eq = time_it (fun () -> ignore (Wdpt.Subsumption.equivalent p1 p2)) in
      print_row "  %8d  %10d  %14.2f  %14.2f@." nodes
        (Wdpt.Pattern_tree.subtree_count p1)
        (t_sub *. 1000.) (t_eq *. 1000.);
      points := (nodes, t_sub) :: !points)
    [ 2; 4; 6; 8; 10 ];
  (* chain trees have linearly many subtrees, so this column is polynomial;
     a branching tree shows the exponential subtree count *)
  print_row "  branching left-hand side (exponentially many subtrees):@.";
  List.iter
    (fun depth ->
      let p1 =
        Workload.Gen_wdpt.random ~seed:3 ~depth ~branching:2 ~vars_per_node:2
          ~interface:1 ~free_per_node:1 ~style:Chain ~rel:"E"
      in
      let p2 = Workload.Gen_wdpt.chain_tree ~nodes:3 ~rel:"E" in
      let t_sub = time_it (fun () -> ignore (Wdpt.Subsumption.subsumes p1 p2)) in
      print_row "    depth %d: %6d subtrees, ⊑ %10.2f ms@." depth
        (Wdpt.Pattern_tree.subtree_count p1)
        (t_sub *. 1000.))
    [ 1; 2; 3 ]

(* ---------------------------------------------------------------- *)
(* T2-MEM: WB(k)- vs UWB(k)-membership                                *)
(* ---------------------------------------------------------------- *)

let t2_membership () =
  section "T2-MEM"
    "Table 2 / Membership: WB(k) needs exhaustive search; UWB(k) is per-CQ (Thms 13, 17)";
  print_row "  %10s  %16s  %16s@." "tree nodes" "UWB-member(ms)" "WB-witness(ms)";
  List.iter
    (fun nodes ->
      let p = Workload.Gen_wdpt.chain_tree ~nodes ~rel:"E" in
      let t_uwb = time_it (fun () -> ignore (Wdpt.Union.in_m_uwb ~width:Tw ~k:1 [ p ])) in
      let t_wb =
        time_it (fun () -> ignore (Wdpt.Semantic_opt.wb_witness ~width:Tw ~k:1 p))
      in
      print_row "  %10d  %16.2f  %16.2f@." nodes (t_uwb *. 1000.) (t_wb *. 1000.))
    [ 2; 3; 4; 5 ];
  (* out-of-class inputs: the WB search explores the quotient space *)
  print_row "  out-of-class input (triangle root with optional leaf):@.";
  let v = Term.var in
  let e a b = Atom.make "E" [ v a; v b ] in
  let p_hard =
    Wdpt.Pattern_tree.make ~free:[ "x" ]
      (Node ([ e "x" "y"; e "y" "z"; e "z" "x" ], [ Node ([ e "x" "w" ], []) ]))
  in
  let t_uwb =
    time_it (fun () -> ignore (Wdpt.Union.in_m_uwb ~width:Tw ~k:1 [ p_hard ]))
  in
  let t_wb =
    time_it (fun () -> ignore (Wdpt.Semantic_opt.wb_witness ~width:Tw ~k:1 p_hard))
  in
  print_row "    UWB-member %.2f ms  vs  WB-witness search %.2f ms@."
    (t_uwb *. 1000.) (t_wb *. 1000.)

(* ---------------------------------------------------------------- *)
(* T2-APP: approximation computation                                  *)
(* ---------------------------------------------------------------- *)

let t2_approximation () =
  section "T2-APP"
    "Table 2 / Approximation: UWB(k) per-CQ quotients vs WB(k) candidate search (Thms 14, 18)";
  print_row "  %28s  %10s  %12s  %8s@." "query" "UWB-app(ms)" "WB-app(ms)" "#apps";
  let v = Term.var in
  let e a b = Atom.make "E" [ v a; v b ] in
  let cases =
    [ ("triangle", Wdpt.Pattern_tree.of_cq (Workload.Gen_cq.cycle 3));
      ("C5", Wdpt.Pattern_tree.of_cq (Workload.Gen_cq.cycle 5));
      ( "triangle + optional leaf",
        Wdpt.Pattern_tree.make ~free:[ "x" ]
          (Node ([ e "x" "y"; e "y" "z"; e "z" "x" ], [ Node ([ e "x" "w" ], []) ])) ) ]
  in
  List.iter
    (fun (name, p) ->
      let uapp = ref [] and wapp = ref [] in
      let t_u =
        time_it (fun () -> uapp := Wdpt.Union.uwb_approximation ~width:Tw ~k:1 [ p ])
      in
      let t_w =
        time_it (fun () -> wapp := Wdpt.Approximation.wb_approximations ~width:Tw ~k:1 p)
      in
      print_row "  %28s  %10.2f  %12.2f  %8d@." name (t_u *. 1000.) (t_w *. 1000.)
        (List.length !wapp))
    cases

(* ---------------------------------------------------------------- *)
(* FIG2: the exponential blow-up                                      *)
(* ---------------------------------------------------------------- *)

let fig2 () =
  section "FIG2" "Figure 2 / Theorem 15: approximation size blow-up |p1| = O(n²), |p2| = Ω(2ⁿ)";
  print_row "  %4s  %8s  %8s  %14s@." "n" "|p1|" "|p2|" "|p2| / |p1|";
  List.iter
    (fun n ->
      let p1, p2 = Workload.Hard_instances.figure2 ~n ~k:2 in
      print_row "  %4d  %8d  %8d  %14.2f@." n
        (Wdpt.Pattern_tree.size p1) (Wdpt.Pattern_tree.size p2)
        (float_of_int (Wdpt.Pattern_tree.size p2)
        /. float_of_int (Wdpt.Pattern_tree.size p1)))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  (* semantic checks on a small instance *)
  let p1, p2 = Workload.Hard_instances.figure2 ~n:2 ~k:2 in
  print_row "  checks (n = 2): p2 ⊑ p1: %b;  p2 ∈ WB(2): %b;  p1 ∈ WB(2): %b@."
    (Wdpt.Subsumption.subsumes p2 p1)
    (Wdpt.Classes.in_wb ~width:Tw ~k:2 p2)
    (Wdpt.Classes.in_wb ~width:Tw ~k:2 p1)

(* ---------------------------------------------------------------- *)
(* COR2-FPT: approximation pays off on large databases                *)
(* ---------------------------------------------------------------- *)

let cor2_fpt () =
  section "COR2-FPT"
    "Corollary 2 / Section 5: compute-then-run a witness beats direct evaluation on big D";
  (* a redundant query: 4 parallel 2-paths; the core is a single path *)
  let v = Term.var in
  let e a b = Atom.make "E" [ v a; v b ] in
  let body =
    List.concat_map
      (fun i ->
        let y = "y" ^ string_of_int i in
        [ e "x" y; e y "z" ])
      [ 0; 1; 2; 3 ]
  in
  let q = Cq.Query.make ~head:[ "x" ] ~body in
  let p = Wdpt.Pattern_tree.of_cq q in
  let fpt = ref (Wdpt.Semantic_opt.prepare ~width:Tw ~k:1 p) in
  let t_prepare =
    time_it (fun () -> fpt := Wdpt.Semantic_opt.prepare ~width:Tw ~k:1 p)
  in
  print_row "  witness found: %b (one-time cost %.2f ms)@."
    (Option.is_some (Wdpt.Semantic_opt.used_witness !fpt))
    (t_prepare *. 1000.);
  print_row "  %8s  %14s  %18s@." "|D|" "direct(ms)" "via witness(ms)";
  List.iter
    (fun size ->
      let db = Workload.Gen_db.random_graph_db ~seed:7 ~nodes:(size / 8) ~edges:size in
      let h = Mapping.singleton "x" (Value.int 0) in
      let t_direct = time_it (fun () -> ignore (Wdpt.Semantics.partial_decision db p h)) in
      let t_fpt = time_it (fun () -> ignore (Wdpt.Semantic_opt.partial_decision !fpt db h)) in
      print_row "  %8d  %14.2f  %18.2f@." size (t_direct *. 1000.) (t_fpt *. 1000.))
    [ 100; 200; 400; 800 ]

(* ---------------------------------------------------------------- *)
(* PROP2: the fragment landscape                                      *)
(* ---------------------------------------------------------------- *)

let prop2 () =
  section "PROP2" "Proposition 2: ℓ-TW(k) ∩ BI(c) ⊆ g-TW(k+2c); g-TW(k) ⊄ BI(c)";
  print_row "  %4s  %14s  %12s@." "m" "g-TW(1)?" "interface";
  List.iter
    (fun m ->
      let p = Workload.Hard_instances.prop2_family ~m in
      print_row "  %4d  %14b  %12d@." m
        (Wdpt.Classes.globally_in ~width:Tw ~k:1 p)
        (Wdpt.Classes.interface p))
    [ 2; 4; 8; 16 ]

(* ---------------------------------------------------------------- *)
(* ENGINE: compiled engine vs the naive Eval path, before/after       *)
(* ---------------------------------------------------------------- *)

let engine_speedup () =
  section "ENGINE"
    "Compiled engine vs naive backtracking (Table-1-shaped primitives, answers cross-checked)";
  Format.printf
    "naive = Cq.Eval.Naive (string-keyed maps, rebuilt candidate lists);@.";
  Format.printf
    "engine = interned values, slot environments, counted indexes.@.";
  Format.printf
    "enum = enumerate all homomorphisms in native form; sat = per-node@.";
  Format.printf
    "satisfiability sweep (EVAL inner loop); proj = projected answers.@.";
  print_row "  %-10s  %8s  %-6s  %12s  %12s  %9s  %7s@." "query" "|D|" "prim"
    "naive(ms)" "engine(ms)" "speedup" "agree";
  let queries =
    [ ("chain3", Workload.Gen_cq.chain 3);
      ("chain4", Workload.Gen_cq.chain 4);
      ("star3", Workload.Gen_cq.star 3) ]
  in
  let sizes = if !smoke then [ 200; 800 ] else [ 800; 1600; 3200 ] in
  let largest = List.fold_left max 0 sizes in
  let worst = ref infinity in
  List.iter
    (fun (name, q) ->
      List.iter
        (fun size ->
          let db =
            Workload.Gen_db.random_graph_db ~seed:11 ~nodes:(size / 4) ~edges:size
          in
          let body = Cq.Query.body q in
          let x0 = List.hd (Cq.Query.head q) in
          let adom = Value.Set.elements (Database.active_domain db) in
          let proj_q = Cq.Query.make ~head:[ x0 ] ~body in
          (* untimed correctness gate: full answer sets must be identical *)
          if
            not
              (Mapping.Set.equal (Cq.Eval.answers db q)
                 (Cq.Eval.Naive.answers db q))
          then failwith ("ENGINE: answer mismatch on " ^ name);
          let row prim t_naive t_engine agree =
            if not agree then
              failwith ("ENGINE: " ^ prim ^ " mismatch on " ^ name);
            let speedup = t_naive /. t_engine in
            if size = largest then worst := Float.min !worst speedup;
            record "ENGINE"
              (Printf.sprintf "%s n=%d %s naive" name size prim)
              t_naive;
            record "ENGINE"
              (Printf.sprintf "%s n=%d %s engine" name size prim)
              t_engine;
            print_row "  %-10s  %8d  %-6s  %12.2f  %12.2f  %8.1fx  %7b@." name
              size prim (t_naive *. 1000.) (t_engine *. 1000.) speedup agree
          in
          (* enum: every homomorphism, each side in its native form —
             slot environments vs string-keyed maps *)
          let n_e = ref 0 and n_n = ref 0 in
          let t_engine =
            time_it (fun () ->
                n_e := 0;
                let p = Engine.compile db body ~init:Mapping.empty in
                Engine.iter_envs p (fun _ -> incr n_e))
          in
          let t_naive =
            time_it (fun () ->
                n_n := 0;
                Cq.Eval.Naive.iter_homomorphisms db body ~init:Mapping.empty
                  (fun _ -> incr n_n))
          in
          row "enum" t_naive t_engine (!n_e = !n_n);
          (* sat: satisfiability with a sink variable (last variable of the
             last atom) bound to each active-domain value — the per-binding
             decision loop of the Table-1 EVAL experiments, where binding a
             leaf/end variable forces a real backward search per call *)
          let sink =
            List.nth body (List.length body - 1)
            |> Atom.vars |> List.rev |> List.hd
          in
          let sat eval =
            List.fold_left
              (fun acc v ->
                if eval db body ~init:(Mapping.singleton sink v) then acc + 1
                else acc)
              0 adom
          in
          let s_e = ref 0 and s_n = ref 0 in
          let t_engine = time_it (fun () -> s_e := sat Cq.Eval.satisfiable) in
          let t_naive =
            time_it (fun () -> s_n := sat Cq.Eval.Naive.satisfiable)
          in
          row "sat" t_naive t_engine (!s_e = !s_n);
          (* proj: distinct answers projected onto one head variable *)
          let p_e = ref Mapping.Set.empty and p_n = ref Mapping.Set.empty in
          let t_engine = time_it (fun () -> p_e := Cq.Eval.answers db proj_q) in
          let t_naive =
            time_it (fun () -> p_n := Cq.Eval.Naive.answers db proj_q)
          in
          row "proj" t_naive t_engine (Mapping.Set.equal !p_e !p_n))
        sizes)
    queries;
  print_row
    "  worst primitive speedup at largest |D|: %.1fx  (acceptance: >= 3x with identical answers)@."
    !worst

(* ---------------------------------------------------------------- *)
(* AUDIT: plan audit is O(plan size); checked-execution overhead      *)
(* ---------------------------------------------------------------- *)

let audit_overhead () =
  section "AUDIT"
    "Plan_audit is O(plan size), not O(data); checked execution overhead vs unchecked";
  Format.printf
    "audit must stay flat as |D| grows (it reads per-atom summaries only);@.";
  Format.printf
    "checked enumeration re-verifies every instruction and solution.@.";
  print_row "  %8s  %12s  %14s  %16s  %9s@." "|D|" "audit(ms)"
    "enum-plain(ms)" "enum-checked(ms)" "overhead";
  let q = Workload.Gen_cq.chain 4 in
  let body = Cq.Query.body q in
  let was_checked = Engine.checked_enabled () in
  let audit_points = ref [] in
  List.iter
    (fun size ->
      let db =
        Workload.Gen_db.random_graph_db ~seed:13 ~nodes:(size / 4) ~edges:size
      in
      let p = Engine.compile db body ~init:Mapping.empty in
      let t_audit = time_it (fun () -> ignore (Analysis.Plan_audit.audit p)) in
      let enum () =
        let n = ref 0 in
        Engine.iter_envs p (fun _ -> incr n);
        !n
      in
      Engine.set_checked false;
      let n_plain = ref 0 in
      let t_plain = time_it (fun () -> n_plain := enum ()) in
      Engine.set_checked true;
      let n_checked = ref 0 in
      let t_checked = time_it (fun () -> n_checked := enum ()) in
      Engine.set_checked was_checked;
      if !n_plain <> !n_checked then failwith "AUDIT: checked enum disagrees";
      print_row "  %8d  %12.4f  %14.2f  %16.2f  %8.1fx@." size (t_audit *. 1000.)
        (t_plain *. 1000.) (t_checked *. 1000.)
        (t_checked /. t_plain);
      record "AUDIT" (Printf.sprintf "audit |D|=%d" size) t_audit;
      record "AUDIT" (Printf.sprintf "enum-plain |D|=%d" size) t_plain;
      record "AUDIT" (Printf.sprintf "enum-checked |D|=%d" size) t_checked;
      audit_points := (size, t_audit) :: !audit_points)
    (if !smoke then [ 200; 400 ] else [ 400; 1600; 6400 ]);
  print_row "  audit growth exponent in |D|: %.2f  (acceptance: ~0, O(plan) not O(data))@."
    (loglog_slope (List.rev !audit_points));
  (* audit time against plan size on a fixed database *)
  print_row "  %8s  %12s@." "atoms" "audit(ms)";
  let db = Workload.Gen_db.random_graph_db ~seed:13 ~nodes:100 ~edges:400 in
  List.iter
    (fun n ->
      let body = Cq.Query.body (Workload.Gen_cq.chain n) in
      let p = Engine.compile db body ~init:Mapping.empty in
      let t = time_it (fun () -> ignore (Analysis.Plan_audit.audit p)) in
      print_row "  %8d  %12.4f@." n (t *. 1000.);
      record "AUDIT" (Printf.sprintf "audit atoms=%d" n) t)
    [ 2; 4; 8 ];
  (* static bound vs measured counts on the Table-1 workloads: the Cost
     bound must dominate the measured homomorphism count (soundness), and
     the gap shows how much the statistics know (EXPERIMENTS.md column) *)
  print_row "  static bound vs measured (soundness of Analysis.Cost):@.";
  print_row "  %-26s  %14s  %12s@." "instance" "bound(homs)" "measured";
  let bound_vs_measured name body free db =
    let cost = Analysis.Cost.analyze db body ~free in
    let p = Engine.compile db body ~init:Mapping.empty in
    let n = ref 0 in
    Engine.iter_envs p (fun _ -> incr n);
    let b = cost.Analysis.Cost.hom_bound in
    print_row "  %-26s  %14s  %12d%s@." name
      (if b = neg_infinity then "0" else Printf.sprintf "10^%.2f" b)
      !n
      (if !n = 0 || log10 (float_of_int !n) <= b +. 1e-9 then ""
       else "  VIOLATED");
    record "AUDIT" (Printf.sprintf "bound %s" name) b
  in
  List.iter
    (fun size ->
      let p = Workload.Gen_wdpt.chain_tree ~nodes:5 ~rel:"E" in
      let q = Wdpt.Pattern_tree.q_full p in
      let db =
        Workload.Gen_db.random_graph_db ~seed:1 ~nodes:(size / 4) ~edges:size
      in
      bound_vs_measured
        (Printf.sprintf "T1-EVAL-a chain |D|=%d" size)
        (Cq.Query.body q) (Wdpt.Pattern_tree.free p) db)
    [ 400; 1600 ];
  List.iter
    (fun n ->
      let q = Workload.Gen_cq.guarded_clique n in
      let db = Database.create () in
      let vals = List.init (2 * n) (fun i -> Value.int i) in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (Value.equal a b) then
                Database.add db (Fact.make "E" [ a; b ]))
            vals)
        vals;
      Database.add db
        (Fact.make ("T" ^ string_of_int n) (List.filteri (fun i _ -> i < n) vals));
      bound_vs_measured
        (Printf.sprintf "T1-HW guarded clique n=%d" n)
        (Cq.Query.body q) (Cq.Query.head q) db)
    [ 3; 4; 5 ]

(* ---------------------------------------------------------------- *)
(* RESOURCE: batch audit + envelope are O(plan); envelope soundness   *)
(* ---------------------------------------------------------------- *)

let resource_envelope () =
  section "RESOURCE"
    "Batch_audit + Resource envelope are O(plan), not O(data); certified vs measured marks";
  Format.printf
    "the audit and the envelope read view summaries only, so their cost@.";
  Format.printf
    "must stay flat as |D| grows; after a batched run every measured@.";
  Format.printf
    "high-water mark must stay within its certified component (sound),@.";
  Format.printf
    "and the certified/measured ratio shows how tight the envelope is.@.";
  let q = Workload.Gen_cq.chain 4 in
  let body = Cq.Query.body q in
  print_row "  %8s  %12s  %14s  %10s  %10s  %10s@." "|D|" "audit(ms)"
    "envelope(ms)" "col-ratio" "dense-ratio" "replay-rat";
  let audit_points = ref [] in
  List.iter
    (fun size ->
      let db =
        Workload.Gen_db.random_graph_db ~seed:29 ~nodes:(size / 4) ~edges:size
      in
      let p = Engine.compile db body ~init:Mapping.empty in
      let t_audit = time_it (fun () -> ignore (Analysis.Batch_audit.audit p)) in
      let t_env = time_it (fun () -> ignore (Analysis.Resource.of_plan p)) in
      (* checked mode arms the per-group replay buffer, so all three
         envelope components see a nonzero measured mark *)
      let was_checked = Engine.checked_enabled () in
      Engine.set_checked true;
      let r =
        Fun.protect
          ~finally:(fun () -> Engine.set_checked was_checked)
          (fun () ->
            let r = Analysis.Resource.of_plan p in
            Engine.reset_batch_stats ();
            ignore (Engine.count_envs p);
            Engine.iter_envs p (fun _ -> ());
            r)
      in
      let s = Engine.batch_stats () in
      if Analysis.Batch_audit.check_envelope r s <> [] then
        failwith
          (Printf.sprintf "RESOURCE: envelope violated at |D|=%d" size);
      let ratio certified measured =
        if measured = 0 then nan
        else float_of_int certified /. float_of_int measured
      in
      let rc = ratio r.Analysis.Resource.r_column_words s.Engine.bm_column_words in
      let rd = ratio r.Analysis.Resource.r_dense_words s.Engine.bm_dense_words in
      let rr = ratio r.Analysis.Resource.r_replay_rows s.Engine.bm_replay_rows in
      let pp_ratio ppf x =
        if Float.is_nan x then Format.fprintf ppf "%10s" "n/a"
        else Format.fprintf ppf "%9.1fx" x
      in
      print_row "  %8d  %12.4f  %14.4f  %a  %a  %a@." size (t_audit *. 1000.)
        (t_env *. 1000.) pp_ratio rc pp_ratio rd pp_ratio rr;
      record "RESOURCE" (Printf.sprintf "audit |D|=%d" size) t_audit;
      record "RESOURCE" (Printf.sprintf "envelope |D|=%d" size) t_env;
      if not (Float.is_nan rc) then
        record "RESOURCE" (Printf.sprintf "column-ratio |D|=%d" size) rc;
      if not (Float.is_nan rd) then
        record "RESOURCE" (Printf.sprintf "dense-ratio |D|=%d" size) rd;
      if not (Float.is_nan rr) then
        record "RESOURCE" (Printf.sprintf "replay-ratio |D|=%d" size) rr;
      audit_points := (size, t_audit +. t_env) :: !audit_points)
    (if !smoke then [ 200; 800 ] else [ 400; 1600; 6400 ]);
  print_row
    "  audit+envelope growth exponent in |D|: %.2f  (acceptance: ~0, O(plan) not O(data))@."
    (loglog_slope (List.rev !audit_points));
  (* cost against plan size on a fixed database *)
  print_row "  %8s  %12s  %14s@." "atoms" "audit(ms)" "envelope(ms)";
  let db = Workload.Gen_db.random_graph_db ~seed:29 ~nodes:100 ~edges:400 in
  List.iter
    (fun n ->
      let body = Cq.Query.body (Workload.Gen_cq.chain n) in
      let p = Engine.compile db body ~init:Mapping.empty in
      let t_audit = time_it (fun () -> ignore (Analysis.Batch_audit.audit p)) in
      let t_env = time_it (fun () -> ignore (Analysis.Resource.of_plan p)) in
      print_row "  %8d  %12.4f  %14.4f@." n (t_audit *. 1000.) (t_env *. 1000.);
      record "RESOURCE" (Printf.sprintf "audit atoms=%d" n) t_audit;
      record "RESOURCE" (Printf.sprintf "envelope atoms=%d" n) t_env)
    [ 2; 4; 8 ]

(* ---------------------------------------------------------------- *)
(* OPT: the pass pipeline is O(plan); optimized vs unoptimized        *)
(* ---------------------------------------------------------------- *)

let opt_pipeline () =
  section "OPT"
    "Optimization passes + translation validation are O(plan); opt vs unopt on T1 workloads";
  Format.printf
    "pipeline = the five passes (fold, dead-instruction, dead-slot, hoist,@.";
  Format.printf
    "reorder); verify = Analysis.Equiv re-checking every certificate. Both@.";
  Format.printf
    "read per-atom summaries only, so they must stay flat as |D| grows.@.";
  let was_opt = Engine.optimize_enabled () in
  (* (a) pipeline and verification cost against |D| on a fixed plan shape *)
  let body = Cq.Query.body (Workload.Gen_cq.chain 4) in
  print_row "  %8s  %14s  %14s@." "|D|" "pipeline(ms)" "verify(ms)";
  let pipe_points = ref [] in
  List.iter
    (fun size ->
      let db =
        Workload.Gen_db.random_graph_db ~seed:17 ~nodes:(size / 4) ~edges:size
      in
      Engine.set_optimize false;
      let base = Engine.compile db body ~init:Mapping.empty in
      Engine.set_optimize true;
      let t_pipe = time_it (fun () -> ignore (Engine.optimize base)) in
      let opt = Engine.optimize base in
      let t_ver = time_it (fun () -> ignore (Analysis.Equiv.verify_trail opt)) in
      if not (Analysis.Equiv.verify_trail opt).Analysis.Equiv.r_verified then
        failwith "OPT: certificate trail rejected";
      print_row "  %8d  %14.4f  %14.4f@." size (t_pipe *. 1000.) (t_ver *. 1000.);
      record "OPT" (Printf.sprintf "pipeline |D|=%d" size) t_pipe;
      record "OPT" (Printf.sprintf "verify |D|=%d" size) t_ver;
      pipe_points := (size, t_pipe) :: !pipe_points)
    (if !smoke then [ 200; 400 ] else [ 400; 1600; 6400 ]);
  print_row
    "  pipeline growth exponent in |D|: %.2f  (acceptance: ~0, O(plan) not O(data))@."
    (loglog_slope (List.rev !pipe_points));
  (* (b) end-to-end enumeration, pipeline off vs on, answers cross-checked.
     The workloads are the ones the passes exist for: bodies with redundant
     duplicate atoms (dead-instruction), and initial bindings that fold to
     checks, empty ground guards and a stale static order (fold + drop +
     reorder) — the Table-1 EVAL inner loop binds variables exactly like
     this. *)
  print_row "  %-24s  %8s  %12s  %12s  %9s@." "workload" "|D|" "unopt(ms)"
    "opt(ms)" "speedup";
  let chain = Workload.Gen_cq.chain 4 in
  let chain_body = Cq.Query.body chain in
  let sink =
    List.nth chain_body (List.length chain_body - 1)
    |> Atom.vars |> List.rev |> List.hd
  in
  let workloads =
    [ ("chain4 duplicated x2", chain_body @ chain_body,
       fun (_ : Database.t) -> Mapping.empty);
      ("chain4 sink bound", chain_body,
       fun db ->
         match Value.Set.min_elt_opt (Database.active_domain db) with
         | Some v -> Mapping.singleton sink v
         | None -> Mapping.empty) ]
  in
  List.iter
    (fun (name, body, init_of) ->
      List.iter
        (fun size ->
          let db =
            Workload.Gen_db.random_graph_db ~seed:19 ~nodes:(size / 4)
              ~edges:size
          in
          let init = init_of db in
          let enum () =
            let n = ref 0 in
            let p = Engine.compile db body ~init in
            Engine.iter_envs p (fun _ -> incr n);
            !n
          in
          Engine.set_optimize false;
          let n_plain = ref 0 in
          let t_plain = time_it (fun () -> n_plain := enum ()) in
          Engine.set_optimize true;
          let n_opt = ref 0 in
          let t_opt = time_it (fun () -> n_opt := enum ()) in
          if !n_plain <> !n_opt then failwith ("OPT: answer mismatch on " ^ name);
          print_row "  %-24s  %8d  %12.2f  %12.2f  %8.2fx@." name size
            (t_plain *. 1000.) (t_opt *. 1000.)
            (t_plain /. t_opt);
          record "OPT" (Printf.sprintf "%s |D|=%d unopt" name size) t_plain;
          record "OPT" (Printf.sprintf "%s |D|=%d opt" name size) t_opt)
        (if !smoke then [ 200; 800 ] else [ 800; 1600; 3200 ]))
    workloads;
  Engine.set_optimize was_opt

(* ---------------------------------------------------------------- *)
(* PAR: domain-parallel runtime; incremental vs full recompilation    *)
(* ---------------------------------------------------------------- *)

let par_runtime () =
  section "PAR"
    "Domain-parallel enumeration (pools of 1/2/4/8) and incremental compiled databases";
  Format.printf
    "the top-level candidate range is chunked across a Domain pool; answers@.";
  Format.printf
    "are cross-checked against the 1-domain run. Speedup is bounded by the@.";
  Format.printf
    "machine: on a single-core container every pool size measures the same@.";
  Format.printf
    "work plus spawn/merge overhead (parity, not speedup, is the signal).@.";
  let d0 = Engine.Parallel.domains () and m0 = Engine.Parallel.min_rows () in
  let with_pool nd f =
    Engine.Parallel.set_domains nd;
    Engine.Parallel.set_min_rows 1;
    Fun.protect
      ~finally:(fun () ->
        Engine.Parallel.set_domains d0;
        Engine.Parallel.set_min_rows m0)
      f
  in
  let body = Cq.Query.body (Workload.Gen_cq.chain 4) in
  print_row "  %8s  %4s  %12s  %12s  %12s  %9s@." "|D|" "nd" "count(ms)"
    "enum(ms)" "sat(ms)" "agree";
  List.iter
    (fun size ->
      let db =
        Workload.Gen_db.random_graph_db ~seed:23 ~nodes:(size / 4) ~edges:size
      in
      let p = Engine.compile db body ~init:Mapping.empty in
      let reference = with_pool 1 (fun () -> Engine.count_envs p) in
      List.iter
        (fun nd ->
          with_pool nd (fun () ->
              let c = ref 0 in
              let t_count = time_it (fun () -> c := Engine.count_envs p) in
              let n = ref 0 in
              let t_enum =
                time_it (fun () ->
                    n := 0;
                    Engine.iter_envs p (fun _ -> incr n))
              in
              let s = ref false in
              let t_sat = time_it (fun () -> s := Engine.sat p) in
              let agree = !c = reference && !n = reference && !s = (reference > 0) in
              if not agree then failwith "PAR: parallel run disagrees";
              print_row "  %8d  %4d  %12.2f  %12.2f  %12.3f  %9b@." size nd
                (t_count *. 1000.) (t_enum *. 1000.) (t_sat *. 1000.) agree;
              record "PAR" (Printf.sprintf "count |D|=%d nd=%d" size nd) t_count;
              record "PAR" (Printf.sprintf "enum |D|=%d nd=%d" size nd) t_enum;
              record "PAR" (Printf.sprintf "sat |D|=%d nd=%d" size nd) t_sat))
        [ 1; 2; 4; 8 ])
    (if !smoke then [ 200; 800 ] else [ 800; 1600; 3200 ]);
  (* incremental maintenance: with a warm compiled form, Database.add appends
     into the interned tuples and counted index cells in place; the baseline
     drops the cache so the next query recompiles from scratch. Acceptance:
     the in-place extension beats full recompilation by >= 5x. *)
  print_row "  incremental Database.add + re-query vs clear_cache + re-query:@.";
  print_row "  %8s  %16s  %14s  %9s@." "|D|" "incremental(ms)" "rebuild(ms)" "ratio";
  (* the probe is selective (constant-bound first position) so the re-query
     itself is O(matching rows), not O(data): the timed difference is the
     maintenance cost — an O(1) in-place append vs an O(data) recompile *)
  let q1 =
    Cq.Query.make ~head:[ "y" ]
      ~body:[ Atom.make "E" [ Term.const (Value.int 0); Term.var "y" ] ]
  in
  let worst = ref infinity in
  List.iter
    (fun size ->
      let fresh_fact i =
        Fact.make "E" [ Value.int (1_000_000 + i); Value.int (2_000_000 + i) ]
      in
      let db =
        Workload.Gen_db.random_graph_db ~seed:29 ~nodes:(size / 4) ~edges:size
      in
      ignore (Cq.Eval.answers db q1);
      let i = ref 0 in
      let t_inc =
        time_it (fun () ->
            Database.add db (fresh_fact !i);
            incr i;
            ignore (Cq.Eval.answers db q1))
      in
      let t_full =
        time_it (fun () ->
            Database.add db (fresh_fact !i);
            incr i;
            Database.clear_cache db;
            ignore (Cq.Eval.answers db q1))
      in
      let ratio = t_full /. t_inc in
      if size >= 800 then worst := Float.min !worst ratio;
      print_row "  %8d  %16.4f  %14.4f  %8.1fx@." size (t_inc *. 1000.)
        (t_full *. 1000.) ratio;
      record "PAR" (Printf.sprintf "incremental |D|=%d" size) t_inc;
      record "PAR" (Printf.sprintf "rebuild |D|=%d" size) t_full)
    (if !smoke then [ 200; 800 ] else [ 800; 3200; 12800 ]);
  print_row
    "  worst incremental advantage at |D| >= 800: %.1fx  (acceptance: >= 5x)@."
    !worst

(* ---------------------------------------------------------------- *)
(* RACE: data-race sanitizer overhead on the parallel primitives      *)
(* ---------------------------------------------------------------- *)

let race_sanitizer () =
  section "RACE"
    "Race sanitizer (WDPT_ENGINE_TSAN) overhead on parallel count/enum, answers cross-checked";
  Format.printf
    "per-chunk access logs with logical clocks, vector-clock validation at@.";
  Format.printf
    "the join; logging is O(distinct shared locations) per chunk, so the@.";
  Format.printf
    "overhead must stay a flat factor as |D| grows.@.";
  let d0 = Engine.Parallel.domains () and m0 = Engine.Parallel.min_rows () in
  let r0 = Engine.Parallel.race_check_enabled () in
  let with_pool nd race f =
    Engine.Parallel.set_domains nd;
    Engine.Parallel.set_min_rows 1;
    Engine.Parallel.set_race_check race;
    Fun.protect
      ~finally:(fun () ->
        Engine.Parallel.set_domains d0;
        Engine.Parallel.set_min_rows m0;
        Engine.Parallel.set_race_check r0)
      f
  in
  let body = Cq.Query.body (Workload.Gen_cq.chain 4) in
  print_row "  %8s  %6s  %12s  %12s  %9s  %7s@." "|D|" "prim" "plain(ms)"
    "tsan(ms)" "overhead" "agree";
  List.iter
    (fun size ->
      let db =
        Workload.Gen_db.random_graph_db ~seed:31 ~nodes:(size / 4) ~edges:size
      in
      let p = Engine.compile db body ~init:Mapping.empty in
      let reference = with_pool 1 false (fun () -> Engine.count_envs p) in
      let row prim f =
        let plain = ref 0 and tsan = ref 0 in
        let t_plain = with_pool 2 false (fun () -> time_it (fun () -> plain := f ())) in
        let t_tsan = with_pool 2 true (fun () -> time_it (fun () -> tsan := f ())) in
        let agree = !plain = reference && !tsan = reference in
        if not agree then failwith ("RACE: " ^ prim ^ " disagrees");
        print_row "  %8d  %6s  %12.2f  %12.2f  %8.2fx  %7b@." size prim
          (t_plain *. 1000.) (t_tsan *. 1000.) (t_tsan /. t_plain) agree;
        record "RACE" (Printf.sprintf "%s |D|=%d plain" prim size) t_plain;
        record "RACE" (Printf.sprintf "%s |D|=%d tsan" prim size) t_tsan
      in
      row "count" (fun () -> Engine.count_envs p);
      row "enum" (fun () ->
          let n = ref 0 in
          Engine.iter_envs p (fun _ -> incr n);
          !n))
    (if !smoke then [ 200; 800 ] else [ 800; 1600; 3200 ]);
  let s = Engine.Parallel.race_stats () in
  print_row
    "  sanitizer totals: %d region(s) validated, %d access record(s), %d race(s)  (acceptance: 0 races)@."
    s.Engine.Parallel.rs_regions s.Engine.Parallel.rs_events
    s.Engine.Parallel.rs_races;
  if s.Engine.Parallel.rs_races > 0 then failwith "RACE: sanitizer reported races"

(* ---------------------------------------------------------------- *)
(* DRIFT: adaptive re-optimization pays off on skewed data            *)
(* ---------------------------------------------------------------- *)

let drift_adaptive () =
  section "DRIFT"
    "Cardinality-feedback loop: adaptive re-planning vs static plan on skewed data";
  Format.printf
    "the static cost model prices R(1, ?y) by its average cell size, but key 1@.";
  Format.printf
    "holds almost every row of R; after one run the feedback counters expose@.";
  Format.printf
    "the drift, the plan is re-costed and re-ordered under an E025-checked@.";
  Format.printf
    "certificate, and the hot probe moves behind the selective join. The@.";
  Format.printf
    "feedback audit reads counter summaries only, so it must stay flat in |D|.@.";
  let was_adapt = Engine.adapt_enabled () in
  Fun.protect
    ~finally:(fun () -> Engine.set_adapt was_adapt)
    (fun () ->
      let atoms =
        [ Atom.make "S" [ Term.var "x" ];
          Atom.make "R" [ Term.const (Value.int 1); Term.var "y" ];
          Atom.make "C" [ Term.var "y"; Term.var "x" ] ]
      in
      (* the skew.wdpt workload scaled by the hot-key population: S and C stay
         fixed, R's key 1 grows, the 200-key tail keeps the average cell small *)
      let build hot =
        let db = Database.create () in
        for i = 1 to 10 do
          Database.add db (Fact.make "S" [ Value.int i ])
        done;
        for j = 1 to hot do
          Database.add db (Fact.make "R" [ Value.int 1; Value.int j ])
        done;
        for k = 2 to 201 do
          Database.add db (Fact.make "R" [ Value.int k; Value.int 0 ])
        done;
        for j = 1 to 300 do
          Database.add db
            (Fact.make "C" [ Value.int j; Value.int (((j - 1) mod 10) + 1) ])
        done;
        db
      in
      print_row "  %8s  %12s  %14s  %12s  %9s  %7s@." "|D|" "static(ms)"
        "adaptive(ms)" "audit(ms)" "speedup" "agree";
      let audit_points = ref [] in
      let worst = ref infinity in
      let sizes = if !smoke then [ 2_000; 8_000 ] else [ 2_000; 8_000; 32_000 ] in
      let largest = List.fold_left max 0 sizes in
      List.iter
        (fun hot ->
          let db = build hot in
          let size = 10 + hot + 200 + 300 in
          Engine.set_adapt false;
          let p_static = Engine.compile db atoms ~init:Mapping.empty in
          let n_s = ref 0 in
          let t_static = time_it (fun () -> n_s := Engine.count_envs p_static) in
          (* adaptive: the first run feeds the counters and installs the
             certified swap in the stats-epoch-keyed cache; the recompile
             picks it up, so the timed runs execute the re-planned order *)
          Engine.set_adapt true;
          Database.clear_cache db;
          let warm = Engine.compile db atoms ~init:Mapping.empty in
          ignore (Engine.count_envs warm);
          let p_adapt = Engine.compile db atoms ~init:Mapping.empty in
          let n_a = ref 0 in
          let t_adapt = time_it (fun () -> n_a := Engine.count_envs p_adapt) in
          let t_audit =
            time_it (fun () -> ignore (Analysis.Feedback.audit p_adapt))
          in
          if Analysis.Feedback.audit p_adapt <> [] then
            failwith "DRIFT: adapted plan fails the feedback audit";
          let agree = !n_s = !n_a in
          if not agree then failwith "DRIFT: adaptive answer count disagrees";
          let speedup = t_static /. t_adapt in
          if hot = largest then worst := Float.min !worst speedup;
          print_row "  %8d  %12.2f  %14.2f  %12.4f  %8.1fx  %7b@." size
            (t_static *. 1000.) (t_adapt *. 1000.) (t_audit *. 1000.) speedup
            agree;
          record "DRIFT" (Printf.sprintf "static |D|=%d" size) t_static;
          record "DRIFT" (Printf.sprintf "adaptive |D|=%d" size) t_adapt;
          record "DRIFT" (Printf.sprintf "audit |D|=%d" size) t_audit;
          audit_points := (size, t_audit) :: !audit_points)
        sizes;
      print_row
        "  adaptive speedup at largest |D|: %.1fx  (acceptance: > 1x with identical answers)@."
        !worst;
      print_row
        "  audit growth exponent in |D|: %.2f  (acceptance: ~0, O(plan) not O(data))@."
        (loglog_slope (List.rev !audit_points)))

(* ---------------------------------------------------------------- *)
(* DELTA: standing-query maintenance vs full re-evaluation            *)
(* ---------------------------------------------------------------- *)

let delta_maintenance () =
  section "DELTA"
    "Incremental answer maintenance: delta refresh vs full re-evaluation per batch";
  Format.printf
    "a standing WDPT (root E(x,y), OPT child U(y,z), free x,z) is registered@.";
  Format.printf
    "once; each 1%%-sized insertion batch is then absorbed by the counting@.";
  Format.printf
    "delta refresh (dirty-rootkey scoped re-runs + per-group frontier@.";
  Format.printf
    "updates), cross-checked every batch against evaluating the post-batch@.";
  Format.printf
    "database from scratch at both semantics levels, and the emitted change@.";
  Format.printf
    "events must replay the before-sets onto the after-sets (E030).@.";
  let p =
    Wdpt.Pattern_tree.make ~free:[ "x"; "z" ]
      (Wdpt.Pattern_tree.Node
         ( [ Atom.make "E" [ Term.var "x"; Term.var "y" ] ],
           [ Wdpt.Pattern_tree.Node
               ([ Atom.make "U" [ Term.var "y"; Term.var "z" ] ], []) ] ))
  in
  (* |D| facts: 90% E edges over |D|/4 nodes, 10% sparse U edges (so most
     root homomorphisms are bare and subsumption frontiers stay busy), plus
     a two-edge gadget E(-1,-2), E(-1,-3) whose x=-1 answer the demotion
     batch later demotes deterministically. *)
  let build size =
    let rng = Random.State.make [| 0xde17a; size |] in
    let nodes = size / 4 in
    let db = Database.create () in
    let n_u = size / 10 in
    for _ = 1 to size - n_u - 2 do
      Database.add db
        (Fact.make "E"
           [ Value.int (Random.State.int rng nodes);
             Value.int (Random.State.int rng nodes) ])
    done;
    for _ = 1 to n_u do
      Database.add db
        (Fact.make "U"
           [ Value.int (Random.State.int rng nodes);
             Value.int (Random.State.int rng nodes) ])
    done;
    Database.add db (Fact.make "E" [ Value.int (-1); Value.int (-2) ]);
    Database.add db (Fact.make "E" [ Value.int (-1); Value.int (-3) ]);
    (db, rng, nodes)
  in
  let batches = 10 in
  print_row "  %8s  %8s  %13s  %12s  %11s  %9s  %8s@." "|D|" "batch"
    "register(ms)" "delta(ms)" "full(ms)" "speedup" "demoted";
  let sizes = if !smoke then [ 800; 3_200 ] else [ 800; 1_600; 3_200 ] in
  let speedup_at_largest = ref nan in
  let largest = List.fold_left max 0 sizes in
  List.iter
    (fun size ->
      let db, rng, nodes = build size in
      let st = ref None in
      let t_register =
        time_once (fun () -> st := Some (Wdpt.Standing.register db p)) |> snd
      in
      let st = Option.get !st in
      let batch_size = max 1 (size / 100) in
      let t_delta = ref 0. and t_full = ref 0. and demoted = ref 0 in
      for batch = 1 to batches do
        let before_eval = Wdpt.Standing.answers st in
        let before_max = Wdpt.Standing.maximal_answers st in
        (* 1% insertions, 90/10 E/U like the base data; batch 2 also plants
           U(-2,-4): {x=-1,z=-4} arrives and demotes the gadget's bare
           {x=-1}, which keeps its support through E(-1,-3) *)
        if batch = 2 then
          Database.add db (Fact.make "U" [ Value.int (-2); Value.int (-4) ]);
        for _ = 1 to batch_size do
          let rel = if Random.State.int rng 10 = 0 then "U" else "E" in
          Database.add db
            (Fact.make rel
               [ Value.int (Random.State.int rng nodes);
                 Value.int (Random.State.int rng nodes) ])
        done;
        let events, dt = time_once (fun () -> Wdpt.Standing.refresh st) in
        t_delta := !t_delta +. dt;
        List.iter
          (fun (e : Wdpt.Standing.event) ->
            match e with Demoted _ -> incr demoted | _ -> ())
          events;
        (* the from-scratch baseline: evaluate a fresh copy of the post-batch
           database (cold engine cache, like a re-run would) *)
        let db' = Database.copy db in
        let (full_eval, full_max), ft =
          time_once (fun () ->
              (Wdpt.Semantics.eval db' p, Wdpt.Semantics.eval_max db' p))
        in
        t_full := !t_full +. ft;
        if not (Mapping.Set.equal (Wdpt.Standing.answers st) full_eval) then
          failwith "DELTA: maintained answers diverge from full re-evaluation";
        if not (Mapping.Set.equal (Wdpt.Standing.maximal_answers st) full_max)
        then failwith "DELTA: maintained frontier diverges from eval_max";
        match
          Analysis.Delta_audit.check_events ~before_eval ~before_max
            ~after_eval:full_eval ~after_max:full_max events
        with
        | [] -> ()
        | _ -> failwith "DELTA: change events fail the E030 replay check"
      done;
      if !demoted = 0 then
        failwith "DELTA: no batch demoted a previously maximal answer";
      let speedup = !t_full /. !t_delta in
      if size = largest then speedup_at_largest := speedup;
      print_row "  %8d  %8d  %13.2f  %12.3f  %11.2f  %8.1fx  %8d@."
        (Database.size db) batch_size (t_register *. 1000.)
        (!t_delta /. float_of_int batches *. 1000.)
        (!t_full /. float_of_int batches *. 1000.)
        speedup !demoted;
      record "DELTA" (Printf.sprintf "register |D|=%d" size) t_register;
      record "DELTA"
        (Printf.sprintf "delta-batch |D|=%d" size)
        (!t_delta /. float_of_int batches);
      record "DELTA"
        (Printf.sprintf "full-batch |D|=%d" size)
        (!t_full /. float_of_int batches))
    sizes;
  print_row
    "  delta speedup at |D|=%d: %.1fx  (acceptance: >= 10x with identical \
     change sets and >= 1 demotion)@."
    largest !speedup_at_largest;
  if !speedup_at_largest < 10. then
    failwith "DELTA: refresh is not 10x faster than full re-evaluation"

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one Test.make per table/figure          *)
(* ---------------------------------------------------------------- *)

let bechamel_suite () =
  section "BECHAMEL" "micro-benchmarks (one per table/figure, fixed small instances)";
  let open Bechamel in
  let chain = Workload.Gen_wdpt.chain_tree ~nodes:4 ~rel:"E" in
  let db = Workload.Gen_db.random_graph_db ~seed:9 ~nodes:40 ~edges:160 in
  let h =
    match Wdpt.Semantics.any_maximal_homomorphism db chain with
    | Some m -> Mapping.restrict (Wdpt.Pattern_tree.free_set chain) m
    | None -> Mapping.empty
  in
  let g3 = Wdpt.Reductions.cycle 5 in
  let p3, db3, h3 = Wdpt.Reductions.three_col_instance g3 in
  let tri = Wdpt.Pattern_tree.of_cq (Workload.Gen_cq.cycle 3) in
  let tests =
    [ Test.make ~name:"table1/eval-tractable"
        (Staged.stage (fun () -> Wdpt.Eval_tractable.decision db chain h));
      Test.make ~name:"table1/eval-hard-3col"
        (Staged.stage (fun () -> Wdpt.Eval_tractable.decision db3 p3 h3));
      Test.make ~name:"table1/partial-eval"
        (Staged.stage (fun () -> Wdpt.Partial_eval.decision db chain h));
      Test.make ~name:"table1/max-eval"
        (Staged.stage (fun () -> Wdpt.Max_eval.decision db chain h));
      Test.make ~name:"table1/subsumption"
        (Staged.stage (fun () -> Wdpt.Subsumption.subsumes chain chain));
      Test.make ~name:"table2/uwb-membership"
        (Staged.stage (fun () -> Wdpt.Union.in_m_uwb ~width:Tw ~k:1 [ chain ]));
      Test.make ~name:"table2/uwb-approximation"
        (Staged.stage (fun () -> Wdpt.Union.uwb_approximation ~width:Tw ~k:1 [ tri ]));
      Test.make ~name:"figure2/construction"
        (Staged.stage (fun () -> Workload.Hard_instances.figure2 ~n:4 ~k:2)) ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 50) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  print_row "  %-28s  %14s@." "benchmark" "ns/run";
  List.iter
    (fun test ->
      Format.print_flush ();
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> print_row "  %-28s  %14.0f@." name est
          | _ -> print_row "  %-28s  %14s@." name "n/a")
        results)
    tests

let usage = "bench [--json OUT] [--smoke] [--only ID] [--domains N] [--min-rows N]"

let () =
  let args =
    [ ("--json", Arg.String (fun s -> json_out := Some s),
       "OUT  write per-experiment median timings as JSON");
      ("--smoke", Arg.Set smoke,
       "  quick subset (t1a + engine + resource + opt + par + race + drift + delta, reduced sizes) for CI");
      ("--only", Arg.String (fun s -> only := Some s),
       "ID  run a single experiment (t1a t1b t1pf t1hw t1pm t1sub t2mem t2app fig2 cor2 prop2 engine audit resource opt par race drift delta bechamel)");
      ("--morsel-rows", Arg.Int (fun n ->
           if n < 1 then raise (Arg.Bad "--morsel-rows: morsel size must be >= 1");
           Engine.Parallel.set_morsel_rows n),
       "N  ambient morsel group size for experiments that do not sweep it (>= 1)");
      ("--domains", Arg.Int (fun n ->
           if n < 1 || n > 64 then raise (Arg.Bad "--domains: pool size must be within 1..64");
           Engine.Parallel.set_domains n),
       "N  ambient domain pool size for experiments that do not set their own (1..64)");
      ("--min-rows", Arg.Int (fun n ->
           if n < 1 then raise (Arg.Bad "--min-rows: threshold must be >= 1");
           Engine.Parallel.set_min_rows n),
       "N  ambient parallel-region row threshold (>= 1)") ]
  in
  Arg.parse args (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) usage;
  (* an unknown --only must fail loudly (a typo silently running nothing
     looks like a passing benchmark), listing what is available *)
  let experiments =
    [ "t1a"; "t1b"; "t1pf"; "t1hw"; "t1pm"; "t1sub"; "t2mem"; "t2app"; "fig2";
      "cor2"; "prop2"; "engine"; "audit"; "resource"; "opt"; "par";
      "race"; "drift"; "delta"; "bechamel" ]
  in
  (match !only with
  | Some s when not (List.mem s experiments) ->
      Printf.eprintf
        "bench: unknown experiment %S for --only; available: %s\n" s
        (String.concat " " experiments);
      exit 2
  | _ -> ());
  Format.printf "WDPT reproduction benchmarks (Barceló & Pichler, PODS 2015)@.";
  let want name =
    if !smoke then
      name = "t1a" || name = "engine" || name = "resource"
      || name = "opt" || name = "par" || name = "race" || name = "drift"
      || name = "delta"
    else match !only with None -> true | Some s -> s = name
  in
  if want "t1a" then t1_eval_tractable ();
  if want "t1b" then t1_eval_hard ();
  if want "t1pf" then t1_projection_free ();
  if want "t1hw" then t1_hw_vs_tw ();
  if want "t1pm" then t1_partial_max ();
  if want "t1sub" then t1_subsumption ();
  if want "t2mem" then t2_membership ();
  if want "t2app" then t2_approximation ();
  if want "fig2" then fig2 ();
  if want "cor2" then cor2_fpt ();
  if want "prop2" then prop2 ();
  if want "engine" then engine_speedup ();
  if want "audit" then audit_overhead ();
  if want "resource" then resource_envelope ();
  if want "opt" then opt_pipeline ();
  if want "par" then par_runtime ();
  if want "race" then race_sanitizer ();
  if want "drift" then drift_adaptive ();
  if want "delta" then delta_maintenance ();
  if want "bechamel" then bechamel_suite ();
  (match !json_out with
  | Some path -> write_json path
  | None -> ());
  Format.printf "@.done.@."
