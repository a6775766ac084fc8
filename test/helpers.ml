(* Shared test utilities: alcotest testables, qcheck generators. *)

open Relational

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mapping_testable = Alcotest.testable Mapping.pp Mapping.equal

let mapping_set_testable =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Mapping.pp)
        (Mapping.Set.elements s))
    Mapping.Set.equal

let v = Term.var
let c i = Term.int i
let atom r args = Atom.make r args
let e a b = Atom.make "E" [ v a; v b ]

let db_of_edges edges =
  Database.of_list
    (List.map (fun (a, b) -> Fact.make "E" [ Value.int a; Value.int b ]) edges)

let mapping l = Mapping.of_list (List.map (fun (x, i) -> (x, Value.int i)) l)

(* ---- qcheck generators ------------------------------------------------- *)

(* a small random database over binary relation E and unary U *)
let gen_db =
  QCheck.Gen.(
    let* nodes = int_range 2 6 in
    let* edge_count = int_range 1 10 in
    let* edges =
      list_size (return edge_count)
        (pair (int_range 0 (nodes - 1)) (int_range 0 (nodes - 1)))
    in
    let* unary_count = int_range 0 4 in
    let* unaries = list_size (return unary_count) (int_range 0 (nodes - 1)) in
    return
      (Database.of_list
         (List.map (fun (a, b) -> Fact.make "E" [ Value.int a; Value.int b ]) edges
         @ List.map (fun a -> Fact.make "U" [ Value.int a ]) unaries)))

let arbitrary_db = QCheck.make ~print:(Format.asprintf "%a" Database.pp) gen_db

(* random Boolean-ish CQ over E/U with a few head vars *)
let gen_cq =
  QCheck.Gen.(
    let* nvars = int_range 1 5 in
    let var i = "x" ^ string_of_int i in
    let* natoms = int_range 1 6 in
    let* atoms =
      list_size (return natoms)
        (let* kind = int_range 0 3 in
         let* a = int_range 0 (nvars - 1) in
         let* b = int_range 0 (nvars - 1) in
         return
           (if kind = 0 then Atom.make "U" [ v (var a) ]
            else Atom.make "E" [ v (var a); v (var b) ]))
    in
    let vars_used =
      List.fold_left
        (fun acc a -> String_set.union acc (Atom.var_set a))
        String_set.empty atoms
      |> String_set.elements
    in
    let* nhead = int_range 0 (min 2 (List.length vars_used)) in
    let head = List.filteri (fun i _ -> i < nhead) vars_used in
    return (Cq.Query.make ~head ~body:atoms))

let arbitrary_cq = QCheck.make ~print:(Format.asprintf "%a" Cq.Query.pp) gen_cq

(* random small WDPT over E/U, well-designed by construction: each node
   shares at most [interface] variables with its parent and introduces fresh
   ones *)
let gen_wdpt_sized ~max_depth ~max_branch ~interface =
  QCheck.Gen.(
    let counter = ref 0 in
    let fresh () =
      incr counter;
      "w" ^ string_of_int !counter
    in
    let rec node depth parent_vars =
      let* n_shared = int_range 0 (min interface (List.length parent_vars)) in
      let shared = List.filteri (fun i _ -> i < n_shared) parent_vars in
      let* n_fresh = int_range 1 2 in
      let fresh_vars = List.init n_fresh (fun _ -> fresh ()) in
      let vars = shared @ fresh_vars in
      let* atoms =
        let pick_var = oneofl vars in
        let* n_atoms = int_range 1 3 in
        list_size (return n_atoms)
          (let* kind = int_range 0 2 in
           let* a = pick_var in
           let* b = pick_var in
           return
             (if kind = 0 then Atom.make "U" [ v a ]
              else Atom.make "E" [ v a; v b ]))
      in
      (* make sure every declared var occurs *)
      let occurring =
        List.fold_left
          (fun acc a -> String_set.union acc (Atom.var_set a))
          String_set.empty atoms
      in
      let atoms =
        atoms
        @ List.filter_map
            (fun x ->
              if String_set.mem x occurring then None
              else Some (Atom.make "U" [ v x ]))
            vars
      in
      let* n_kids = if depth >= max_depth then return 0 else int_range 0 max_branch in
      let* kids = list_size (return n_kids) (node (depth + 1) vars) in
      return (Wdpt.Pattern_tree.Node (atoms, kids))
    in
    let* spec = node 0 [] in
    (* free vars: a random subset of all variables *)
    let rec spec_vars (Wdpt.Pattern_tree.Node (atoms, kids)) =
      List.fold_left
        (fun acc a -> String_set.union acc (Atom.var_set a))
        (List.fold_left
           (fun acc k -> String_set.union acc (spec_vars k))
           String_set.empty kids)
        atoms
    in
    let all = String_set.elements (spec_vars spec) in
    let* mask = list_size (return (List.length all)) bool in
    let free = List.filteri (fun i _ -> List.nth mask i) all in
    return (Wdpt.Pattern_tree.make ~free spec))

let gen_wdpt = gen_wdpt_sized ~max_depth:2 ~max_branch:2 ~interface:2

let arbitrary_wdpt =
  QCheck.make ~print:(Format.asprintf "%a" Wdpt.Pattern_tree.pp) gen_wdpt

(* small trees for the expensive cross-validation properties *)
let arbitrary_small_wdpt =
  QCheck.make
    ~print:(Format.asprintf "%a" Wdpt.Pattern_tree.pp)
    (gen_wdpt_sized ~max_depth:1 ~max_branch:2 ~interface:1)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* WDPTs with two or three nodes: small random trees, and (one draw in two)
   two-node trees with a triangle below the root, outside WB(1), so that
   the approximation search has candidates to compare *)
let gen_wdpt_2_3 =
  QCheck.Gen.(
    let base = gen_wdpt_sized ~max_depth:2 ~max_branch:2 ~interface:1 in
    let rec small st =
      let p = base st in
      let n = Wdpt.Pattern_tree.node_count p in
      if n >= 2 && n <= 3 then p else small st
    in
    let triangle =
      let* seed = int_bound 1_000_000 in
      let* free_per_node = int_range 1 2 in
      return
        (Workload.Gen_wdpt.random ~seed ~depth:1 ~branching:1 ~vars_per_node:2
           ~interface:1 ~free_per_node ~style:(Clique 3) ~rel:"E")
    in
    oneof [ small; triangle ])

let arbitrary_wdpt_2_3 =
  QCheck.make ~print:(Format.asprintf "%a" Wdpt.Pattern_tree.pp) gen_wdpt_2_3
