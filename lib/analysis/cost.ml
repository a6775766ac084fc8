(* The CQ-level core (bounds from stored statistics) lives in {!Cq.Cost} so
   that Wdpt.Optimizer can consume it without a dependency cycle; this module
   re-exports it under the historical [Analysis.Cost] name and adds the
   WDPT-level tree classification and JSON rendering on top. *)

type growth = Cq.Cost.growth = Polynomial of int | Exponential

type t = Cq.Cost.t = {
  natoms : int;
  nvars : int;
  nfree : int;
  adom : int;
  treewidth : int;
  acyclic : bool;
  ghw_le : int option;
  product_bound : float;
  vardom_bound : float;
  decomp_bound : float option;
  adom_bound : float;
  hom_bound : float;
  answer_bound : float;
  growth : growth;
}

let analyze = Cq.Cost.analyze
let bound_count = Cq.Cost.bound_count

(* ---- WDPT-level classification ------------------------------------------ *)

let tree_class ?(k_max = 3) ?(c_max = 3) p =
  let rec least_k k =
    if k > k_max then None
    else if Wdpt.Classes.locally_in ~width:Tw ~k p then Some k
    else least_k (k + 1)
  in
  match least_k 1 with
  | None -> None
  | Some k ->
      let c = Wdpt.Classes.interface p in
      if c <= c_max then Some (k, c) else None

let tree_growth ?k_max ?c_max p =
  match tree_class ?k_max ?c_max p with
  | Some (k, c) ->
      (* Proposition 2: p ∈ ℓ-TW(k) ∩ BI(c) admits a width-(k + 2c)
         decomposition of the full-tree query, hence polynomial evaluation. *)
      Polynomial (k + (2 * c) + 1)
  | None -> Exponential

(* ---- rendering ---------------------------------------------------------- *)

let growth_json = function
  | Polynomial d ->
      Json.Obj [ ("shape", Str "polynomial"); ("degree", Int d) ]
  | Exponential -> Json.Obj [ ("shape", Str "exponential") ]

let log_json f = if f = neg_infinity then Json.Null else Json.Float f

let to_json c =
  Json.Obj
    [ ("atoms", Int c.natoms);
      ("variables", Int c.nvars);
      ("free-variables", Int c.nfree);
      ("adom-size", Int c.adom);
      ("treewidth", Int c.treewidth);
      ("acyclic", Bool c.acyclic);
      ( "ghw-at-most",
        match c.ghw_le with Some k -> Json.Int k | None -> Json.Null );
      ( "log10-bounds",
        Obj
          [ ("relation-product", log_json c.product_bound);
            ("variable-domains", log_json c.vardom_bound);
            ( "decomposition",
              match c.decomp_bound with
              | Some b -> log_json b
              | None -> Json.Null );
            ("adom-power", log_json c.adom_bound);
            ("homomorphisms", log_json c.hom_bound);
            ("answers", log_json c.answer_bound) ] );
      ("answer-count-bound", if bound_count c = max_int then Json.Null else Int (bound_count c));
      ("growth", growth_json c.growth) ]

let pp_growth ppf = function
  | Polynomial d -> Format.fprintf ppf "polynomial (degree <= %d)" d
  | Exponential -> Format.fprintf ppf "exponential"

let pp_log ppf f =
  if f = neg_infinity then Format.pp_print_string ppf "0 (10^-inf)"
  else Format.fprintf ppf "10^%.2f" f

let pp ppf c =
  Format.fprintf ppf
    "%d atom(s), %d variable(s) (%d free), active domain %d@,"
    c.natoms c.nvars c.nfree c.adom;
  Format.fprintf ppf "structure: treewidth %d, %s%a@," c.treewidth
    (if c.acyclic then "acyclic" else "cyclic")
    (fun ppf -> function
      | Some k -> Format.fprintf ppf ", ghw <= %d" k
      | None -> ())
    c.ghw_le;
  Format.fprintf ppf "bounds: relation product %a, variable domains %a@,"
    pp_log c.product_bound pp_log c.vardom_bound;
  (match c.decomp_bound with
  | Some b -> Format.fprintf ppf "        decomposition guards %a@," pp_log b
  | None -> ());
  Format.fprintf ppf "        adom power %a => homomorphisms <= %a@,"
    pp_log c.adom_bound pp_log c.hom_bound;
  Format.fprintf ppf "answers <= %a; predicted growth: %a" pp_log
    c.answer_bound pp_growth c.growth
