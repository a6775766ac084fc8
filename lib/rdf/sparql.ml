open Relational

type expr =
  | Bgp of Triple.pattern list
  | And of expr * expr
  | Opt of expr * expr

type query = {
  select : string list option;
  where : expr;
}

let term_vars t =
  match Term.as_var t with
  | Some x -> String_set.singleton x
  | None -> String_set.empty

let pattern_vars (s, p, o) =
  String_set.union (term_vars s) (String_set.union (term_vars p) (term_vars o))

let rec vars_of_expr = function
  | Bgp ps ->
      List.fold_left
        (fun acc p -> String_set.union acc (pattern_vars p))
        String_set.empty ps
  | And (a, b) | Opt (a, b) -> String_set.union (vars_of_expr a) (vars_of_expr b)

let well_designed_witness e =
  let first a b = match a with Some _ -> a | None -> b () in
  let rec check e outside =
    match e with
    | Bgp _ -> None
    | And (a, b) ->
        first
          (check a (String_set.union outside (vars_of_expr b)))
          (fun () -> check b (String_set.union outside (vars_of_expr a)))
    | Opt (a, b) ->
        let escaping =
          String_set.diff
            (String_set.inter (vars_of_expr b) outside)
            (vars_of_expr a)
        in
        (match String_set.choose_opt escaping with
        | Some x -> Some (x, e)
        | None ->
            first
              (check a (String_set.union outside (vars_of_expr b)))
              (fun () -> check b (String_set.union outside (vars_of_expr a))))
  in
  check e String_set.empty

let is_well_designed e = Option.is_none (well_designed_witness e)

(* OPT normal form: no OPT below an AND. Assumes well-designedness (the
   rewriting (P1 OPT P2) AND P3 ≡ (P1 AND P3) OPT P2 is only sound then). *)
let rec normal_form = function
  | Bgp _ as b -> b
  | Opt (a, b) -> Opt (normal_form a, normal_form b)
  | And (a, b) -> (
      match (normal_form a, normal_form b) with
      | Opt (a1, a2), nb -> normal_form (Opt (And (a1, nb), a2))
      | na, Opt (b1, b2) -> normal_form (Opt (And (na, b1), b2))
      | Bgp xs, Bgp ys -> Bgp (xs @ ys)
      | (And _ as na), nb | na, (And _ as nb) ->
          (* normal_form never returns And *)
          ignore (na, nb);
          assert false)

let to_spec { select; where } =
  (* purely structural: sound as a translation only for well-designed
     patterns, but usable by the analyzer to locate defects in any pattern *)
  let rec build e : Wdpt.Pattern_tree.spec =
    match e with
    | Bgp ps -> Node (List.map Triple.pattern_to_atom ps, [])
    | Opt (a, b) ->
        let (Node (atoms, kids)) = build a in
        Node (atoms, kids @ [ build b ])
    | And _ -> assert false (* eliminated by normal_form *)
  in
  let spec = build (normal_form where) in
  let free =
    match select with
    | None -> String_set.elements (vars_of_expr where)
    | Some vs -> vs
  in
  (free, spec)

let to_pattern_tree q =
  if not (is_well_designed q.where) then
    invalid_arg "Sparql.to_pattern_tree: pattern is not well-designed";
  let free, spec = to_spec q in
  Wdpt.Pattern_tree.make ~free spec

let of_pattern_tree p =
  let patterns_of i =
    List.map
      (fun a ->
        match Triple.atom_to_pattern a with
        | Some pat -> pat
        | None -> invalid_arg "Sparql.of_pattern_tree: non-triple atom")
      (Wdpt.Pattern_tree.atoms p i)
  in
  let rec build i =
    let base = Bgp (patterns_of i) in
    List.fold_left
      (fun acc c -> Opt (acc, build c))
      base (Wdpt.Pattern_tree.children p i)
  in
  { select = Some (Wdpt.Pattern_tree.free p);
    where = build (Wdpt.Pattern_tree.root p) }

(* ---- concrete syntax ---------------------------------------------------- *)

type token =
  | SELECT
  | WHERE
  | STAR
  | OPT_KW
  | AND_KW
  | DOT
  | LBRACE
  | RBRACE
  | VAR of string
  | WORD of string
  | STRING of string
  | INT of int

module Loc = Wdpt.Loc

(* advance a position over src.[p.offset .. j-1] *)
let advance_to src p j =
  let q = ref p in
  for k = p.Loc.offset to j - 1 do
    q := Loc.advance !q src.[k]
  done;
  !q

let tokenize src =
  let n = String.length src in
  let fail message p = Error { Wdpt.Syntax.message; pos = Some p } in
  let rec go p acc =
    let i = p.Loc.offset in
    if i >= n then Ok (List.rev acc, p)
    else
      let c = src.[i] in
      let single tok =
        let q = Loc.advance p c in
        go q ((tok, Loc.make_span p q) :: acc)
      in
      match c with
      | ' ' | '\t' | '\n' | '\r' -> go (Loc.advance p c) acc
      | '{' -> single LBRACE
      | '}' -> single RBRACE
      | '.' -> single DOT
      | '*' -> single STAR
      | '"' ->
          let rec close j =
            if j >= n then fail "unterminated string literal" p
            else if src.[j] = '"' then
              let q = advance_to src p (j + 1) in
              go q ((STRING (String.sub src (i + 1) (j - i - 1)), Loc.make_span p q) :: acc)
            else close (j + 1)
          in
          close (i + 1)
      | '?' ->
          let rec word j =
            if j < n
               && (match src.[j] with
                  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
                  | _ -> false)
            then word (j + 1)
            else j
          in
          let j = word (i + 1) in
          if j = i + 1 then fail "empty variable name" p
          else
            let q = advance_to src p j in
            go q ((VAR (String.sub src (i + 1) (j - i - 1)), Loc.make_span p q) :: acc)
      | _ ->
          let rec word j =
            if j < n
               && (match src.[j] with
                  | ' ' | '\t' | '\n' | '\r' | '{' | '}' | '"' | '?' -> false
                  | '.' -> false
                  | _ -> true)
            then word (j + 1)
            else j
          in
          let j = word i in
          let w = String.sub src i (j - i) in
          let tok =
            match String.uppercase_ascii w with
            | "SELECT" -> SELECT
            | "WHERE" -> WHERE
            | "OPT" | "OPTIONAL" -> OPT_KW
            | "AND" -> AND_KW
            | _ -> (
                match int_of_string_opt w with
                | Some k -> INT k
                | None -> WORD w)
          in
          let q = advance_to src p j in
          go q ((tok, Loc.make_span p q) :: acc)
  in
  go Loc.start_pos []

exception Parse_error of Wdpt.Syntax.parse_failure

let parse_located src =
  match tokenize src with
  | Error e -> Error e
  | Ok (tokens, eof) -> (
      let toks = ref tokens in
      let spans = ref [] in
      let peek () = match !toks with (t, _) :: _ -> Some t | [] -> None in
      let here () = match !toks with (_, s) :: _ -> s.Loc.start | [] -> eof in
      let here_span () = match !toks with (_, s) :: _ -> s | [] -> Loc.at eof in
      let advance () = match !toks with _ :: rest -> toks := rest | [] -> () in
      let fail message = raise (Parse_error { message; pos = Some (here ()) }) in
      let expect t name =
        match peek () with
        | Some t' when t' = t -> advance ()
        | _ -> fail ("expected " ^ name)
      in
      let term () =
        match peek () with
        | Some (VAR x) ->
            advance ();
            Term.var x
        | Some (WORD w) ->
            advance ();
            Term.str w
        | Some (STRING s) ->
            advance ();
            Term.str s
        | Some (INT k) ->
            advance ();
            Term.int k
        | _ -> fail "expected a term"
      in
      let triple () =
        let start = here_span () in
        let s = term () in
        let p = term () in
        let stop = here_span () in
        let o = term () in
        let pat = (s, p, o) in
        spans := (pat, Loc.union start stop) :: !spans;
        pat
      in
      (* pattern := primary (('OPT'|'AND'|'.') primary)*  left-assoc *)
      let rec primary () =
        match peek () with
        | Some LBRACE ->
            advance ();
            let e = pattern () in
            expect RBRACE "'}'";
            e
        | Some (VAR _ | WORD _ | STRING _ | INT _) -> Bgp [ triple () ]
        | _ -> fail "expected a group or a triple"
      and pattern () =
        let rec loop acc =
          match peek () with
          | Some OPT_KW ->
              advance ();
              loop (Opt (acc, primary ()))
          | Some (AND_KW | DOT) ->
              advance ();
              (* trailing dot before '}' is allowed *)
              (match peek () with
              | Some RBRACE | None -> acc
              | _ -> loop (And (acc, primary ())))
          | Some (VAR _ | WORD _ | STRING _ | INT _ | LBRACE) ->
              (* juxtaposition also means AND *)
              loop (And (acc, primary ()))
          | _ -> acc
        in
        loop (primary ())
      in
      try
        expect SELECT "SELECT";
        let select =
          match peek () with
          | Some STAR ->
              advance ();
              None
          | _ ->
              let rec vars acc =
                match peek () with
                | Some (VAR x) ->
                    advance ();
                    vars (x :: acc)
                | _ -> List.rev acc
              in
              let vs = vars [] in
              if vs = [] then fail "expected variables or * after SELECT";
              Some vs
        in
        expect WHERE "WHERE";
        let where = pattern () in
        (match peek () with
        | None -> ()
        | Some _ -> fail "trailing tokens");
        Ok ({ select; where }, List.rev !spans)
      with Parse_error e -> Error e)

let parse src =
  match parse_located src with
  | Ok (q, _) -> Ok q
  | Error e -> Error (Wdpt.Syntax.describe_failure e)

let parse_and_translate src =
  match parse src with
  | Error e -> Error e
  | Ok q -> (
      try Ok (to_pattern_tree q) with Invalid_argument e -> Error e)

let pp_term ppf t =
  match t with
  | Term.Var x -> Format.fprintf ppf "?%s" x
  | Term.Const (Value.Int k) -> Format.pp_print_int ppf k
  | Term.Const (Value.Str s) ->
      if String.contains s ' ' then Format.fprintf ppf "%S" s
      else Format.pp_print_string ppf s

let rec pp_expr ppf = function
  | Bgp ps ->
      Format.fprintf ppf "{ %a }"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " . ")
           (fun ppf (s, p, o) ->
             Format.fprintf ppf "%a %a %a" pp_term s pp_term p pp_term o))
        ps
  | And (a, b) -> Format.fprintf ppf "{ %a AND %a }" pp_expr a pp_expr b
  | Opt (a, b) -> Format.fprintf ppf "{ %a OPT %a }" pp_expr a pp_expr b

let pp_query ppf { select; where } =
  (match select with
  | None -> Format.fprintf ppf "SELECT * "
  | Some vs ->
      Format.fprintf ppf "SELECT %a "
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           (fun ppf v -> Format.fprintf ppf "?%s" v))
        vs);
  Format.fprintf ppf "WHERE %a" pp_expr where
