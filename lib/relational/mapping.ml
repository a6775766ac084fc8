module M = Map.Make (String)

type t = Value.t M.t

let empty = M.empty
let is_empty = M.is_empty
let singleton x v = M.singleton x v
let add x v h = M.add x v h
let of_list bs = List.fold_left (fun h (x, v) -> M.add x v h) M.empty bs
let find x h = M.find_opt x h
let mem x h = M.mem x h
let bindings h = M.bindings h
let domain h = M.fold (fun x _ acc -> String_set.add x acc) h String_set.empty
let cardinal = M.cardinal

let term x h =
  match M.find_opt x h with
  | Some v -> Term.Const v
  | None -> Term.Var x

let subsumes h h' =
  M.for_all
    (fun x v ->
      match M.find_opt x h' with
      | Some v' -> Value.equal v v'
      | None -> false)
    h

let equal h h' = M.equal Value.equal h h'
let strictly_subsumes h h' = subsumes h h' && not (equal h h')
let compare h h' = M.compare Value.compare h h'

let compatible h h' =
  M.for_all
    (fun x v ->
      match M.find_opt x h' with
      | Some v' -> Value.equal v v'
      | None -> true)
    h

let union h h' =
  M.union
    (fun x v v' ->
      if Value.equal v v' then Some v
      else invalid_arg ("Mapping.union: incompatible on " ^ x))
    h h'

let restrict vars h = M.filter (fun x _ -> String_set.mem x vars) h
let restrict_list xs h = restrict (String_set.of_list xs) h
let apply_atom h a = Atom.apply ~f:(fun x -> term x h) a

let matches_fact h a f =
  if Fact.rel f <> Atom.rel a || Fact.arity f <> Atom.arity a then None
  else
    let rec go i acc args =
      match args with
      | [] -> Some acc
      | t :: rest -> (
          let v = Fact.arg f i in
          match t with
          | Term.Const c -> if Value.equal c v then go (i + 1) acc rest else None
          | Term.Var x -> (
              match M.find_opt x acc with
              | Some v' -> if Value.equal v v' then go (i + 1) acc rest else None
              | None -> go (i + 1) (M.add x v acc) rest))
    in
    go 0 h (Atom.args a)

let pp ppf h =
  let pp_binding ppf (x, v) = Format.fprintf ppf "%s↦%a" x Value.pp v in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_binding)
    (bindings h)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

(* the posting list of one binding x ↦ v: every input mapping holding it,
   with its cardinality *)
type posting = { mutable len : int; mutable members : (int * t) list }

module Binding_tbl = Hashtbl.Make (struct
  type t = string * Value.t

  let equal (x, v) (y, w) = String.equal x y && Value.equal v w
  let hash (x, v) = Hashtbl.hash (Hashtbl.hash x, Value.hash v)
end)

let maximal_set s =
  (* h ⊏ h' puts every binding of h into h', so any strict subsumer of h sits
     in the posting list of each of h's bindings and scanning the shortest
     one is enough. The elements of a set are distinct, so a subsumer of
     strictly larger domain is a strict one. A set of at most one mapping is
     its own maximal set (the common case of a small comparability group,
     which would otherwise pay for the posting table). *)
  if Set.is_empty s || Set.min_elt s == Set.max_elt s then s
  else begin
    let postings = Binding_tbl.create (min 256 (4 * Set.cardinal s)) in
    Set.iter
      (fun h ->
        let entry = (cardinal h, h) in
        M.iter
          (fun x v ->
            match Binding_tbl.find_opt postings (x, v) with
            | Some p ->
                p.len <- p.len + 1;
                p.members <- entry :: p.members
            | None -> Binding_tbl.add postings (x, v) { len = 1; members = [ entry ] })
          h)
      s;
    let subsumed h =
      if M.is_empty h then Binding_tbl.length postings > 0
      else
        let n = cardinal h in
        let shortest =
          M.fold
            (fun x v best ->
              let p = Binding_tbl.find postings (x, v) in
              if p.len < best.len then p else best)
            h
            { len = max_int; members = [] }
        in
        List.exists (fun (n', h') -> n' > n && subsumes h h') shortest.members
    in
    Set.filter (fun h -> not (subsumed h)) s
  end

let maximal_elements hs = Set.elements (maximal_set (Set.of_list hs))
