open Relational

(* A support-counted answer set with its subsumption frontier, for one
   comparability group (answers sharing the root-free-key — only those can
   ever be ⊑-comparable, see standing.ml): all answers with multiplicity,
   plus the ⊑-maximal ones on top. Only a projected standing view keeps
   one; a projection-free view's answers are all maximal and need none. *)

module MMap = Map.Make (Mapping)

type t = {
  support : int MMap.t;        (* answer -> number of maximal homs projecting to it *)
  frontier : Mapping.Set.t;    (* the ⊑-maximal answers *)
}

type event =
  | Added of { answer : Mapping.t; maximal : bool }
  | Removed of { answer : Mapping.t; was_maximal : bool }
  | Promoted of Mapping.t
  | Demoted of Mapping.t

let answer_of = function
  | Added { answer; _ } | Removed { answer; _ } | Promoted answer | Demoted answer
    -> answer

let empty = { support = MMap.empty; frontier = Mapping.Set.empty }
let is_empty t = MMap.is_empty t.support

let support_set support =
  MMap.fold (fun a _ acc -> Mapping.Set.add a acc) support Mapping.Set.empty

let answers t = support_set t.support

let maximal t = t.frontier
let support t a = Option.value ~default:0 (MMap.find_opt a t.support)

let recompute_frontier support = Mapping.maximal_set (support_set support)

let of_answers l =
  let support =
    List.fold_left
      (fun acc a ->
        MMap.update a (function Some n -> Some (n + 1) | None -> Some 1) acc)
      MMap.empty l
  in
  { support; frontier = recompute_frontier support }

(* [apply t ~add ~remove]: shift the supports by the two multisets and diff
   the frontier, reporting one event per answer whose status changed. The
   frontier is recomputed from the surviving answers by Mapping.maximal_set —
   groups are comparability classes, typically tiny next to the view. *)
let apply t ~add ~remove =
  if add = [] && remove = [] then (t, [])
  else if is_empty t && remove = [] then begin
    (* a fresh group: every answer is new, and on the frontier iff maximal *)
    let t = of_answers add in
    let events =
      MMap.fold
        (fun a _ acc ->
          Added { answer = a; maximal = Mapping.Set.mem a t.frontier } :: acc)
        t.support []
    in
    (t, List.rev events)
  end
  else begin
    let support =
      List.fold_left
        (fun acc a ->
          MMap.update a (function Some n -> Some (n + 1) | None -> Some 1) acc)
        t.support add
    in
    let support =
      List.fold_left
        (fun acc a ->
          MMap.update a
            (function
              | Some n when n > 1 -> Some (n - 1)
              | Some _ -> None
              | None ->
                  invalid_arg "Frontier.apply: removing an unsupported answer")
            acc)
        support remove
    in
    let frontier = recompute_frontier support in
    let events = ref [] in
    let was a = MMap.mem a t.support
    and is a = MMap.mem a support in
    let consider a =
      let before = was a and after = is a in
      let fb = Mapping.Set.mem a t.frontier
      and fa = Mapping.Set.mem a frontier in
      match (before, after) with
      | false, true -> events := Added { answer = a; maximal = fa } :: !events
      | true, false -> events := Removed { answer = a; was_maximal = fb } :: !events
      | true, true ->
          if fb && not fa then events := Demoted a :: !events
          else if fa && not fb then events := Promoted a :: !events
      | false, false -> ()
    in
    (* candidates for a status change: answers touched by the shift, plus
       answers entering or leaving the frontier as a side effect *)
    let touched =
      List.fold_left
        (fun acc a -> Mapping.Set.add a acc)
        (Mapping.Set.union
           (Mapping.Set.diff t.frontier frontier)
           (Mapping.Set.diff frontier t.frontier))
        (add @ remove)
    in
    Mapping.Set.iter consider touched;
    let events =
      List.sort (fun a b -> Mapping.compare (answer_of a) (answer_of b)) !events
    in
    ({ support; frontier }, events)
  end
