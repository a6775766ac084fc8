type t =
  | Int of int
  | Str of string

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1

let equal a b = compare a b = 0

let hash = function
  | Int x -> Hashtbl.hash (0, x)
  | Str s -> Hashtbl.hash (1, s)

let int x = Int x
let str s = Str s

let fresh_counter = ref 0

let fresh ?(tag = "c") () =
  incr fresh_counter;
  Str (Printf.sprintf "#%s%d" tag !fresh_counter)

let reset_fresh () = fresh_counter := 0

let pp ppf = function
  | Int x -> Format.pp_print_int ppf x
  | Str s -> Format.pp_print_string ppf s

let to_string v = Format.asprintf "%a" pp v

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
