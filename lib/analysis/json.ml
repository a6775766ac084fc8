type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* One number for the whole machine-readable surface (lint/explain/fuzz
   reports): bump it when an existing key changes meaning or goes away;
   additive keys do not bump it. Tests lock the current value. *)
let schema_version = 2

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f ->
      (* JSON has no inf/nan literals; those render as null *)
      if Float.is_finite f then Format.fprintf ppf "%.6g" f
      else Format.pp_print_string ppf "null"
  | Str s -> Format.fprintf ppf "\"%s\"" (escape s)
  | List [] -> Format.pp_print_string ppf "[]"
  | List xs ->
      Format.fprintf ppf "@[<hv 2>[@,%a@;<0 -2>]@]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,") pp)
        xs
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj fields ->
      Format.fprintf ppf "@[<hv 2>{@,%a@;<0 -2>}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
           (fun ppf (k, v) -> Format.fprintf ppf "@[<hov 2>\"%s\":@ %a@]" (escape k) pp v))
        fields

let to_string j = Format.asprintf "%a" pp j
