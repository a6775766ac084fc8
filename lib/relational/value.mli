(** Constants of the universe [U].

    The paper works with an abstract countably infinite set of constants; we
    realize it as the disjoint union of machine integers and strings, which is
    enough for every construction in the paper (canonical databases need fresh
    constants, which {!fresh} provides). *)

type t =
  | Int of int
  | Str of string

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val int : int -> t
val str : string -> t

(** [fresh ~tag ()] returns a constant guaranteed distinct from every constant
    created so far in this process (used to freeze variables in canonical
    databases). *)
val fresh : ?tag:string -> unit -> t

(** [reset_fresh ()] rewinds the global fresh-constant counter. Only for test
    setup: it makes fresh-constant names deterministic per test instead of
    depending on how many tests ran before. Never call it while values from a
    previous epoch are still alive in a database. *)
val reset_fresh : unit -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
