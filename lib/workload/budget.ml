open Relational

let nvars p = float_of_int (String_set.cardinal (Wdpt.Pattern_tree.vars p))
let adom db = float_of_int (max 2 (Database.adom_size db))

let brute_force_feasible p db =
  let nsubtrees =
    Seq.fold_left (fun k _ -> k + 1) 0 (Wdpt.Pattern_tree.subtrees p)
  in
  log (float_of_int nsubtrees) +. (nvars p *. log (adom db)) <= log 3e4

let engine_feasible p db = nvars p *. log (adom db) <= log 1e6
let delta_feasible p db = nvars p *. log (adom db +. 6.) <= log 3e4
