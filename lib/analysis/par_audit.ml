(* Static verification of the parallel execution plan.

   Mirrors Plan_audit: the auditor runs over the inspectable view
   (Engine.Inspect.par_view), not over the runtime itself, so tests can
   corrupt a copy of the view and watch the right E-code come back — while
   the genuine view is re-derived from the same pure functions the runtime
   partitions with, so a clean audit certifies the decision an actual region
   takes. Every check is O(plan): O(chunks) for coverage, O(writes +
   inventory) for the shared-state discipline, O(domains) for snapshot
   skew. *)

module I = Engine.Inspect

let d ?witness code message = Diagnostic.make ?witness code message

(* E011: the chunk slices must partition [0, rows) exactly — each chunk
   starts where the previous one ended (gap/overlap otherwise), no chunk has
   negative width, and the last chunk ends at [rows]. A dropped candidate
   row is a silently missing answer; a double-covered one is counted
   twice. *)
let check_coverage (v : I.par_view) acc =
  let rows = v.I.pv_rows in
  let acc = ref acc in
  let expected = ref 0 in
  Array.iteri
    (fun i (lo, hi) ->
      if lo <> !expected then
        acc :=
          d
            ~witness:
              (Diagnostic.Coverage
                 { chunk = i; lo; hi; expected_lo = !expected; rows })
            Diagnostic.Chunk_coverage
            (Printf.sprintf
               "chunk %d spans [%d, %d) but must start at %d: %s in the \
                candidate range [0, %d)"
               i lo hi !expected
               (if lo > !expected then "gap" else "overlap")
               rows)
          :: !acc
      else if hi < lo then
        acc :=
          d
            ~witness:
              (Diagnostic.Coverage
                 { chunk = i; lo; hi; expected_lo = !expected; rows })
            Diagnostic.Chunk_coverage
            (Printf.sprintf "chunk %d has negative width [%d, %d)" i lo hi)
          :: !acc;
      expected := max lo hi)
    v.I.pv_chunks;
  if !expected <> rows then
    acc :=
      d
        ~witness:
          (Diagnostic.Coverage
             { chunk = Array.length v.I.pv_chunks;
               lo = !expected;
               hi = !expected;
               expected_lo = rows;
               rows })
        Diagnostic.Chunk_coverage
        (Printf.sprintf
           "chunks cover [0, %d) but the candidate range is [0, %d)" !expected
           rows)
      :: !acc;
  !acc

(* E016: morsel geometry — generalizes E011. A parallel partition must be
   the fixed-stride morsel slices the runtime promises: no chunk wider than
   the configured morsel cap (a fat chunk resurrects the single-huge-chunk
   skew the morsels exist to fix), every chunk before the last carrying the
   uniform stride, and the ragged tail no wider than that stride. Only
   meaningful once E011 certified the slices partition [0, rows) — the
   caller gates on that — and vacuous for sequential regions (one chunk is
   the whole range by design). *)
let check_morsels (v : I.par_view) acc =
  if v.I.pv_sequential || Array.length v.I.pv_chunks = 0 then acc
  else begin
    let n = Array.length v.I.pv_chunks in
    let m = v.I.pv_morsel_rows in
    let stride =
      let lo, hi = v.I.pv_chunks.(0) in
      hi - lo
    in
    let acc = ref acc in
    Array.iteri
      (fun i (lo, hi) ->
        let w = hi - lo in
        let flag message =
          acc :=
            d
              ~witness:
                (Diagnostic.Morsel { chunk = i; lo; hi; stride; morsel = m })
              Diagnostic.Morsel_coverage message
            :: !acc
        in
        if w > m then
          flag
            (Printf.sprintf
               "chunk %d spans [%d, %d): %d row(s) exceed the %d-row morsel \
                cap"
               i lo hi w m)
        else if i < n - 1 && w <> stride then
          flag
            (Printf.sprintf
               "chunk %d spans [%d, %d) but every chunk before the last must \
                carry the uniform %d-row stride"
               i lo hi stride)
        else if i = n - 1 && i > 0 && w > stride then
          flag
            (Printf.sprintf
               "last chunk %d spans [%d, %d): wider than the %d-row stride"
               i lo hi stride))
      v.I.pv_chunks;
    !acc
  end

let kind_string = function
  | I.Atomic_cell -> "atomic"
  | I.Chunk_local -> "chunk-local"

(* E014: every write site must target a declared shared location, and a
   write performed by more than its owning chunk must target an atomic one —
   a cross-chunk store to chunk-local state is exactly the race the
   sanitizer exists to catch dynamically. *)
let check_writes (v : I.par_view) acc =
  Array.fold_left
    (fun acc (w : I.write_view) ->
      let decl =
        Array.to_list v.I.pv_shared
        |> List.find_opt (fun (s : I.shared_view) -> s.I.s_name = w.I.w_target)
      in
      match decl with
      | None ->
          d
            ~witness:
              (Diagnostic.Shared_write
                 { site = w.I.w_site;
                   target = w.I.w_target;
                   declared = false;
                   owner_only = w.I.w_owner_only;
                   kind = "undeclared" })
            Diagnostic.Undeclared_write
            (Printf.sprintf
               "write site %s targets %s, which is not in the declared \
                shared-state inventory"
               w.I.w_site w.I.w_target)
          :: acc
      | Some s when s.I.s_kind <> I.Atomic_cell && not w.I.w_owner_only ->
          d
            ~witness:
              (Diagnostic.Shared_write
                 { site = w.I.w_site;
                   target = w.I.w_target;
                   declared = true;
                   owner_only = false;
                   kind = kind_string s.I.s_kind })
            Diagnostic.Undeclared_write
            (Printf.sprintf
               "write site %s stores cross-chunk into %s, declared %s"
               w.I.w_site w.I.w_target (kind_string s.I.s_kind))
          :: acc
      | Some _ -> acc)
    acc v.I.pv_writes

(* E015: the region hands every domain the same compiled plan over the same
   store, so each domain must observe the same (compiled, store, live)
   snapshot triple; a deviating domain would enumerate a different database
   than its peers. *)
let check_snapshots (v : I.par_view) acc =
  if Array.length v.I.pv_snapshots = 0 then acc
  else begin
    let rc, rs, rl = v.I.pv_snapshots.(0) in
    let acc = ref acc in
    Array.iteri
      (fun i (c, s, l) ->
        if i > 0 && (c, s, l) <> (rc, rs, rl) then
          acc :=
            d
              ~witness:
                (Diagnostic.Skew
                   { domain = i;
                     compiled = c;
                     store = s;
                     live = l;
                     ref_domain = 0;
                     ref_compiled = rc;
                     ref_store = rs;
                     ref_live = rl })
              Diagnostic.Version_skew
              (Printf.sprintf
                 "domain %d observes snapshot (compiled %d, store %d, live \
                  %d); domain 0 observes (%d, %d, %d)"
                 i c s l rc rs rl)
            :: !acc)
      v.I.pv_snapshots;
    !acc
  end

let audit_view (v : I.par_view) =
  let coverage = check_coverage v [] in
  (* E016 presumes E011-certified slices; skip it when coverage already
     failed so every corruption keeps exactly one primary finding. *)
  let acc = if coverage = [] then check_morsels v [] else coverage in
  List.rev (check_snapshots v (check_writes v acc))

let audit p = audit_view (Engine.Inspect.par p)

(* ---- rendering (consumed by the explain CLI) --------------------------- *)

let par_json (v : I.par_view) =
  Json.Obj
    [ ("domains", Int v.I.pv_domains);
      ("min-rows",
        if v.I.pv_min_rows = max_int then Json.Null else Int v.I.pv_min_rows);
      ("morsel-rows", Int v.I.pv_morsel_rows);
      ("atom", (match v.I.pv_atom with None -> Json.Null | Some a -> Int a));
      ("rows", Int v.I.pv_rows);
      ("sequential", Bool v.I.pv_sequential);
      ("reason", Str v.I.pv_reason);
      ( "chunks",
        List
          (Array.to_list v.I.pv_chunks
          |> List.map (fun (lo, hi) ->
                 Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi) ])) );
      ( "reducers",
        List
          (Array.to_list v.I.pv_reducers
          |> List.map (fun (r : I.reducer_view) ->
                 Json.Obj
                   [ ("primitive", Str r.I.r_primitive);
                     ("merge", Str r.I.r_merge) ])) );
      ( "shared",
        List
          (Array.to_list v.I.pv_shared
          |> List.map (fun (s : I.shared_view) ->
                 Json.Obj
                   [ ("name", Str s.I.s_name);
                     ("kind", Str (kind_string s.I.s_kind)) ])) );
      ( "writes",
        List
          (Array.to_list v.I.pv_writes
          |> List.map (fun (w : I.write_view) ->
                 Json.Obj
                   [ ("site", Str w.I.w_site);
                     ("target", Str w.I.w_target);
                     ("owner-only", Bool w.I.w_owner_only) ])) );
      ( "snapshots",
        List
          (Array.to_list v.I.pv_snapshots
          |> List.mapi (fun i (c, s, l) ->
                 Json.Obj
                   [ ("domain", Int i);
                     ("compiled", Int c);
                     ("store", Int s);
                     ("live", Int l) ])) ) ]

let batch_json (b : I.batch_view) =
  Json.Obj
    [ ("morsel-rows", Int b.I.b_morsel_rows);
      ("groups", Int b.I.b_groups);
      ( "columns",
        List
          (Array.to_list b.I.b_columns
          |> List.map (fun (s, x) ->
                 Json.Obj
                   [ ("slot", Json.Int s); ("variable", Json.Str x) ])) );
      ( "stages",
        List
          (Array.to_list b.I.b_stages
          |> List.map (fun (st : I.batch_stage_view) ->
                 Json.Obj
                   [ ("atom", Int st.I.bv_atom);
                     ("checks", Int (Array.length st.I.bv_checks));
                     ("probe-cols", Int (Array.length st.I.bv_cols));
                     ("binds", Int (Array.length st.I.bv_binds));
                     ("dups", Int (Array.length st.I.bv_dups));
                     ("filter", Bool st.I.bv_filter) ])) ) ]

let pp_batch ppf (b : I.batch_view) =
  begin
    Format.fprintf ppf
      "batch: vectorized — %d-row morsel group(s), %d group(s) at the top \
       level@,"
      b.I.b_morsel_rows b.I.b_groups;
    Format.fprintf ppf "  columns:";
    if Array.length b.I.b_columns = 0 then Format.fprintf ppf " none"
    else
      Array.iter
        (fun (s, x) -> Format.fprintf ppf " %d:%s" s x)
        b.I.b_columns;
    Format.fprintf ppf "@,";
    Array.iteri
      (fun i (st : I.batch_stage_view) ->
        if i > 0 then Format.fprintf ppf "@,";
        Format.fprintf ppf
          "  stage %d: atom %d — %d check(s), %d probe col(s), %d bind(s), \
           %d dup(s)%s"
          i st.I.bv_atom
          (Array.length st.I.bv_checks)
          (Array.length st.I.bv_cols)
          (Array.length st.I.bv_binds)
          (Array.length st.I.bv_dups)
          (if st.I.bv_filter then ", mask-only filter" else ""))
      b.I.b_stages;
    if Array.length b.I.b_stages = 0 then
      Format.fprintf ppf "  no stages (atomless plan)"
  end

let pp_par ppf (v : I.par_view) =
  Format.fprintf ppf "decision: %s@," v.I.pv_reason;
  Format.fprintf ppf "  pool of %d domain(s), %s, %d-row morsels@,"
    v.I.pv_domains
    (if v.I.pv_min_rows = max_int then "no row threshold"
     else Printf.sprintf "%d-row threshold" v.I.pv_min_rows)
    v.I.pv_morsel_rows;
  (match v.I.pv_atom with
  | Some a ->
      Format.fprintf ppf "  top-level atom %d: %d candidate row(s)@," a
        v.I.pv_rows
  | None -> Format.fprintf ppf "  no top-level atom@,");
  Format.fprintf ppf "  chunks:";
  Array.iter (fun (lo, hi) -> Format.fprintf ppf " [%d,%d)" lo hi) v.I.pv_chunks;
  Format.fprintf ppf "@,";
  Array.iter
    (fun (r : I.reducer_view) ->
      Format.fprintf ppf "  reducer %s: merge %s@," r.I.r_primitive
        r.I.r_merge)
    v.I.pv_reducers;
  Format.fprintf ppf "  shared:";
  Array.iter
    (fun (s : I.shared_view) ->
      Format.fprintf ppf " %s (%s)" s.I.s_name (kind_string s.I.s_kind))
    v.I.pv_shared;
  Format.fprintf ppf "@,";
  let c, s, l =
    if Array.length v.I.pv_snapshots > 0 then v.I.pv_snapshots.(0) else (0, 0, 0)
  in
  Format.fprintf ppf "  snapshots: compiled %d, store %d, live %d on %d domain(s)"
    c s l
    (Array.length v.I.pv_snapshots)
