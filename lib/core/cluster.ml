type t = {
  id : int;
  born : int;
  pst : Pst.t;
  members : Bitset.t;
  (* The cluster's compiled automaton, kept following its tree: built
     at creation, marked [stale] by an absorb, and brought current by
     refresh (patching in new contexts) or recompile before the next
     score reads it. *)
  mutable compiled : Psa.t;
  mutable stale : bool;
  (* The contexts the absorbs since then made significant, for refresh
     to patch in: a buffer kept from the first absorb that reports a
     crossing until the automaton is current again. *)
  mutable crossings : Pst.Crossings.t option;
  (* Whether [compile] has journaled [cluster.froze] since the tree last
     grew: the event marks each pass start that finds a changed model. *)
  mutable frozen : bool;
  (* Previous reclustering pass's score column against this model —
     valid only while the tree is unchanged, in which case a fresh
     evaluation would be bit-identical. *)
  mutable scores : Similarity.column option;
  (* The tree's divergence profile, built on first use and dropped with
     [scores] by an absorb that grows the tree. *)
  mutable profile : Divergence.profile option;
}

let m_absorbs = Obs.Metrics.counter "cluster.absorbs"

let of_pst ~id ?(born = 0) ~capacity pst =
  {
    id;
    born;
    pst;
    members = Bitset.create capacity;
    compiled = Psa.compile pst;
    stale = false;
    crossings = None;
    frozen = false;
    scores = None;
    profile = None;
  }

let create ~id ?born ~capacity cfg seeds =
  let pst = Pst.create cfg in
  Array.iter (Pst.insert_sequence pst) seeds;
  of_pst ~id ?born ~capacity pst

let id t = t.id
let born t = t.born
let pst t = t.pst
let members t = t.members
let size t = Bitset.cardinal t.members
let mem t i = Bitset.mem t.members i
let add_member t i = Bitset.add t.members i
let clear_members t = Bitset.clear t.members

(* The automaton, brought up to date with the tree: rows rewritten in
   place while the active contexts hold still, the crossings the absorbs
   reported patched in when contexts turned significant, a fresh compile
   when one was pruned (or the automaton has closure states). Every way
   the tables equal a fresh compile's up to state numbering, so scores
   stay bit-identical to the tree walk, and every way the buffer is
   spent. *)
let automaton t =
  if t.stale then begin
    if not (Psa.refresh ?crossings:t.crossings t.compiled t.pst) then
      t.compiled <- Psa.compile t.pst;
    t.crossings <- None;
    t.stale <- false
  end;
  t.compiled

let compile t =
  let psa = automaton t in
  if not t.frozen then begin
    t.frozen <- true;
    if Obs.Journal.is_enabled () then
      Obs.Journal.emit "cluster.froze" (fun () ->
          [
            ("cluster", Bench_json.Num (float_of_int t.id));
            ("n_states", Bench_json.Num (float_of_int (Psa.n_states psa)));
            ("size", Bench_json.Num (float_of_int (Bitset.cardinal t.members)));
          ])
  end

(* The score-column cache switch ([--no-index] turns it off): while off,
   no column is kept, so every pass scores every pair afresh. *)
let cache_flag = ref true
let cache_enabled () = !cache_flag
let set_cache_enabled b = cache_flag := b
let score_cache t = if !cache_flag then t.scores else None
let set_score_cache t col = if !cache_flag then t.scores <- Some col

let profile t =
  match t.profile with
  | Some p -> p
  | None ->
      let p = Divergence.profile t.pst in
      t.profile <- Some p;
      p

let log_similarity t ~log_background s = Similarity.score_lane (automaton t) ~log_background s

(* Scoring fan-out granularity: sequences are scored in blocks of this
   many lanes so one automaton streams over a whole block per call
   ({!Psa.score_into}) instead of being re-entered per sequence. Lanes
   never interact, so any block size yields the same bits; 64 lanes keep
   a task's output cells (~1.5 KiB per cluster) cache-resident. *)
let block = 64

(* One pool task per block, scoring its block cluster-major into every
   column at the block's offset: the tasks write disjoint cells, so the
   columns need no gathering. The workers only read the automata, so
   none may be stale: [compile] brings them current on the submitting
   domain, and this checks it there once, before the fan-out. With no
   clusters there is nothing to fan out. *)
let score_columns ~log_background clusters seqs =
  if Array.exists (fun t -> t.stale) clusters then
    invalid_arg "Cluster.score_columns: stale automaton; compile first";
  let n = Array.length seqs in
  let columns = Array.map (fun _ -> Similarity.column n) clusters in
  if clusters <> [||] then
    Par.parallel_for (Par.get_pool ()) ~lo:0 ~hi:((n + block - 1) / block) (fun b ->
        let at = b * block in
        let lanes = Array.sub seqs at (min block (n - at)) in
        Array.iteri
          (fun ci t -> Similarity.score_block t.compiled ~log_background columns.(ci) ~at lanes)
          clusters);
  columns

let absorb t ~log_background s =
  Obs.Metrics.incr m_absorbs;
  let r = Similarity.score_psa (automaton t) ~log_background s in
  if r.seg_lo >= 0 && r.seg_hi >= r.seg_lo then begin
    let crossings = match t.crossings with Some b -> b | None -> Pst.Crossings.create () in
    Pst.insert_segment ~crossings t.pst s ~lo:r.seg_lo ~hi:r.seg_hi;
    if t.crossings = None && Pst.Crossings.length crossings > 0 then
      t.crossings <- Some crossings;
    (* The tree changed (insertion, possibly pruning): the automaton is
       behind it until the next score or compile brings it current. *)
    t.stale <- true;
    t.frozen <- false;
    t.scores <- None;
    t.profile <- None
  end
