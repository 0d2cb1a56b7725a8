type t = {
  id : int;
  born : int;
  pst : Pst.t;
  members : Bitset.t;
  (* One compiled automaton per cluster, kept following its tree: built
     at the first pass start (Cluseq compiles before each read-only
     fan-out), marked [stale] by an absorb, and brought current by
     refresh or recompile before the next score reads it. [None] means
     "score via the tree walk". *)
  mutable compiled : Psa.t option;
  mutable stale : bool;
  (* Whether [compile] has journaled [cluster.froze] since the tree last
     grew: the event marks each pass start that finds a changed model. *)
  mutable frozen : bool;
  (* Candidate-index bitmap over the PST's active contexts: built lazily
     at pass start, dropped whenever the tree mutates. *)
  mutable sketch : Index.cluster_sketch option;
  (* Previous reclustering pass's score column against this model —
     valid only while the tree is unchanged (same lifecycle as the
     sketch), in which case a fresh evaluation would be bit-identical. *)
  mutable scores : Similarity.result array option;
}

let m_absorbs = Obs.Metrics.counter "cluster.absorbs"

let create ~id ?(born = 0) ~capacity cfg seed =
  let pst = Pst.create cfg in
  Pst.insert_sequence pst seed;
  {
    id;
    born;
    pst;
    members = Bitset.create capacity;
    compiled = None;
    stale = false;
    frozen = false;
    sketch = None;
    scores = None;
  }

let id t = t.id
let born t = t.born
let pst t = t.pst
let members t = t.members
let size t = Bitset.cardinal t.members
let mem t i = Bitset.mem t.members i
let add_member t i = Bitset.add t.members i
let clear_members t = Bitset.clear t.members

(* The automaton, brought up to date with the tree: rows rewritten in
   place while the active contexts hold still, a fresh compile once one
   turned significant or was pruned. Either way the tables equal a fresh
   compile's, so scores stay bit-identical to the tree walk. *)
let current t =
  (match t.compiled with
  | Some psa when t.stale ->
      if not (Psa.refresh psa t.pst) then t.compiled <- Some (Psa.compile t.pst);
      t.stale <- false
  | _ -> ());
  t.compiled

let compile t =
  if Option.is_none t.compiled && Psa.enabled () then t.compiled <- Some (Psa.compile t.pst);
  match current t with
  | Some psa when not t.frozen ->
      t.frozen <- true;
      if Obs.Journal.is_enabled () then
        Obs.Journal.emit "cluster.froze" (fun () ->
            [
              ("cluster", Bench_json.Num (float_of_int t.id));
              ("n_states", Bench_json.Num (float_of_int (Psa.n_states psa)));
              ("size", Bench_json.Num (float_of_int (Bitset.cardinal t.members)));
            ])
  | _ -> ()

let sketch t =
  match t.sketch with
  | Some s -> s
  | None ->
      let s = Index.of_pst t.pst in
      t.sketch <- Some s;
      s

let score_cache t = t.scores
let set_score_cache t col = t.scores <- Some col

let similarity t ~log_background s =
  match current t with
  | Some psa -> Similarity.score_psa psa ~log_background s
  | None -> Similarity.score t.pst ~log_background s

(* Read-only: runs on the scan fan-out's worker domains, so a stale
   automaton (never the case after [compile]) is bypassed, not refreshed. *)
let similarity_batch t ~log_background ~batch seqs =
  match t.compiled with
  | Some psa when not t.stale -> Similarity.score_batch psa ~log_background ~batch seqs
  | _ -> Array.map (Similarity.score t.pst ~log_background) seqs

let absorb t ~seq_id s (r : Similarity.result) =
  Obs.Metrics.incr m_absorbs;
  add_member t seq_id;
  if r.seg_lo >= 0 && r.seg_hi >= r.seg_lo then begin
    Pst.insert_segment t.pst s ~lo:r.seg_lo ~hi:r.seg_hi;
    (* The tree changed (insertion, possibly pruning): the automaton is
       behind it until the next score or compile brings it current. *)
    t.stale <- Option.is_some t.compiled;
    t.frozen <- false;
    t.sketch <- None;
    t.scores <- None
  end
