let log_src = Logs.Src.create "cluseq" ~doc:"CLUSEQ clustering iterations"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_runs = Obs.Metrics.counter "cluseq.runs"
let m_iterations = Obs.Metrics.counter "cluseq.iterations"
let g_clusters = Obs.Metrics.gauge "cluseq.clusters"
let g_final_t = Obs.Metrics.gauge "cluseq.final_t"

(* Throughput + model-size accounting, read back by the benchmark
   telemetry (bench --record): work done per run accumulates in
   counters so one experiment's several runs sum naturally; the gauges
   describe the most recent run's final model. *)
let m_sequences = Obs.Metrics.counter "cluseq.sequences"
let m_symbols = Obs.Metrics.counter "cluseq.symbols"
let h_run_seconds = Obs.Metrics.histogram "cluseq.run_seconds"
let m_pst_nodes_built = Obs.Metrics.counter "cluseq.pst.nodes_built"
let m_pst_words_built = Obs.Metrics.counter "cluseq.pst.est_words_built"
let g_pst_nodes = Obs.Metrics.gauge "cluseq.pst.nodes"
let g_pst_words = Obs.Metrics.gauge "cluseq.pst.est_words"

(* Reclustering scan census: how much of the all-pairs scan is useful
   work. These accumulate across iterations and runs; the wasted-pair
   gauge reflects the most recent iteration. The counts themselves are
   maintained unconditionally (plain int arithmetic, no clock reads) so
   per-iteration census records stay bit-identical for any domain count
   and whether or not metrics are enabled — only the counter/gauge
   publication below is gated. *)
let m_pairs_scored = Obs.Metrics.counter "cluseq.scan.pairs_scored"
let m_pairs_joined = Obs.Metrics.counter "cluseq.scan.pairs_joined"
let m_dirty_rescores = Obs.Metrics.counter "cluseq.scan.dirty_rescores"
let m_assignments_changed = Obs.Metrics.counter "cluseq.scan.assignments_changed"
let m_pairs_reused = Obs.Metrics.counter "cluseq.scan.pairs_reused"
let g_wasted_ratio = Obs.Metrics.gauge "cluseq.scan.wasted_pair_ratio"

(* Clustering-quality drift gauges: one observation per iteration (one
   per cluster for ages, one per live pair for KL, one per joined pair
   for scores). Sum/count recover per-run means for the BENCH [drift]
   block; the same numbers feed the journal's [iteration.drift]
   records. Computed only when metrics or the journal are on, and after
   the phase spans, so the reclustering time never includes them. *)
let h_churn_rate =
  Obs.Metrics.histogram
    ~buckets:[| 0.001; 0.005; 0.01; 0.05; 0.1; 0.25; 0.5; 1.0 |]
    "cluseq.drift.churn_rate"

let h_cluster_age =
  Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |] "cluseq.drift.cluster_age"

let h_intercluster_kl =
  Obs.Metrics.histogram
    ~buckets:[| 0.01; 0.05; 0.1; 0.25; 0.5; 1.0; 2.0; 4.0 |]
    "cluseq.drift.intercluster_kl"

let h_member_score =
  Obs.Metrics.histogram
    ~buckets:[| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]
    "cluseq.drift.member_score"

(* The drift panel's own time, one observation per iteration: the one
   per-iteration cost outside the five phase spans. *)
let h_drift_seconds = Obs.Metrics.histogram "cluseq.drift_seconds"

(* The five phases of one iteration, in execution order: the span names
   and, indexed alike, their [cluseq.iter.<phase>_seconds] histograms. *)
let phase_names = [| "generation"; "reclustering"; "consolidation"; "threshold"; "convergence" |]

let h_phase =
  Array.map (fun p -> Obs.Metrics.histogram ("cluseq.iter." ^ p ^ "_seconds")) phase_names

type config = {
  k_init : int;
  significance : int;
  t_init : float;
  max_depth : int;
  max_nodes : int;
  p_min : float;
  pruning : Pruning.strategy;
  adjust_threshold : bool;
  consolidate : bool;
  order : Order.t;
  sample_factor : int;
  max_iterations : int;
  min_residual : int option;
  seed : int;
}

let default_config =
  {
    k_init = 1;
    significance = 30;
    t_init = 1.2;
    max_depth = 10;
    max_nodes = 20_000;
    p_min = 1e-3;
    pruning = Pruning.Smallest_count_first;
    adjust_threshold = true;
    consolidate = true;
    order = Order.Fixed;
    sample_factor = 5;
    max_iterations = 50;
    min_residual = None;
    seed = 42;
  }

(* --- runtime audit hooks (the cluseq.check subsystem) ----------------- *)

type recluster_snapshot = {
  snap_db : Seq_database.t;
  snap_log_t : float;
  snap_order : int array;
  snap_before : (int * Pst.t * Bitset.t) array;
}

type auditor = {
  on_recluster :
    recluster_snapshot ->
    after:(int * Bitset.t) array ->
    assignments:int list array ->
    decided:Similarity.result array array ->
    unit;
  on_iteration : iteration:int -> clusters:Cluster.t list -> assignments:int list array -> unit;
}

(* A single ref deref per iteration when no auditor is installed — the
   production path pays nothing beyond that. *)
let auditor : auditor option ref = ref None
let set_auditor a = auditor := a

type scan_census = {
  pairs_scored : int;
  pairs_joined : int;
  dirty_rescores : int;
  assignments_changed : int;
  pairs_reused : int;
  score_calls : (int * int) array;
}

let wasted_pair_ratio c =
  if c.pairs_scored = 0 then 0.0
  else float_of_int (c.pairs_scored - c.pairs_joined) /. float_of_int c.pairs_scored

type drift = {
  churn_rate : float;
  mean_cluster_age : float;
  mean_intercluster_kl : float;
  mean_member_score : float;
  scored_members : int;
}

(* Journal events decided inside the timed reclustering scan. Recording
   them is one cons per decision; JSON formatting and file writes happen
   after the phase span closes, so journaling cannot distort the
   reclustering time it documents (same discipline as the drift gauges). *)
type pending_event =
  | Ev_joined of int * int * float  (* seq, cluster, deciding log_sim *)
  | Ev_left of int * int * float
  | Ev_grew of int * int * int  (* cluster, fresh joiners, end-of-pass size *)

type iteration_stats = {
  iteration : int;
  new_clusters : int;
  consolidated : int;
  clusters : int;
  unclustered : int;
  threshold : float;
  membership_changes : int;
  census : scan_census;
  drift : drift option;
}

type result = {
  clusters : (int * int array) array;
  assignments : int list array;
  best : (int * float) option array;
  outliers : int list;
  n_clusters : int;
  final_t : float;
  iterations : int;
  history : iteration_stats list;
  pst_stats : (int * Pst.stats) array;
  models : (int * Pst.t) array;
}

let pst_config (cfg : config) ~alphabet_size : Pst.config =
  {
    Pst.alphabet_size;
    max_depth = cfg.max_depth;
    significance = cfg.significance;
    max_nodes = cfg.max_nodes;
    p_min = Float.min cfg.p_min (0.99 /. float_of_int alphabet_size);
    pruning = cfg.pruning;
  }

(* Number of new clusters to seed this iteration (paper Sec. 4.1): [k_init]
   at first, then [k' · f] where [f] is the share of last iteration's
   seeds that survived consolidation. *)
let seeds_wanted cfg ~iter ~k ~prev_k_n ~prev_k_c ~unclustered =
  let k_n =
    if iter = 1 then cfg.k_init
    else begin
      let f =
        if prev_k_n = 0 then 0.0
        else float_of_int (max (prev_k_n - prev_k_c) 0) /. float_of_int prev_k_n
      in
      let k_n = int_of_float (Float.round (float_of_int k *. f)) in
      (* f = 0 is a fixed point of the paper's growth formula; keep probing
         with one seed per iteration while unclustered sequences remain (a
         fruitless seed attracts < c exclusive members and is consolidated
         away the same iteration, so termination is unaffected). *)
      if unclustered = [] then 0 else max k_n 1
    end
  in
  min k_n (List.length unclustered)

(* Seed selection (paper Sec. 4.1): greedily pick, among sampled unclustered
   sequences, the one least similar to every cluster chosen so far. The
   similarity sweeps are read-only against frozen PSTs and fan out over
   the domain pool; the greedy argmin and all max-similarity updates run
   on the calling domain in sample order, so the chosen seeds are
   independent of the pool size. *)
let generate_new_clusters cfg db rng ~iter ~next_id ~clusters ~unclustered ~k_n =
  let lbg = Seq_database.log_background db in
  let pool = Array.of_list unclustered in
  if Array.length pool = 0 || k_n <= 0 then []
  else begin
    let k_n = min k_n (Array.length pool) in
    let m = min (cfg.sample_factor * k_n) (Array.length pool) in
    let chosen = Rng.sample_without_replacement rng ~k:m ~n:(Array.length pool) in
    let samples = Array.map (fun i -> pool.(i)) chosen in
    let sample_seqs = Array.map (Seq_database.get db) samples in
    (* Each sample's max similarity to the existing clusters; the greedy
       loop only adds similarities to freshly created clusters. The
       per-sample [Float.max] fold visits clusters in list order. *)
    List.iter Cluster.compile clusters;
    let columns =
      Cluster.score_columns ~log_background:lbg (Array.of_list clusters) sample_seqs
    in
    let max_sim =
      Array.init m (fun j ->
          Array.fold_left
            (fun acc (c : Similarity.column) -> Float.max acc c.log_sims.(j))
            neg_infinity columns)
    in
    let taken = Array.make m false in
    let new_clusters = ref [] in
    let id = ref next_id in
    let jrn = Obs.Journal.is_enabled () in
    for _ = 1 to k_n do
      (* argmin over remaining samples of max-similarity-to-T *)
      let best = ref (-1) in
      for j = 0 to m - 1 do
        if not taken.(j) && (!best < 0 || max_sim.(j) < max_sim.(!best)) then best := j
      done;
      if !best >= 0 then begin
        let j = !best in
        taken.(j) <- true;
        let cl =
          Cluster.create ~id:!id ~born:iter ~capacity:(Seq_database.n_sequences db)
            (pst_config cfg ~alphabet_size:(Alphabet.size (Seq_database.alphabet db)))
            [| sample_seqs.(j) |]
        in
        if jrn then
          Obs.Journal.emit "cluster.seeded" (fun () ->
              [
                ("iter", Bench_json.Num (float_of_int iter));
                ("cluster", Bench_json.Num (float_of_int !id));
                ("seed_seq", Bench_json.Num (float_of_int samples.(j)));
              ]);
        incr id;
        Cluster.compile cl;
        new_clusters := cl :: !new_clusters;
        (* Raise the untaken samples' max similarity to the new
           cluster's scores, sample by sample. *)
        let untaken =
          Array.of_list (List.filter (fun j -> not taken.(j)) (List.init m Fun.id))
        in
        let column =
          (Cluster.score_columns ~log_background:lbg [| cl |]
             (Array.map (fun j -> sample_seqs.(j)) untaken)).(0)
        in
        Array.iteri
          (fun p j ->
            let sim = column.log_sims.(p) in
            if sim > max_sim.(j) then max_sim.(j) <- sim)
          untaken
      end
    done;
    List.rev !new_clusters
  end

(* The read-only scan of reclustering: every sequence scored against
   every cluster's iteration-start model, returned as one column per
   cluster indexed by sequence id. A clean cluster's column is its
   cached one from the previous pass ({!Cluster.score_cache}): scoring
   is deterministic and the model did not change, so it equals a fresh
   evaluation bit for bit. The other clusters are scored in one
   {!Cluster.score_columns} fan-out. [caches] is left as it is: the
   census reads it to count the pairs evaluated afresh. *)
let score_matrix db ~log_background ~caches clusters =
  let uncached =
    List.filteri (fun ci _ -> Option.is_none caches.(ci)) (Array.to_list clusters)
  in
  let fresh =
    Cluster.score_columns ~log_background (Array.of_list uncached) (Seq_database.sequences db)
  in
  let next = ref 0 in
  Array.map
    (function
      | Some column -> column
      | None ->
          incr next;
          fresh.(!next - 1))
    caches

(* Consolidation (paper Sec. 4.5): examine clusters in ascending size order
   and dismiss any whose members are nearly all covered by other clusters.
   The paper counts coverage by "larger" clusters only; under that literal
   rule the largest cluster can never be dismissed, so the blended
   mega-cluster that forms in early low-threshold iterations would survive
   forever. We count coverage by every not-yet-dismissed cluster instead:
   small sharp clusters can then jointly retire a large blend, while
   identical twins cannot annihilate each other (the first to be dismissed
   stops covering the second). See DESIGN.md. *)
let consolidate ~min_residual ~with_absorbers clusters =
  let arr = Array.of_list clusters in
  let cmp a b =
    let c = compare (Cluster.size a) (Cluster.size b) in
    if c <> 0 then c else compare (Cluster.id a) (Cluster.id b)
  in
  Array.sort cmp arr;
  let n = Array.length arr in
  let kept = Array.make n true in
  let dismissed = ref [] in
  for i = 0 to n - 1 do
    let cover =
      let acc = Bitset.create (Bitset.capacity (Cluster.members arr.(i))) in
      for j = 0 to n - 1 do
        if j <> i && kept.(j) then Bitset.union_into ~dst:acc (Cluster.members arr.(j))
      done;
      acc
    in
    let residual = Bitset.diff_cardinal (Cluster.members arr.(i)) cover in
    if residual < min_residual then begin
      kept.(i) <- false;
      (* Provenance for the journal: which still-alive clusters held the
         dismissed cluster's members at the moment of dismissal. Only
         worth the member intersections when someone is listening. *)
      let absorbers =
        if not with_absorbers then []
        else begin
          let acc = ref [] in
          for j = n - 1 downto 0 do
            if
              j <> i && kept.(j)
              && Bitset.inter_cardinal (Cluster.members arr.(i)) (Cluster.members arr.(j)) > 0
            then acc := Cluster.id arr.(j) :: !acc
          done;
          List.sort compare !acc
        end
      in
      dismissed := (Cluster.id arr.(i), Cluster.size arr.(i), absorbers) :: !dismissed
    end
  done;
  let retained = ref [] in
  for i = n - 1 downto 0 do
    if kept.(i) then retained := arr.(i) :: !retained
  done;
  (* Restore id order for deterministic downstream iteration. *)
  let retained = List.sort (fun a b -> compare (Cluster.id a) (Cluster.id b)) !retained in
  (retained, List.rev !dismissed)

let scaled_config ?(base = default_config) ~expected_cluster_size () =
  if expected_cluster_size < 1 then invalid_arg "Cluseq.scaled_config";
  let c = max 4 (min 30 (expected_cluster_size / 4)) in
  { base with significance = c; min_residual = Some c }

let hard_labels (r : result) ~n =
  Array.init n (fun i ->
      match r.assignments.(i) with
      | [] -> -1
      | joined -> (
          match r.best.(i) with
          | Some (c, _) when List.mem c joined -> c
          | _ -> List.hd joined))

(* One cluster's share of a reclustering pass, as returned by its apply
   task ([apply_column]). *)
type column = {
  decided : Similarity.column;  (* by sequence id: the deciding score *)
  rescores : int;  (* rescores once the cluster went dirty *)
  fresh_joins : int;
}

(* The apply pass of reclustering (paper Sec. 4.2) for one cluster, run
   as that cluster's own pool task over its matrix column [scores],
   which it owns for the pass and turns into the deciding scores in
   place. Within a pass a cluster's trajectory depends only on the
   examination order, [log_t], its iteration-start model and
   memberships, and its own earlier joiners — never on another cluster
   — so the task walks [order] and absorbs each fresh joiner before the
   next sequence is scored. The first absorb leaves the column stale
   ("dirty"); every later pair is rescored into its cell against the
   grown model, whose automaton [Cluster.rescore] refreshes (or
   recompiles) in place first. A column taken from the score cache can
   be overwritten so because that first absorb dropped the cache. [cl]
   is mutated by this task only. *)
let apply_column db ~log_background ~log_t ~order ~prev (scores : Similarity.column) cl =
  let dirty = ref false in
  let rescores = ref 0 and fresh_joins = ref 0 in
  Array.iter
    (fun sid ->
      if !dirty then begin
        incr rescores;
        Cluster.rescore cl ~log_background scores sid (Seq_database.get db sid)
      end;
      (* A segment updates the PST only when the sequence joins afresh:
         re-inserting stable members every iteration would inflate
         counts without information, making member similarities (and
         then the threshold valley) grow without bound. *)
      if scores.log_sims.(sid) >= log_t then begin
        Cluster.add_member cl sid;
        if not (Bitset.mem prev sid) then begin
          Cluster.absorb cl (Seq_database.get db sid) (Similarity.cell scores sid);
          dirty := true;
          incr fresh_joins
        end
      end)
    order;
  (* A cluster that stayed clean still has the model its column was
     scored against, so the next pass can reuse the column. A dirty
     cluster already dropped its cache inside [absorb]. *)
  if not !dirty then Cluster.set_score_cache cl scores;
  { decided = scores; rescores = !rescores; fresh_joins = !fresh_joins }

(* What one reclustering pass hands to the rest of the iteration. *)
type pass = {
  new_best : (int * float) option array;
  new_assignments : int list array;
  samples : float array;  (* every deciding score, for the threshold valley *)
  pass_census : scan_census;  (* [assignments_changed] is left at 0 *)
  member_scores : (int * float list) array;  (* per cluster id: its joins' scores *)
  events : pending_event list;  (* deferred journal events, in scan order *)
}

(* Sequence reclustering (paper Sec. 4.2), the dominant cost the paper's
   Sec. 6 scalability figures measure. Three steps, two of them on the
   domain pool.

   Scan ([score_matrix]): every (sequence, cluster) pair is scored
   against the clusters' iteration-start PSTs.

   Apply: one task per cluster ([apply_column]) visits sequences in the
   arranged examination order, joins and absorbs against its own model,
   and rescores against its refreshed automaton once that model has
   grown. This is the fully serial algorithm cluster by cluster — a
   growing cluster attracts later sequences within the same iteration,
   which the paper's incremental one-pass design depends on — because
   no cluster's decisions read another cluster's state.

   Merge: this domain folds the tasks' columns in the serial algorithm's
   (order position, cluster index) order, rebuilding assignments, best
   scores, threshold samples, and journal events exactly as a one-domain
   loop would produce them. *)
let recluster cfg db rng ~log_t ~best clusters =
  let n = Seq_database.n_sequences db in
  let lbg = Seq_database.log_background db in
  (* Hoisted journal/drift gates: one bool each for the whole pass, so
     the disabled path adds no closure allocation per scored pair. *)
  let jrn = Obs.Journal.is_enabled () in
  let drift_on = jrn || Obs.Metrics.is_enabled () in
  let clusters_arr = Array.of_list clusters in
  let k = Array.length clusters_arr in
  (* Iteration-start memberships, aligned with [clusters_arr]: the
     apply tasks' was-member tests index it by cluster position. *)
  let prev_arr = Array.map (fun cl -> Bitset.copy (Cluster.members cl)) clusters_arr in
  Array.iter Cluster.clear_members clusters_arr;
  let order = Order.arrange cfg.order rng ~n ~best in
  (* Freeze the audit snapshot before any scoring: iteration-start
     model copies, previous memberships, the threshold, and the
     examination order — everything a serial replay needs. *)
  let snapshot =
    match !auditor with
    | None -> None
    | Some _ ->
        Some
          {
            snap_db = db;
            snap_log_t = log_t;
            snap_order = Array.copy order;
            snap_before =
              Array.mapi
                (fun ci cl ->
                  (Cluster.id cl, Pst.copy (Cluster.pst cl), Bitset.copy prev_arr.(ci)))
                clusters_arr;
          }
  in
  (* One current compiled scorer per (cluster, pass): clusters whose
     tree grew since their automaton was last brought up to date get it
     refreshed or recompiled here — on this domain, before the read-only
     fan-out, which never touches an automaton. *)
  Array.iter Cluster.compile clusters_arr;
  let caches = Array.map Cluster.score_cache clusters_arr in
  let matrix = score_matrix db ~log_background:lbg ~caches clusters_arr in
  (* Apply: one task per cluster, claimed dynamically by the pool's
     domains; a pass lasts at least as long as its heaviest cluster. *)
  let columns =
    Par.map_chunks (Par.get_pool ()) ~chunks:k ~n:k (fun ci ->
        apply_column db ~log_background:lbg ~log_t ~order ~prev:prev_arr.(ci) matrix.(ci)
          clusters_arr.(ci))
  in
  (* Merge: revisit the pairs in the serial algorithm's order. Every
     decision below is a pure function of the deciding score and the
     iteration-start membership, so the rebuilt state — assignment
     lists, best scores, the sample list fed to the threshold, and the
     deferred journal events — is the one-domain loop's, bit for bit. *)
  let new_best = Array.make n None in
  let new_assignments = Array.make n [] in
  let joined = ref 0 in
  let member_scores = Array.make k [] in
  let events = ref [] in
  Array.iter
    (fun sid ->
      for ci = 0 to k - 1 do
        let log_sim = columns.(ci).decided.log_sims.(sid) in
        let cid = Cluster.id clusters_arr.(ci) in
        if log_sim >= log_t then begin
          incr joined;
          if drift_on then member_scores.(ci) <- log_sim :: member_scores.(ci);
          if jrn && not (Bitset.mem prev_arr.(ci) sid) then
            events := Ev_joined (sid, cid, log_sim) :: !events;
          new_assignments.(sid) <- cid :: new_assignments.(sid)
        end
        else if jrn && Bitset.mem prev_arr.(ci) sid then
          events := Ev_left (sid, cid, log_sim) :: !events;
        match new_best.(sid) with
        | Some (_, b) when b >= log_sim -> ()
        | _ -> if Float.is_finite log_sim then new_best.(sid) <- Some (cid, log_sim)
      done)
    order;
  Array.iteri (fun i l -> new_assignments.(i) <- List.rev l) new_assignments;
  if jrn then
    Array.iteri
      (fun ci cl ->
        let fresh = columns.(ci).fresh_joins in
        if fresh > 0 then events := Ev_grew (Cluster.id cl, fresh, Cluster.size cl) :: !events)
      clusters_arr;
  (match (!auditor, snapshot) with
  | Some a, Some snap ->
      a.on_recluster snap
        ~after:
          (Array.map (fun cl -> (Cluster.id cl, Bitset.copy (Cluster.members cl))) clusters_arr)
        ~assignments:(Array.copy new_assignments)
        ~decided:(Array.map (fun c -> Array.init n (Similarity.cell c.decided)) columns)
  | _ -> ());
  (* Census tallies: the matrix evaluated every pair of the clusters
     without a cached column and reused the cached columns whole; the
     apply tasks' rescores against dirty clusters add to that. Plain int
     arithmetic — deterministic for any domain count, maintained whether
     or not metrics are enabled. *)
  let evaluated ci = if Option.is_some caches.(ci) then 0 else n in
  let calls ci = evaluated ci + columns.(ci).rescores in
  let total f = Array.fold_left ( + ) 0 (Array.init k f) in
  let total_evaluated = total evaluated in
  let total_rescores = total (fun ci -> columns.(ci).rescores) in
  {
    new_best;
    new_assignments;
    (* The valley histogram ignores order, so the columns go whole. *)
    samples = Array.concat (Array.to_list (Array.map (fun c -> c.decided.log_sims) columns));
    pass_census =
      {
        pairs_scored = total_evaluated + total_rescores;
        pairs_joined = !joined;
        dirty_rescores = total_rescores;
        assignments_changed = 0;
        pairs_reused = (n * k) - total_evaluated;
        score_calls = Array.mapi (fun ci cl -> (Cluster.id cl, calls ci)) clusters_arr;
      };
    member_scores = Array.mapi (fun ci cl -> (Cluster.id cl, member_scores.(ci))) clusters_arr;
    events = List.rev !events;
  }

(* Write a pass's deferred journal events once its timer has stopped —
   still this domain, still scan order, so the journal is unchanged
   except for timestamps. *)
let emit_pass_events ~iter ~log_t events =
  let num v = Bench_json.Num v in
  let fi = float_of_int in
  List.iter
    (function
      | Ev_joined (sid, cid, log_sim) ->
          Obs.Journal.emit "seq.joined" (fun () ->
              [
                ("iter", num (fi iter)); ("seq", num (fi sid)); ("cluster", num (fi cid));
                ("log_sim", num log_sim); ("log_t", num log_t);
              ])
      | Ev_left (sid, cid, log_sim) ->
          Obs.Journal.emit "seq.left" (fun () ->
              [
                ("iter", num (fi iter)); ("seq", num (fi sid)); ("cluster", num (fi cid));
                ("log_sim", num log_sim); ("log_t", num log_t);
              ])
      | Ev_grew (cid, fresh, size) ->
          Obs.Journal.emit "cluster.grew" (fun () ->
              [
                ("iter", num (fi iter)); ("cluster", num (fi cid)); ("fresh", num (fi fresh));
                ("size", num (fi size));
              ]))
    events

(* Consolidation phase: dismiss covered clusters (when enabled), journal
   each dismissal, and strip dismissed ids from [assignments] in place.
   Returns the retained clusters and the number dismissed. *)
let consolidation cfg ~iter ~min_residual clusters assignments =
  let jrn = Obs.Journal.is_enabled () in
  let retained, dismissed =
    if cfg.consolidate then consolidate ~min_residual ~with_absorbers:jrn clusters
    else (clusters, [])
  in
  if jrn then
    List.iter
      (fun (id, size, absorbers) ->
        Obs.Journal.emit "cluster.dismissed" (fun () ->
            [
              ("iter", Bench_json.Num (float_of_int iter));
              ("cluster", Bench_json.Num (float_of_int id));
              ("size", Bench_json.Num (float_of_int size));
              ( "absorbed_by",
                Bench_json.Arr
                  (List.map (fun a -> Bench_json.Num (float_of_int a)) absorbers) );
            ]))
      dismissed;
  (* Alive ids go into a hash set first: filtering each assignment list
     against an alive *list* is O(n·k²) at scale (every sequence × every
     assignment × every alive cluster). *)
  if dismissed <> [] then begin
    let alive = Hashtbl.create (2 * List.length retained) in
    List.iter (fun cl -> Hashtbl.replace alive (Cluster.id cl) ()) retained;
    Array.iteri (fun i l -> assignments.(i) <- List.filter (Hashtbl.mem alive) l) assignments
  end;
  (retained, List.length dismissed)

(* Sequences whose membership set differs between two iterations'
   (cluster id, members) lists, counting every member of a cluster that
   disappeared. One pass per list: [mark.(i)] is -1 once [i] changed,
   and while the [c]-th cluster is compared [2c + 1] says [i] was among
   its old members, [2c + 2] that it is among both. *)
let membership_changes ~n ~prev memberships =
  let prev_tbl = Hashtbl.create 16 in
  List.iter (fun (id, ms) -> Hashtbl.replace prev_tbl id ms) prev;
  let mark = Array.make n 0 in
  let changed i = mark.(i) <- -1 in
  List.iteri
    (fun c (id, ms) ->
      let old = Option.value ~default:[] (Hashtbl.find_opt prev_tbl id) in
      Hashtbl.remove prev_tbl id;
      let was = (2 * c) + 1 in
      List.iter (fun i -> if mark.(i) >= 0 then mark.(i) <- was) old;
      List.iter (fun i -> if mark.(i) = was then mark.(i) <- was + 1 else changed i) ms;
      List.iter (fun i -> if mark.(i) = was then changed i) old)
    memberships;
  Hashtbl.iter (fun _ ms -> List.iter changed ms) prev_tbl;
  Array.fold_left (fun acc m -> if m < 0 then acc + 1 else acc) 0 mark

(* Quality gauges for one iteration, computed outside the phase spans
   (so reclustering is never charged for them) and only when someone
   is listening. Every input is a deterministic function of the serial
   model state, so journaled drift records are bit-identical at any
   domain count. [kl_memo] holds the previous panel's pair divergences
   with the two profiles each came from: a pair is recomputed only when
   either cluster's profile was rebuilt (an absorb grew its tree). *)
let drift_panel ~iter ~n ~changes ~kl_memo live member_scores =
  let jrn = Obs.Journal.is_enabled () in
  if not (jrn || Obs.Metrics.is_enabled ()) then None
  else begin
    let k_live = List.length live in
    let churn = if n = 0 then 0.0 else float_of_int changes /. float_of_int n in
    let ages = List.map (fun cl -> iter - Cluster.born cl) live in
    let mean_age =
      if k_live = 0 then 0.0
      else float_of_int (List.fold_left ( + ) 0 ages) /. float_of_int k_live
    in
    (* Pairwise model divergence is quadratic in clusters, so cap the
       panel at the first 8 live clusters (id order — the longest-lived,
       hence most informative, models). *)
    let panel = List.filteri (fun i _ -> i < 8) live in
    let memo = Hashtbl.create 32 in
    let kl a b =
      let key = (Cluster.id a, Cluster.id b) in
      let pa = Cluster.profile a and pb = Cluster.profile b in
      let v =
        match Hashtbl.find_opt !kl_memo key with
        | Some (qa, qb, v) when qa == pa && qb == pb -> v
        | _ -> Divergence.kl_profiles pa pb
      in
      Hashtbl.replace memo key (pa, pb, v);
      v
    in
    let kls =
      let rec pairs = function
        | [] -> []
        | a :: rest -> List.map (kl a) rest @ pairs rest
      in
      pairs panel
    in
    kl_memo := memo;
    let mean_kl =
      match kls with
      | [] -> 0.0
      | _ -> List.fold_left ( +. ) 0.0 kls /. float_of_int (List.length kls)
    in
    let alive = Hashtbl.create (2 * k_live) in
    List.iter (fun cl -> Hashtbl.replace alive (Cluster.id cl) ()) live;
    let live_scores =
      List.filter (fun (id, _) -> Hashtbl.mem alive id) (Array.to_list member_scores)
    in
    let scored_members =
      List.fold_left (fun acc (_, ss) -> acc + List.length ss) 0 live_scores
    in
    let score_sum =
      List.fold_left (fun acc (_, ss) -> List.fold_left ( +. ) acc ss) 0.0 live_scores
    in
    let mean_score =
      if scored_members = 0 then 0.0 else score_sum /. float_of_int scored_members
    in
    Obs.Metrics.observe h_churn_rate churn;
    List.iter (fun a -> Obs.Metrics.observe h_cluster_age (float_of_int a)) ages;
    List.iter (Obs.Metrics.observe h_intercluster_kl) kls;
    List.iter (fun (_, ss) -> List.iter (Obs.Metrics.observe h_member_score) ss) live_scores;
    if jrn then
      Obs.Journal.emit "iteration.drift" (fun () ->
          let sketch (id, ss) =
            let arr = Array.of_list ss in
            let points =
              if Array.length arr = 0 then []
              else
                Histogram.of_samples ~n_buckets:8 arr
                |> Histogram.to_points |> Array.to_list
                |> List.map (fun (c, v) ->
                       Bench_json.Arr [ Bench_json.Num c; Bench_json.Num v ])
            in
            Bench_json.Obj
              [
                ("cluster", Bench_json.Num (float_of_int id));
                ("n", Bench_json.Num (float_of_int (Array.length arr)));
                ("points", Bench_json.Arr points);
              ]
          in
          [
            ("iter", Bench_json.Num (float_of_int iter));
            ("clusters", Bench_json.Num (float_of_int k_live));
            ("churn_rate", Bench_json.Num churn);
            ("mean_cluster_age", Bench_json.Num mean_age);
            ("mean_intercluster_kl", Bench_json.Num mean_kl);
            ("mean_member_score", Bench_json.Num mean_score);
            ("score_sketches", Bench_json.Arr (List.map sketch live_scores));
          ]);
    Some
      {
        churn_rate = churn;
        mean_cluster_age = mean_age;
        mean_intercluster_kl = mean_kl;
        mean_member_score = mean_score;
        scored_members;
      }
  end

(* A sharded run's [run.start] and [run.end] records end with the shard
   count; a plain run's have no such field. *)
let shards_field =
  Option.fold ~none:[] ~some:(fun s -> [ ("shards", Bench_json.Num (float_of_int s)) ])

let journal_start ?shards cfg ~n =
  if Obs.Journal.is_enabled () then
    Obs.Journal.emit "run.start" (fun () ->
        [
          ("sequences", Bench_json.Num (float_of_int n));
          ("k_init", Bench_json.Num (float_of_int cfg.k_init));
          ("t_init", Bench_json.Num cfg.t_init);
          ("seed", Bench_json.Num (float_of_int cfg.seed));
          ("max_iterations", Bench_json.Num (float_of_int cfg.max_iterations));
        ]
        @ shards_field shards)

(* Nodes and estimated words over a run's final models. *)
let pst_totals pst_stats =
  let nodes = Array.fold_left (fun acc (_, (st : Pst.stats)) -> acc + st.nodes) 0 pst_stats in
  let words =
    Array.fold_left (fun acc (_, (st : Pst.stats)) -> acc + st.approx_bytes) 0 pst_stats
    / (Sys.word_size / 8)
  in
  (nodes, words)

let finish ?shards ~n ~best ~final_t ~iterations ~history clusters =
  let k = List.length clusters in
  let pst_stats =
    Array.of_list (List.map (fun cl -> (Cluster.id cl, Pst.stats (Cluster.pst cl))) clusters)
  in
  let nodes, words = pst_totals pst_stats in
  Obs.Metrics.set g_clusters (float_of_int k);
  Obs.Metrics.set g_final_t final_t;
  Obs.Metrics.set g_pst_nodes (float_of_int nodes);
  Obs.Metrics.set g_pst_words (float_of_int words);
  Log.info (fun m ->
      m "done: %d clusters in %d iterations (final t = %.4g)" k iterations final_t);
  (* Consing over the clusters in descending id order leaves each list
     ascending. *)
  let assignments = Array.make n [] in
  List.iter
    (fun cl ->
      let id = Cluster.id cl in
      Bitset.iter (fun i -> assignments.(i) <- id :: assignments.(i)) (Cluster.members cl))
    (List.rev clusters);
  let outliers = List.filter (fun i -> assignments.(i) = []) (List.init n Fun.id) in
  if Obs.Journal.is_enabled () then begin
    Obs.Journal.emit "run.end" (fun () ->
        [
          ("clusters", Bench_json.Num (float_of_int k));
          ("iterations", Bench_json.Num (float_of_int iterations));
          ("final_t", Bench_json.Num final_t);
          ("outliers", Bench_json.Num (float_of_int (List.length outliers)));
        ]
        @ shards_field shards);
    (* A run boundary is a natural sync point for offline readers. *)
    Obs.Journal.flush ()
  end;
  {
    clusters =
      Array.of_list
        (List.map
           (fun cl -> (Cluster.id cl, Array.of_list (Bitset.to_list (Cluster.members cl))))
           clusters);
    assignments;
    best;
    outliers;
    n_clusters = k;
    final_t;
    iterations;
    history;
    pst_stats;
    models = Array.of_list (List.map (fun cl -> (Cluster.id cl, Cluster.pst cl)) clusters);
  }

let run ?(config = default_config) db =
  let cfg = config in
  if cfg.k_init < 1 then invalid_arg "Cluseq.run: k_init must be >= 1";
  (* [not (>= 1.0)] rather than [< 1.0]: the latter lets NaN through. *)
  if not (Float.is_finite cfg.t_init && cfg.t_init >= 1.0) then
    invalid_arg "Cluseq.run: t_init must be a finite value >= 1";
  Obs.Metrics.incr m_runs;
  Obs.Trace.with_span ~hist:h_run_seconds "cluseq.run" @@ fun () ->
  let phase idx f = Obs.Trace.with_span ~hist:h_phase.(idx) phase_names.(idx) f in
  let n = Seq_database.n_sequences db in
  (* Built once per database (Seq_database caches it) and validated once
     per run — never recomputed or re-checked inside a scoring call. *)
  let lbg = Seq_database.log_background db in
  Similarity.validate_log_background lbg;
  let rng = Rng.create cfg.seed in
  journal_start cfg ~n;
  let threshold = Threshold.create ~t_init:cfg.t_init in
  let min_residual = match cfg.min_residual with Some v -> v | None -> cfg.significance in
  let clusters = ref [] in
  let next_id = ref 0 in
  let best = ref (Array.make n None) in
  let assignments = ref (Array.make n []) in
  let prev_memberships : (int * int list) list ref = ref [] in
  let prev_k_n = ref 0 and prev_k_c = ref 0 in
  let history = ref [] in
  let iterations = ref 0 in
  let kl_memo = ref (Hashtbl.create 1) in
  (* An empty database has nothing to iterate on: 0 iterations and the
     initial threshold as given, as the sharded path reports ([exp (log
     t)] need not give [t] back). *)
  let converged = ref (n = 0) in
  while (not !converged) && !iterations < cfg.max_iterations do
    incr iterations;
    Obs.Metrics.incr m_iterations;
    Obs.Trace.with_span "iteration" @@ fun () ->
    let iter = !iterations in
    (* --- 1. new cluster generation --- *)
    let fresh =
      phase 0 @@ fun () ->
      let unclustered = List.filter (fun i -> !assignments.(i) = []) (List.init n Fun.id) in
      let k_n =
        seeds_wanted cfg ~iter ~k:(List.length !clusters) ~prev_k_n:!prev_k_n
          ~prev_k_c:!prev_k_c ~unclustered
      in
      generate_new_clusters cfg db rng ~iter ~next_id:!next_id ~clusters:!clusters ~unclustered
        ~k_n
    in
    next_id := !next_id + List.length fresh;
    clusters := !clusters @ fresh;
    (* --- 2. sequence reclustering --- *)
    let log_t = Threshold.log_t threshold in
    let pass = phase 1 (fun () -> recluster cfg db rng ~log_t ~best:!best !clusters) in
    emit_pass_events ~iter ~log_t pass.events;
    (* --- 3. consolidation --- *)
    let dropped =
      phase 2 @@ fun () ->
      let retained, dropped =
        consolidation cfg ~iter ~min_residual !clusters pass.new_assignments
      in
      clusters := retained;
      dropped
    in
    (match !auditor with
    | Some a ->
        a.on_iteration ~iteration:iter ~clusters:!clusters ~assignments:pass.new_assignments
    | None -> ());
    (* --- 4. threshold adjustment --- *)
    phase 3 (fun () ->
        if cfg.adjust_threshold then begin
          let old_t = Threshold.linear_t threshold in
          Threshold.adjust threshold pass.samples;
          if Obs.Journal.is_enabled () then
            Obs.Journal.emit "threshold.adjusted" (fun () ->
                [
                  ("iter", Bench_json.Num (float_of_int iter));
                  ("old_t", Bench_json.Num old_t);
                  ("new_t", Bench_json.Num (Threshold.linear_t threshold));
                  ("frozen", Bench_json.Bool (Threshold.frozen threshold));
                ])
        end);
    (* --- 5. convergence test --- *)
    let memberships, changes, stable =
      phase 4 @@ fun () ->
      let memberships =
        List.map (fun cl -> (Cluster.id cl, Bitset.to_list (Cluster.members cl))) !clusters
      in
      let changes = membership_changes ~n ~prev:!prev_memberships memberships in
      (* The clustering is final only once the threshold has also settled:
         t moves halfway toward the valley each iteration, so an unchanged
         membership under a still-moving t is not yet a fixed point. *)
      let threshold_settled = (not cfg.adjust_threshold) || Threshold.frozen threshold in
      let stable =
        iter > 1 && changes = 0
        && List.length memberships = List.length !prev_memberships
        && threshold_settled
      in
      (memberships, changes, stable)
    in
    prev_memberships := memberships;
    prev_k_n := List.length fresh;
    prev_k_c := dropped;
    best := pass.new_best;
    assignments := pass.new_assignments;
    let unclustered_now =
      Array.fold_left (fun acc l -> if l = [] then acc + 1 else acc) 0 !assignments
    in
    let census = { pass.pass_census with assignments_changed = changes } in
    Obs.Metrics.incr ~by:census.pairs_scored m_pairs_scored;
    Obs.Metrics.incr ~by:census.pairs_joined m_pairs_joined;
    Obs.Metrics.incr ~by:census.dirty_rescores m_dirty_rescores;
    Obs.Metrics.incr ~by:changes m_assignments_changed;
    Obs.Metrics.incr ~by:census.pairs_reused m_pairs_reused;
    Obs.Metrics.set g_wasted_ratio (wasted_pair_ratio census);
    let drift =
      Obs.Trace.with_span ~hist:h_drift_seconds "cluseq.drift" @@ fun () ->
      drift_panel ~iter ~n ~changes ~kl_memo !clusters pass.member_scores
    in
    Log.debug (fun m ->
        m
          "iter %d: new=%d consolidated=%d clusters=%d unclustered=%d t=%.4g changes=%d \
           scored=%d joined=%d wasted=%.3f"
          iter (List.length fresh) dropped (List.length !clusters) unclustered_now
          (Threshold.linear_t threshold) changes census.pairs_scored census.pairs_joined
          (wasted_pair_ratio census));
    history :=
      {
        iteration = iter;
        new_clusters = List.length fresh;
        consolidated = dropped;
        clusters = List.length !clusters;
        unclustered = unclustered_now;
        threshold = Threshold.linear_t threshold;
        membership_changes = changes;
        census;
        drift;
      }
      :: !history;
    if stable then converged := true
  done;
  let final_t = if n = 0 then cfg.t_init else Threshold.linear_t threshold in
  let r =
    finish ~n ~best:!best ~final_t ~iterations:!iterations ~history:(List.rev !history)
      !clusters
  in
  (* Work done, counted per run: a sharded run counts each shard's. *)
  if Obs.Metrics.is_enabled () then begin
    let nodes, words = pst_totals r.pst_stats in
    Obs.Metrics.incr ~by:n m_sequences;
    Obs.Metrics.incr ~by:(Seq_database.total_symbols db) m_symbols;
    Obs.Metrics.incr ~by:nodes m_pst_nodes_built;
    Obs.Metrics.incr ~by:words m_pst_words_built
  end;
  r
