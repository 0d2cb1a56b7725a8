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
let g_wasted_ratio = Obs.Metrics.gauge "cluseq.scan.wasted_pair_ratio"

(* Candidate-index accounting: pairs the sketch gate admitted to the
   scan vs pairs it pruned. Like the census above these are maintained
   as plain ints inside the pass and only published here. *)
let m_pairs_reused = Obs.Metrics.counter "cluseq.scan.pairs_reused"
let m_index_candidates = Obs.Metrics.counter "cluseq.index.candidates"
let m_index_filtered = Obs.Metrics.counter "cluseq.index.filtered"
let h_index_fill = Obs.Metrics.histogram "cluseq.index.fill_seconds"

(* Clustering-quality drift gauges: one observation per iteration (one
   per cluster for ages, one per live pair for KL, one per joined pair
   for scores). Sum/count recover per-run means for the BENCH [drift]
   block; the same numbers feed the journal's [iteration.drift]
   records. Computed only when metrics or the journal are on, and after
   the phase timers, so [reclustering_s] never includes them. *)
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

(* Physical sentinel for pairs the candidate gate pruned from the score
   matrix. A NaN log_sim makes every numeric test in the apply loop
   (sample collection, join test, best tracking) a no-op on its own;
   the census tallies tell pruned pairs apart by physical equality. *)
let not_scored : Similarity.result = { log_sim = Float.nan; seg_lo = -1; seg_hi = -1 }

(* Scoring fan-out granularity: sequences are scored in blocks of this
   many lanes so one compiled automaton streams over a whole block per
   call ({!Psa.score_batch}) instead of being re-entered per sequence.
   Each parallel task owns one block and its own scratch columns; the
   per-pair results are independent of the block split, so any block
   size yields the same bits. 64 lanes keep the scratch (~4 KiB) and the
   state column cache-resident. *)
let scan_block = 64

(* The five phases of one iteration, in execution order; indexes into
   [h_phase] and the per-iteration timing array in [run]. *)
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
  (* [Some ratio] when the candidate gate was active for this pass; the
     serial replay recomputes the same sketches from the snapshot
     models and must reproduce the gate's admit decisions exactly. *)
  snap_index_ratio : float option;
}

type auditor = {
  on_recluster :
    recluster_snapshot -> after:(int * Bitset.t) array -> assignments:int list array -> unit;
  on_iteration : iteration:int -> clusters:Cluster.t list -> assignments:int list array -> unit;
}

(* A single ref deref per iteration when no auditor is installed — the
   production path pays nothing beyond that. *)
let auditor : auditor option ref = ref None
let set_auditor a = auditor := a

type phase_timings = {
  generation_s : float;
  reclustering_s : float;
  consolidation_s : float;
  threshold_s : float;
  convergence_s : float;
}

type scan_census = {
  pairs_scored : int;
  pairs_joined : int;
  dirty_rescores : int;
  assignments_changed : int;
  pairs_reused : int;
  index_candidates : int;
  index_filtered : int;
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
   after the phase timer stops, so journaling cannot distort the
   reclustering_s it documents (same discipline as the drift gauges). *)
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
  timings : phase_timings option;
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

(* Seed selection (paper Sec. 4.1): greedily pick, among sampled unclustered
   sequences, the one least similar to every cluster chosen so far. The
   similarity sweeps are read-only against frozen PSTs and fan out over
   the domain pool; the greedy argmin and all max-similarity updates run
   on the calling domain in sample order, so the chosen seeds are
   independent of the pool size. *)
let generate_new_clusters cfg db rng ~iter ~next_id ~clusters ~unclustered ~k_n ~index =
  let lbg = Seq_database.log_background db in
  let pool = Array.of_list unclustered in
  if Array.length pool = 0 || k_n <= 0 then []
  else begin
    let par = Par.get_pool () in
    let k_n = min k_n (Array.length pool) in
    let m = min (cfg.sample_factor * k_n) (Array.length pool) in
    let chosen = Rng.sample_without_replacement rng ~k:m ~n:(Array.length pool) in
    let samples = Array.map (fun i -> pool.(i)) chosen in
    (* Compile the frozen models on this domain before fanning out; the
       automata are immutable and shared read-only by the workers. *)
    List.iter Cluster.compile clusters;
    (* Cluster gate bitmaps, built on this domain for the same reason. *)
    let cl_sketches =
      match index with
      | None -> [||]
      | Some _ -> Array.of_list (List.map Cluster.sketch clusters)
    in
    (* Cache each sample's max similarity to the existing clusters; the
       greedy loop only adds similarities to freshly created clusters. *)
    let full_max_sim s =
      List.fold_left
        (fun acc cl -> Float.max acc (Cluster.similarity cl ~log_background:lbg s).log_sim)
        neg_infinity clusters
    in
    let clusters_arr = Array.of_list clusters in
    let max_sim =
      match index with
      | None ->
          (* Ungated: score cluster-major over blocks of samples, one
             batched automaton pass per (cluster, block). The per-sample
             [Float.max] fold visits clusters in list order — the same
             operations in the same order as [full_max_sim], so the
             maxima are bit-identical. *)
          let nb = (m + scan_block - 1) / scan_block in
          let blocks =
            Par.map_chunks par ~n:nb (fun b ->
                let lo = b * scan_block in
                let bn = min scan_block (m - lo) in
                let seqs = Array.init bn (fun j -> Seq_database.get db samples.(lo + j)) in
                let batch = Psa.batch_create ~capacity:bn () in
                let acc = Array.make bn neg_infinity in
                Array.iter
                  (fun cl ->
                    let res = Cluster.similarity_batch cl ~log_background:lbg ~batch seqs in
                    for j = 0 to bn - 1 do
                      acc.(j) <- Float.max acc.(j) res.(j).Similarity.log_sim
                    done)
                  clusters_arr;
                acc)
          in
          Array.init m (fun j -> blocks.(j / scan_block).(j mod scan_block))
      | Some (ratio, sketches) ->
          Par.map_chunks par ~n:m (fun j ->
              let s = Seq_database.get db samples.(j) in
              let sk = sketches.(samples.(j)) in
              let acc = ref neg_infinity and admitted = ref false in
              List.iteri
                (fun ci cl ->
                  if Index.admit sk cl_sketches.(ci) ~ratio then begin
                    admitted := true;
                    let v = (Cluster.similarity cl ~log_background:lbg s).log_sim in
                    if v > !acc then acc := v
                  end)
                clusters;
              (* The greedy argmin below prefers the lowest max-sim; a
                 sample every cluster gated out would otherwise win with
                 -inf on no evidence, so fall back to the exact sweep. *)
              if !admitted || clusters = [] then !acc else full_max_sim s)
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
        let seed_seq = Seq_database.get db samples.(j) in
        let cl =
          Cluster.create ~id:!id ~born:iter ~capacity:(Seq_database.n_sequences db)
            (pst_config cfg ~alphabet_size:(Alphabet.size (Seq_database.alphabet db)))
            seed_seq
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
        (* Update remaining samples' max similarity with the new cluster
           (read-only scores in parallel, element-wise maxima serially).
           A freshly seeded cluster rarely has an active context yet, so
           its gate usually admits everything; when it does fire, a
           pruned pair just skips the max update. *)
        let fresh_sketch =
          match index with None -> Index.empty | Some _ -> Cluster.sketch cl
        in
        let sims =
          match index with
          | None ->
              (* Ungated: one batched pass of the fresh cluster's
                 automaton per block, over the still-untaken lanes
                 ([taken] is read-only during the sweep). *)
              let nb = (m + scan_block - 1) / scan_block in
              let blocks =
                Par.map_chunks par ~n:nb (fun b ->
                    let lo = b * scan_block in
                    let bn = min scan_block (m - lo) in
                    let out = Array.make bn neg_infinity in
                    let pending = Array.make bn 0 in
                    let np = ref 0 in
                    for j = 0 to bn - 1 do
                      if not taken.(lo + j) then begin
                        pending.(!np) <- j;
                        incr np
                      end
                    done;
                    if !np > 0 then begin
                      let seqs =
                        Array.init !np (fun p ->
                            Seq_database.get db samples.(lo + pending.(p)))
                      in
                      let batch = Psa.batch_create ~capacity:!np () in
                      let res = Cluster.similarity_batch cl ~log_background:lbg ~batch seqs in
                      for p = 0 to !np - 1 do
                        out.(pending.(p)) <- res.(p).Similarity.log_sim
                      done
                    end;
                    out)
              in
              Array.init m (fun j -> blocks.(j / scan_block).(j mod scan_block))
          | Some (ratio, sketches) ->
              Par.map_chunks par ~n:m (fun j' ->
                  if taken.(j') then neg_infinity
                  else if Index.admit sketches.(samples.(j')) fresh_sketch ~ratio then
                    (Cluster.similarity cl ~log_background:lbg
                       (Seq_database.get db samples.(j')))
                      .log_sim
                  else neg_infinity)
        in
        for j' = 0 to m - 1 do
          if (not taken.(j')) && sims.(j') > max_sim.(j') then max_sim.(j') <- sims.(j')
        done
      end
    done;
    List.rev !new_clusters
  end

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
  results : Similarity.result array;
      (* by sequence id: the deciding score, [not_scored] where the gate
         pruned the pair *)
  scored : int;  (* matrix entries freshly evaluated *)
  reused : int;  (* matrix entries served by the score-column cache *)
  rescores : int;  (* tree-walk rescores once the cluster went dirty *)
  fresh_joins : int;
}

(* The apply pass of reclustering (paper Sec. 4.2) for cluster [ci], run
   as that cluster's own pool task. Within a pass a cluster's trajectory
   depends only on the examination order, [log_t], its iteration-start
   model and memberships, and its own earlier joiners — never on another
   cluster — so the task walks [order] over its own matrix column and
   absorbs each fresh joiner before the next sequence is scored. The
   first absorb leaves the column stale ("dirty"); every later pair is
   rescored by the tree walk against the grown model. [cl] is mutated by
   this task only. *)
let apply_column db ~log_background ~log_t ~order ~scores ~cache ~cache_on ~prev ci cl =
  let results = Array.make (Array.length scores) not_scored in
  let dirty = ref false in
  let scored = ref 0 and reused = ref 0 and rescores = ref 0 and fresh_joins = ref 0 in
  Array.iter
    (fun sid ->
      let matrix_r = scores.(sid).(ci) in
      (* A pruned pair stays pruned even if the cluster went dirty: the
         gate decided against the iteration-start model, and the serial
         replay mirrors exactly that. *)
      if matrix_r != not_scored then begin
        (* A matrix entry physically shared with the cached column was
           reused, not evaluated. *)
        (match cache with
        | Some col when col.(sid) == matrix_r -> incr reused
        | _ -> incr scored);
        let r : Similarity.result =
          if !dirty then begin
            incr rescores;
            Cluster.similarity cl ~log_background (Seq_database.get db sid)
          end
          else matrix_r
        in
        results.(sid) <- r;
        (* A segment updates the PST only when the sequence joins afresh:
           re-inserting stable members every iteration would inflate
           counts without information, making member similarities (and
           then the threshold valley) grow without bound. *)
        if r.log_sim >= log_t then
          if Bitset.mem prev sid then Cluster.add_member cl sid
          else begin
            Cluster.absorb cl ~seq_id:sid (Seq_database.get db sid) r;
            dirty := true;
            incr fresh_joins
          end
      end)
    order;
  (* A cluster that stayed clean scored every pair against a model that
     is still current, so [results] is its matrix column entry for entry
     ([order] visits every sequence) and the next pass can reuse it. A
     dirty cluster already dropped its cache inside [absorb]. *)
  if cache_on && not !dirty then Cluster.set_score_cache cl results;
  {
    results;
    scored = !scored;
    reused = !reused;
    rescores = !rescores;
    fresh_joins = !fresh_joins;
  }

let run ?(config = default_config) db =
  let cfg = config in
  if cfg.k_init < 1 then invalid_arg "Cluseq.run: k_init must be >= 1";
  (* [not (>= 1.0)] rather than [< 1.0]: the latter lets NaN through. *)
  if not (Float.is_finite cfg.t_init && cfg.t_init >= 1.0) then
    invalid_arg "Cluseq.run: t_init must be a finite value >= 1";
  Obs.Metrics.incr m_runs;
  let run_t0 = if Obs.Metrics.is_enabled () then Timer.now_ns () else 0L in
  Obs.Trace.with_span "cluseq.run" @@ fun () ->
  (* Per-iteration phase durations (seconds); only filled while metrics
     are enabled so disabled runs skip the clock reads entirely. *)
  let phase_s = Array.make (Array.length phase_names) 0.0 in
  let phase idx f =
    Obs.Trace.with_span phase_names.(idx) (fun () ->
        if Obs.Metrics.is_enabled () then begin
          let t0 = Timer.now_ns () in
          let r = f () in
          let dt = Timer.span_s t0 (Timer.now_ns ()) in
          phase_s.(idx) <- dt;
          Obs.Metrics.observe h_phase.(idx) dt;
          r
        end
        else f ())
  in
  let n = Seq_database.n_sequences db in
  (* Built once per database (Seq_database caches it) and validated once
     per run — never recomputed or re-checked inside a scoring call. *)
  let lbg = Seq_database.log_background db in
  Similarity.validate_log_background lbg;
  let rng = Rng.create cfg.seed in
  if Obs.Journal.is_enabled () then
    Obs.Journal.emit "run.start" (fun () ->
        [
          ("sequences", Bench_json.Num (float_of_int n));
          ("k_init", Bench_json.Num (float_of_int cfg.k_init));
          ("t_init", Bench_json.Num cfg.t_init);
          ("seed", Bench_json.Num (float_of_int cfg.seed));
          ("max_iterations", Bench_json.Num (float_of_int cfg.max_iterations));
        ]);
  let threshold = Threshold.create ~t_init:cfg.t_init in
  (* Candidate index: per-sequence sketches are a pure function of the
     database, so they are filled once per run, in parallel like the
     score matrix (bit-identical for any domain count). The gate itself
     is decided per pass — see [gate_ratio] in the loop. *)
  let index_allowed = Index.enabled () && Index.ratio () > 0.0 && cfg.max_depth >= Index.q in
  (* The score-column cache half of the index needs no sketches — only
     deterministic scoring — so it rides on [Index.enabled] alone; the
     ratio and depth valves above only guard the sketch gate. *)
  let cache_on = Index.enabled () in
  let seq_sketches =
    if not index_allowed then [||]
    else
      Obs.Trace.with_span "index.fill" @@ fun () ->
      let t0 = if Obs.Metrics.is_enabled () then Timer.now_ns () else 0L in
      let sk =
        Par.map_chunks (Par.get_pool ()) ~n (fun i ->
            Index.sketch_of_sequence (Seq_database.get db i))
      in
      if Obs.Metrics.is_enabled () then
        Obs.Metrics.observe h_index_fill (Timer.span_s t0 (Timer.now_ns ()));
      sk
  in
  let min_residual = match cfg.min_residual with Some v -> v | None -> cfg.significance in
  let clusters = ref [] in
  let next_id = ref 0 in
  let best = ref (Array.make n None) in
  let assignments = ref (Array.make n []) in
  let prev_memberships : (int * int list) list ref = ref [] in
  let prev_k_n = ref 0 and prev_k_c = ref 0 in
  let history = ref [] in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < cfg.max_iterations do
    incr iterations;
    Obs.Metrics.incr m_iterations;
    Obs.Trace.with_span "iteration" @@ fun () ->
    let iter = !iterations in
    (* Gate activation for this iteration (generation and reclustering
       see the same threshold — it only moves in phase 4). Three valves,
       all required for the gated run to reproduce the full scan:
       - While the threshold still adjusts, every scored pair feeds the
         valley histogram, so skipping any pair would shift the
         threshold trajectory: the gate waits until the samples are
         inert ([adjust_threshold] off, or the threshold frozen).
       - Cluster-based examination order sorts sequences by their best
         score of the previous pass, which pruning perturbs for
         outliers; the gate stays off under that order.
       - While log t <= 0 the similarity bar sits at or below the
         background model, so any sequence can clear it regardless of
         shared content; pruning on content overlap would be unsound
         there. *)
    let gate_ratio =
      if
        index_allowed
        && ((not cfg.adjust_threshold) || Threshold.frozen threshold)
        && cfg.order <> Order.Cluster_based
        && Threshold.log_t threshold > 0.0
      then Some (Index.ratio ())
      else None
    in
    let index = Option.map (fun r -> (r, seq_sketches)) gate_ratio in
    (* --- 1. new cluster generation --- *)
    let fresh =
      phase 0 @@ fun () ->
      let k' = List.length !clusters in
      let unclustered =
        List.filter (fun i -> !assignments.(i) = []) (List.init n Fun.id)
      in
      let k_n =
        if iter = 1 then cfg.k_init
        else begin
          let f =
            if !prev_k_n = 0 then 0.0
            else float_of_int (max (!prev_k_n - !prev_k_c) 0) /. float_of_int !prev_k_n
          in
          let k_n = int_of_float (Float.round (float_of_int k' *. f)) in
          (* f = 0 is a fixed point of the paper's growth formula; keep probing
             with one seed per iteration while unclustered sequences remain (a
             fruitless seed attracts < c exclusive members and is consolidated
             away the same iteration, so termination is unaffected). *)
          if unclustered = [] then 0 else max k_n 1
        end
      in
      let k_n = min k_n (List.length unclustered) in
      generate_new_clusters cfg db rng ~iter ~next_id:!next_id ~clusters:!clusters
        ~unclustered ~k_n ~index
    in
    next_id := !next_id + List.length fresh;
    clusters := !clusters @ fresh;
    (* --- 2. sequence reclustering --- *)
    (* Three steps (the dominant cost the paper's Sec. 6 scalability
       figures measure), two of them on the domain pool.

       Scoring: every (sequence, cluster) pair is scored against the
       clusters' iteration-start PSTs, fanned out by sequence block.
       Each pair is independent and the PSTs are frozen, so the score
       matrix is bit-identical for any domain count and any chunking.

       Apply: one task per cluster ([apply_column]) visits sequences in
       the arranged examination order, joins and absorbs against its own
       model, and rescores by tree walk once that model has grown. This
       is the fully serial algorithm cluster by cluster — a growing
       cluster attracts later sequences within the same iteration, which
       the paper's incremental one-pass design depends on — because no
       cluster's decisions read another cluster's state.

       Merge: this domain folds the tasks' columns in the serial
       algorithm's (order position, cluster index) order, rebuilding
       assignments, best scores, threshold samples, and journal events
       exactly as a one-domain loop would produce them. *)
    let new_best, new_assignments, samples, census0, member_scores, pending_journal, pruned_info
        =
      phase 1 @@ fun () ->
      (* Hoisted journal/drift gates: one bool each for the whole pass, so
         the disabled path adds no closure allocation per scored pair. *)
      let jrn = Obs.Journal.is_enabled () in
      let drift_on = jrn || Obs.Metrics.is_enabled () in
      let clusters_arr = Array.of_list !clusters in
      let k = Array.length clusters_arr in
      (* Iteration-start memberships, aligned with [clusters_arr]: the
         apply loop's was-member tests and the gate's member bypass both
         index it by cluster position. *)
      let prev_arr = Array.map (fun cl -> Bitset.copy (Cluster.members cl)) clusters_arr in
      List.iter Cluster.clear_members !clusters;
      let order = Order.arrange cfg.order rng ~n ~best:!best in
      (* Freeze the audit snapshot before any scoring: iteration-start
         model copies, previous memberships, the threshold, the
         examination order, and the gate setting — everything a serial
         replay needs. *)
      let snapshot =
        match !auditor with
        | None -> None
        | Some _ ->
            Some
              {
                snap_db = db;
                snap_log_t = Threshold.log_t threshold;
                snap_order = Array.copy order;
                snap_before =
                  Array.mapi
                    (fun ci cl ->
                      (Cluster.id cl, Pst.copy (Cluster.pst cl), Bitset.copy prev_arr.(ci)))
                    clusters_arr;
                snap_index_ratio = gate_ratio;
              }
      in
      (* One compiled scorer per (cluster, pass): clusters untouched since
         their last compile keep the cache; any absorbed segment dropped
         it, so this rebuilds exactly the stale ones — on this domain,
         before the fan-out. Gate bitmaps share the same lifecycle. *)
      Array.iter Cluster.compile clusters_arr;
      let gate =
        match gate_ratio with
        | None -> None
        | Some ratio -> Some (ratio, Array.map Cluster.sketch clusters_arr)
      in
      (* Score-column reuse: a cluster whose PST was not mutated since
         the last pass would score every sequence bit-identically, so
         its cached column substitutes for recomputation. [absorb]
         drops the cache, so a [Some] here is always current. Cached
         gate holes ([not_scored]) fall through to a fresh evaluation —
         they can only be read if an admit decision flipped, which the
         sticky valves prevent, but computing is always correct. *)
      let caches =
        if cache_on then Array.map Cluster.score_cache clusters_arr
        else Array.make k None
      in
      (* Batch-first fan-out: each parallel task owns a block of
         [scan_block] sequences and scores it cluster-major — per
         cluster, the lanes not satisfied by the score-column cache or
         pruned by the gate are gathered and scored in ONE batched
         automaton pass ([Cluster.similarity_batch]). The matrix rows
         are identical, record for record, to the per-pair sweep this
         replaces: cache hits install the cached record itself (the
         apply loop's census relies on that physical identity), pruned
         pairs install the [not_scored] sentinel, and the batched kernel
         is bit-for-bit equal to [Cluster.similarity] on each lane. *)
      let nblocks = (n + scan_block - 1) / scan_block in
      let score_blocks =
        Par.map_chunks (Par.get_pool ()) ~n:nblocks (fun b ->
            let lo = b * scan_block in
            let bn = min scan_block (n - lo) in
            let block_seqs = Array.init bn (fun j -> Seq_database.get db (lo + j)) in
            let rows = Array.init bn (fun _ -> Array.make k not_scored) in
            let batch = Psa.batch_create ~capacity:bn () in
            (* Lane gather scratch, reused across the k clusters. *)
            let pending = Array.make (max bn 1) 0 in
            Array.iteri
              (fun ci cl ->
                let np = ref 0 in
                for j = 0 to bn - 1 do
                  let sid = lo + j in
                  match caches.(ci) with
                  | Some col when col.(sid) != not_scored -> rows.(j).(ci) <- col.(sid)
                  | _ ->
                      let admitted =
                        match gate with
                        | None -> true
                        | Some (ratio, cl_sketches) ->
                            (* Members always bypass the gate: exits must
                               be decided by a real score, never by a
                               sketch miss. *)
                            Bitset.mem prev_arr.(ci) sid
                            || Index.admit seq_sketches.(sid) cl_sketches.(ci) ~ratio
                      in
                      if admitted then begin
                        pending.(!np) <- j;
                        incr np
                      end
                      (* else: the row already holds [not_scored]. *)
                done;
                if !np > 0 then begin
                  let seqs = Array.init !np (fun p -> block_seqs.(pending.(p))) in
                  let fresh = Cluster.similarity_batch cl ~log_background:lbg ~batch seqs in
                  for p = 0 to !np - 1 do
                    rows.(pending.(p)).(ci) <- fresh.(p)
                  done
                end)
              clusters_arr;
            rows)
      in
      let scores =
        Array.init n (fun sid -> score_blocks.(sid / scan_block).(sid mod scan_block))
      in
      let log_t = Threshold.log_t threshold in
      (* Apply: one task per cluster, claimed dynamically by the pool's
         domains; a pass lasts at least as long as its heaviest cluster. *)
      let columns =
        Par.map_chunks (Par.get_pool ()) ~chunks:k ~n:k (fun ci ->
            apply_column db ~log_background:lbg ~log_t ~order ~scores ~cache:caches.(ci)
              ~cache_on ~prev:prev_arr.(ci) ci clusters_arr.(ci))
      in
      (* Merge: revisit the pairs in the serial algorithm's order. Every
         decision below is a pure function of the deciding score and the
         iteration-start membership, so the rebuilt state — assignment
         lists, best scores, the sample list fed to the threshold, and
         the deferred journal events — is the one-domain loop's, bit for
         bit. *)
      let new_best = Array.make n None in
      let new_assignments = Array.make n [] in
      let joined = ref 0 in
      let member_scores = Array.make k [] in
      let pending = ref [] in
      let samples = ref [] in
      Array.iter
        (fun sid ->
          for ci = 0 to k - 1 do
            let r = columns.(ci).results.(sid) in
            if r != not_scored then begin
              let cid = Cluster.id clusters_arr.(ci) in
              if Float.is_finite r.log_sim then samples := r.log_sim :: !samples;
              if r.log_sim >= log_t then begin
                incr joined;
                if drift_on then member_scores.(ci) <- r.log_sim :: member_scores.(ci);
                if jrn && not (Bitset.mem prev_arr.(ci) sid) then
                  pending := Ev_joined (sid, cid, r.log_sim) :: !pending;
                new_assignments.(sid) <- cid :: new_assignments.(sid)
              end
              else if jrn && Bitset.mem prev_arr.(ci) sid then
                pending := Ev_left (sid, cid, r.log_sim) :: !pending;
              match new_best.(sid) with
              | Some (_, b) when b >= r.log_sim -> ()
              | _ -> if Float.is_finite r.log_sim then new_best.(sid) <- Some (cid, r.log_sim)
            end
          done)
        order;
      Array.iteri (fun i l -> new_assignments.(i) <- List.rev l) new_assignments;
      if jrn then
        Array.iteri
          (fun ci cl ->
            let fresh = columns.(ci).fresh_joins in
            if fresh > 0 then
              pending := Ev_grew (Cluster.id cl, fresh, Cluster.size cl) :: !pending)
          clusters_arr;
      (match (!auditor, snapshot) with
      | Some a, Some snap ->
          a.on_recluster snap
            ~after:
              (Array.map
                 (fun cl -> (Cluster.id cl, Bitset.copy (Cluster.members cl)))
                 clusters_arr)
            ~assignments:(Array.copy new_assignments)
      | _ -> ());
      (* Census tallies: the parallel matrix scored every admitted
         (sequence, cluster) pair — all n×k when the gate is off; the
         apply tasks' rescores against dirty clusters add to that. Plain
         int arithmetic — deterministic for any domain count, maintained
         whether or not metrics are enabled. *)
      let sum f = Array.fold_left (fun acc c -> acc + f c) 0 columns in
      let total_rescores = sum (fun c -> c.rescores) in
      let total_scored = sum (fun c -> c.scored) in
      let total_reused = sum (fun c -> c.reused) in
      let admitted = total_scored + total_reused in
      let census0 =
        {
          pairs_scored = total_scored + total_rescores;
          pairs_joined = !joined;
          dirty_rescores = total_rescores;
          assignments_changed = 0 (* filled in after the convergence test *);
          pairs_reused = total_reused;
          index_candidates = (match gate with Some _ -> admitted | None -> 0);
          index_filtered = (match gate with Some _ -> (n * k) - admitted | None -> 0);
          score_calls =
            Array.mapi
              (fun ci cl -> (Cluster.id cl, columns.(ci).scored + columns.(ci).rescores))
              clusters_arr;
        }
      in
      let pruned_info =
        match gate_ratio with
        | Some ratio when jrn ->
            Some
              ( ratio,
                Array.mapi
                  (fun ci cl -> (Cluster.id cl, n - columns.(ci).scored - columns.(ci).reused))
                  clusters_arr )
        | _ -> None
      in
      ( new_best,
        new_assignments,
        !samples,
        census0,
        Array.mapi (fun ci cl -> (Cluster.id cl, member_scores.(ci))) clusters_arr,
        List.rev !pending,
        pruned_info )
    in
    (* Write the scan's deferred journal events now that its timer has
       stopped — still this domain, still scan order, so the journal is
       unchanged except for timestamps. *)
    if pending_journal <> [] then begin
      let log_t = Threshold.log_t threshold in
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
                    ("iter", num (fi iter)); ("cluster", num (fi cid));
                    ("fresh", num (fi fresh)); ("size", num (fi size));
                  ]))
        pending_journal
    end;
    (* Gate provenance, also deferred past the phase timer: one record
       per gated iteration with the ratio and the per-cluster prune
       counts. *)
    (match pruned_info with
    | Some (ratio, per_cluster) when census0.index_filtered > 0 ->
        Obs.Journal.emit "index.pruned" (fun () ->
            let num v = Bench_json.Num v in
            let fi = float_of_int in
            [
              ("iter", num (fi iter));
              ("ratio", num ratio);
              ("candidates", num (fi census0.index_candidates));
              ("filtered", num (fi census0.index_filtered));
              ( "clusters",
                Bench_json.Arr
                  (Array.to_list per_cluster
                  |> List.filter (fun (_, f) -> f > 0)
                  |> List.map (fun (cid, f) ->
                         Bench_json.Obj
                           [ ("cluster", num (fi cid)); ("filtered", num (fi f)) ])) );
            ])
    | _ -> ());
    (* --- 3. consolidation --- *)
    let dropped =
      phase 2 @@ fun () ->
      let jrn = Obs.Journal.is_enabled () in
      let retained, dismissed =
        if cfg.consolidate then consolidate ~min_residual ~with_absorbers:jrn !clusters
        else (!clusters, [])
      in
      let dropped = List.length dismissed in
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
      clusters := retained;
      (* Strip memberships of dismissed clusters. Alive ids go into a
         hash set first: filtering each assignment list against an alive
         *list* is O(n·k²) at scale (every sequence × every assignment ×
         every alive cluster). *)
      if dropped > 0 then begin
        let alive = Hashtbl.create (2 * List.length retained) in
        List.iter (fun cl -> Hashtbl.replace alive (Cluster.id cl) ()) retained;
        Array.iteri
          (fun i l -> new_assignments.(i) <- List.filter (Hashtbl.mem alive) l)
          new_assignments
      end;
      dropped
    in
    (match !auditor with
    | Some a -> a.on_iteration ~iteration:iter ~clusters:!clusters ~assignments:new_assignments
    | None -> ());
    (* --- 4. threshold adjustment --- *)
    phase 3 (fun () ->
        if cfg.adjust_threshold then begin
          let old_t = Threshold.linear_t threshold in
          Threshold.adjust threshold (Array.of_list samples);
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
      let changes =
        let prev_tbl = Hashtbl.create 16 in
        List.iter (fun (id, ms) -> Hashtbl.replace prev_tbl id ms) !prev_memberships;
        let changed = Array.make n false in
        List.iter
          (fun (id, ms) ->
            let old = Option.value ~default:[] (Hashtbl.find_opt prev_tbl id) in
            let mark l l' =
              List.iter (fun i -> if not (List.mem i l') then changed.(i) <- true) l
            in
            mark ms old;
            mark old ms)
          memberships;
        (* clusters that disappeared entirely *)
        List.iter
          (fun (id, ms) ->
            if not (List.mem_assoc id memberships) then
              List.iter (fun i -> changed.(i) <- true) ms)
          !prev_memberships;
        Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 changed
      in
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
    best := new_best;
    assignments := new_assignments;
    let unclustered_now =
      Array.fold_left (fun acc l -> if l = [] then acc + 1 else acc) 0 new_assignments
    in
    let census = { census0 with assignments_changed = changes } in
    Obs.Metrics.incr ~by:census.pairs_scored m_pairs_scored;
    Obs.Metrics.incr ~by:census.pairs_joined m_pairs_joined;
    Obs.Metrics.incr ~by:census.dirty_rescores m_dirty_rescores;
    Obs.Metrics.incr ~by:changes m_assignments_changed;
    Obs.Metrics.incr ~by:census.pairs_reused m_pairs_reused;
    Obs.Metrics.incr ~by:census.index_candidates m_index_candidates;
    Obs.Metrics.incr ~by:census.index_filtered m_index_filtered;
    Obs.Metrics.set g_wasted_ratio (wasted_pair_ratio census);
    (* --- drift telemetry --- *)
    (* Quality gauges for this iteration, computed outside the phase
       timers (so [reclustering_s] is never charged for them) and only
       when someone is listening. Every input is a deterministic
       function of the serial model state, so journaled drift records
       are bit-identical at any domain count. *)
    let drift =
      let jrn = Obs.Journal.is_enabled () in
      if not (jrn || Obs.Metrics.is_enabled ()) then None
      else begin
        let live = !clusters in
        let k_live = List.length live in
        let churn = if n = 0 then 0.0 else float_of_int changes /. float_of_int n in
        let ages = List.map (fun cl -> iter - Cluster.born cl) live in
        let mean_age =
          if k_live = 0 then 0.0
          else float_of_int (List.fold_left ( + ) 0 ages) /. float_of_int k_live
        in
        (* Pairwise model divergence is quadratic in clusters, so cap
           the panel at the first 8 live clusters (id order — the
           longest-lived, hence most informative, models). *)
        let panel = List.filteri (fun i _ -> i < 8) live in
        let kls =
          let rec pairs = function
            | [] -> []
            | a :: rest ->
                List.map
                  (fun b -> Divergence.kl_symmetric (Cluster.pst a) (Cluster.pst b))
                  rest
                @ pairs rest
          in
          pairs panel
        in
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
        List.iter
          (fun (_, ss) -> List.iter (Obs.Metrics.observe h_member_score) ss)
          live_scores;
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
        timings =
          (if Obs.Metrics.is_enabled () then
             Some
               {
                 generation_s = phase_s.(0);
                 reclustering_s = phase_s.(1);
                 consolidation_s = phase_s.(2);
                 threshold_s = phase_s.(3);
                 convergence_s = phase_s.(4);
               }
           else None);
        drift;
      }
      :: !history;
    if stable then converged := true
  done;
  Obs.Metrics.set g_clusters (float_of_int (List.length !clusters));
  Obs.Metrics.set g_final_t (Threshold.linear_t threshold);
  let pst_stats =
    Array.of_list (List.map (fun cl -> (Cluster.id cl, Pst.stats (Cluster.pst cl))) !clusters)
  in
  if Obs.Metrics.is_enabled () then begin
    Obs.Metrics.incr ~by:n m_sequences;
    Obs.Metrics.incr ~by:(Seq_database.total_symbols db) m_symbols;
    Obs.Metrics.observe h_run_seconds (Timer.span_s run_t0 (Timer.now_ns ()));
    let nodes = Array.fold_left (fun acc (_, (st : Pst.stats)) -> acc + st.nodes) 0 pst_stats in
    let words =
      Array.fold_left (fun acc (_, (st : Pst.stats)) -> acc + st.approx_bytes) 0 pst_stats
      / (Sys.word_size / 8)
    in
    Obs.Metrics.incr ~by:nodes m_pst_nodes_built;
    Obs.Metrics.incr ~by:words m_pst_words_built;
    Obs.Metrics.set g_pst_nodes (float_of_int nodes);
    Obs.Metrics.set g_pst_words (float_of_int words)
  end;
  Log.info (fun m ->
      m "done: %d clusters in %d iterations (final t = %.4g)" (List.length !clusters)
        !iterations (Threshold.linear_t threshold));
  let outliers =
    List.filter (fun i -> !assignments.(i) = []) (List.init n Fun.id)
  in
  if Obs.Journal.is_enabled () then begin
    Obs.Journal.emit "run.end" (fun () ->
        [
          ("clusters", Bench_json.Num (float_of_int (List.length !clusters)));
          ("iterations", Bench_json.Num (float_of_int !iterations));
          ("final_t", Bench_json.Num (Threshold.linear_t threshold));
          ("outliers", Bench_json.Num (float_of_int (List.length outliers)));
        ]);
    (* A run boundary is a natural sync point for offline readers. *)
    Obs.Journal.flush ()
  end;
  {
    clusters =
      Array.of_list
        (List.map
           (fun cl -> (Cluster.id cl, Array.of_list (Bitset.to_list (Cluster.members cl))))
           !clusters);
    assignments = !assignments;
    best = !best;
    outliers;
    n_clusters = List.length !clusters;
    final_t = Threshold.linear_t threshold;
    iterations = !iterations;
    history = List.rev !history;
    pst_stats;
    models =
      Array.of_list (List.map (fun cl -> (Cluster.id cl, Cluster.pst cl)) !clusters);
  }
