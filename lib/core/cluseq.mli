(** The CLUSEQ clustering algorithm (paper Sec. 4).

    Iteration progress is traced on the ["cluseq"] {!Logs} source (info:
    run summary; debug: per-iteration stats) — enable a reporter to see
    it.

    Starting from a sequence database, CLUSEQ iterates four steps until the
    clustering stabilizes:

    + {b New cluster generation} (4.1): seed [k] new single-sequence
      clusters on the first iteration; afterwards seed {m k' \cdot f} where
      the growth factor {m f} rises toward 1 when consolidation removes few
      clusters and falls toward 0 when it removes many. Seeds are chosen
      greedily from a random sample of [sample_factor × k_n] unclustered
      sequences, preferring sequences least similar to every existing
      cluster.
    + {b Sequence reclustering} (4.2): every sequence joins every cluster
      whose similarity exceeds the threshold [t] (clusters may overlap);
      each join inserts the best-matching segment into the cluster's PST.
    + {b Cluster consolidation} (4.5): ascending by size, a cluster whose
      members are almost all covered by larger clusters (fewer than
      [min_residual] uncovered) is dismissed.
    + {b Threshold adjustment} (4.6, optional): move [t] toward the valley
      of the similarity histogram.

    The process stops when an iteration leaves both the set of clusters and
    every membership unchanged, or after [max_iterations].

    {b Decision provenance.} When {!Obs.Journal} is enabled, {!run}
    journals every model decision from its serial sections (so records
    are deterministic at any domain count): [run.start]/[run.end],
    [cluster.seeded]/[cluster.grew]/[cluster.froze]/[cluster.dismissed]
    (with the absorbing clusters), [threshold.adjusted] (old/new [t]),
    [seq.joined]/[seq.left] (with the deciding log-similarity against
    the threshold), and one [iteration.drift] quality record per
    iteration. Membership events decided inside the timed reclustering
    scan are recorded as plain tuples and written (in scan order) right
    after the [reclustering] span closes, so journaling does not distort
    the [cluseq.iter.reclustering_seconds] it documents. When the journal
    is disabled every hook costs one [bool ref] read — the same contract
    as the {!auditor}. *)

type config = {
  k_init : int;  (** Initial number of clusters [k] (paper default 1). *)
  significance : int;  (** Significance threshold [c] (paper default 30). *)
  t_init : float;  (** Initial linear similarity threshold (≥ 1). *)
  max_depth : int;  (** PST max context length L. *)
  max_nodes : int;  (** PST node budget per cluster. *)
  p_min : float;  (** Probability smoothing floor (Sec. 5.2). *)
  pruning : Pruning.strategy;  (** PST pruning policy (Sec. 5.1). *)
  adjust_threshold : bool;  (** Enable the Sec. 4.6 auto-adjustment. *)
  consolidate : bool;  (** Enable the Sec. 4.5 consolidation. *)
  order : Order.t;  (** Examination order (Sec. 6.3). *)
  sample_factor : int;  (** m = sample_factor × k_n seeds sample (paper 5). *)
  max_iterations : int;  (** Safety cap on iterations. *)
  min_residual : int option;
      (** Consolidation keep-threshold; [None] uses [significance],
          mirroring the paper's "< c". *)
  seed : int;  (** PRNG seed: runs are fully deterministic. *)
}

val default_config : config
(** Paper-faithful defaults: [k_init = 1], [significance = 30],
    [t_init = 1.2], [max_depth = 10], [max_nodes = 20_000],
    [p_min = 1e-3], smallest-count pruning, adjustment and consolidation
    on, fixed order, [sample_factor = 5], [max_iterations = 50],
    [seed = 42]. *)

val pst_config : config -> alphabet_size:int -> Pst.config
(** The PST configuration of every cluster a run builds, with [p_min]
    capped below the [1 / alphabet_size] that {!Pst.create} rejects. *)

type recluster_snapshot = {
  snap_db : Seq_database.t;  (** The database being clustered. *)
  snap_log_t : float;  (** The log threshold the pass joined against. *)
  snap_order : int array;  (** The examination order of this iteration. *)
  snap_before : (int * Pst.t * Bitset.t) array;
      (** Per cluster (in examination order of the cluster list):
          id, a private {!Pst.copy} of its model at iteration start, and
          its membership from the {e previous} iteration. *)
}
(** Everything a serial reference implementation needs to replay one
    reclustering pass independently (see [Check.reference_recluster]). *)

type auditor = {
  on_recluster :
    recluster_snapshot ->
    after:(int * Bitset.t) array ->
    assignments:int list array ->
    decided:Similarity.result array array ->
    unit;
      (** Called at the end of every reclustering pass with the frozen
          inputs and the produced memberships/assignments. [decided]
          holds, per cluster (aligned with [snap_before]) and by
          sequence id, the result that decided the pair — the matrix
          score, or the rescore against the grown model once the
          cluster absorbed — boxed from the pass's score columns, which
          happens only while an auditor is installed. Read-only. *)
  on_iteration : iteration:int -> clusters:Cluster.t list -> assignments:int list array -> unit;
      (** Called after consolidation each iteration with the surviving
          clusters and the (stripped) assignment lists. *)
}
(** Correctness hooks for the [cluseq.check] subsystem. Installed hooks
    may raise to abort the run (e.g. [Check.Violation]); when none is
    installed the run pays a single ref read per iteration. *)

val set_auditor : auditor option -> unit
(** Install (or clear) the process-wide auditor. Not domain-safe: set it
    before {!run}, from the same domain. *)

type scan_census = {
  pairs_scored : int;
      (** (sequence, cluster) similarity evaluations in this iteration's
          reclustering pass: the n×k parallel matrix less the columns
          reused from the score-column cache, plus the apply tasks'
          rescores against clusters whose PST absorbed a joiner. *)
  pairs_joined : int;  (** Evaluations at or above the join threshold. *)
  dirty_rescores : int;
      (** Re-evaluations against mutated ("dirty") clusters, run inside
          each cluster's apply task on its in-place refreshed (or
          recompiled) automaton — the part of the scan the score matrix
          could not cover. *)
  assignments_changed : int;
      (** Sequences whose membership set changed this iteration (equals
          [membership_changes]). *)
  pairs_reused : int;
      (** Matrix entries satisfied from a clean cluster's cached score
          column instead of a fresh evaluation (bit-identical by
          determinism — see {!Cluster.score_cache}); [0] when the cache
          is switched off. Reused pairs are {e not} in [pairs_scored],
          so [pairs_scored + pairs_reused] does not depend on the
          cache. *)
  score_calls : (int * int) array;
      (** Per cluster scored this iteration: (cluster id, similarity
          calls against it) — its freshly evaluated matrix entries plus
          its dirty rescores. *)
}
(** Scan-efficiency census of one reclustering pass (DESIGN.md §10):
    the baseline any candidate-pruning optimization must beat. Counts
    are pure arithmetic — no clock reads — so they are bit-identical
    for every domain count and independent of whether [Obs.Metrics] is
    enabled. Accumulated run-wide in the [cluseq.scan.*] counters. *)

val wasted_pair_ratio : scan_census -> float
(** Fraction of scored pairs that did not produce a join:
    [(pairs_scored - pairs_joined) / pairs_scored] (0 when nothing was
    scored). High values mean the all-pairs scan is mostly wasted work
    — the quantity index-first pruning (SEQR) targets. *)

type drift = {
  churn_rate : float;
      (** Fraction of sequences whose membership set changed this
          iteration ([membership_changes / n]) — the primary
          stability gauge: it should decay toward 0 as the clustering
          converges. *)
  mean_cluster_age : float;
      (** Mean iterations-since-seeding over live clusters. Persistently
          low values mean clusters churn (seeded and dismissed) instead
          of maturing. *)
  mean_intercluster_kl : float;
      (** Mean pairwise symmetrized KL ({!Divergence.kl_profiles} over
          each cluster's cached {!Cluster.profile}) over (a panel of up
          to 8 of) the live cluster models; a pair is recomputed only
          when either model changed since the previous iteration.
          Falling values mean the models are blending together. *)
  mean_member_score : float;
      (** Mean log-similarity over every (member, cluster) join of the
          reclustering pass, restricted to clusters that survived
          consolidation. *)
  scored_members : int;  (** Number of joins behind [mean_member_score]. *)
}
(** Per-iteration clustering-quality gauges. Every input is a
    deterministic function of the serial model state, so values are
    bit-identical at any domain count. Also published to the
    [cluseq.drift.*] histograms of {!Obs.Metrics} and journaled as
    [iteration.drift] records (with per-cluster score sketches) when
    {!Obs.Journal} is enabled. Computed only when metrics or the
    journal are on, under the [cluseq.drift] span, which feeds the
    [cluseq.drift_seconds] histogram once per iteration. *)

type iteration_stats = {
  iteration : int;  (** 1-based iteration number. *)
  new_clusters : int;  (** Clusters seeded this iteration ({m k_n}). *)
  consolidated : int;  (** Clusters dismissed this iteration ({m k_c}). *)
  clusters : int;  (** Clusters alive at iteration end. *)
  unclustered : int;  (** Sequences in no cluster. *)
  threshold : float;  (** Linear [t] at iteration end. *)
  membership_changes : int;  (** Sequences whose membership set changed. *)
  census : scan_census;  (** Scan-efficiency census of the reclustering pass. *)
  drift : drift option;
      (** Quality gauges; [Some] when [Obs.Metrics] or {!Obs.Journal}
          was enabled — computed outside the phase spans, so no phase
          is charged for them. *)
}
(** Deterministic: identically seeded runs produce equal histories at
    any domain count. Phase wall-clock time is not kept here; each phase
    is a span of {!run} feeding its [cluseq.iter.<phase>_seconds]
    histogram. *)

type result = {
  clusters : (int * int array) array;
      (** (cluster id, sorted member sequence ids) for each final cluster. *)
  assignments : int list array;
      (** Per sequence: ids of every cluster it belongs to (overlap allowed). *)
  best : (int * float) option array;
      (** Per sequence: the best-scoring cluster of the last reclustering
          pass and its log-similarity — also set for sequences below
          threshold (useful for diagnostics); [None] only if no cluster
          produced a finite score. The final consolidation may have
          dismissed that cluster, so it need not be among [clusters]. *)
  outliers : int list;  (** Sequences belonging to no cluster. *)
  n_clusters : int;  (** Final number of clusters. *)
  final_t : float;  (** Final linear threshold. *)
  iterations : int;  (** Iterations executed. *)
  history : iteration_stats list;  (** Per-iteration stats, oldest first. *)
  pst_stats : (int * Pst.stats) array;
      (** Structural statistics of each final cluster's PST (size, depth,
          approximate bytes) — reported by the Figure 4 bench. *)
  models : (int * Pst.t) array;
      (** Each final cluster's probabilistic suffix tree, for classifying
          new sequences after the run (see {!Classifier}). The trees are
          live references — treat as read-only. *)
}

val scaled_config : ?base:config -> expected_cluster_size:int -> unit -> config
(** [scaled_config ~expected_cluster_size ()] adapts the statistical
    thresholds of [base] (default {!default_config}) to the data scale:
    the significance count [c] becomes
    [max 4 (min 30 (expected_cluster_size / 4))] and the consolidation
    residual [c] likewise — the paper's [c = 30] presumes hundreds of
    members per cluster, and keeping it there on small databases makes
    every context insignificant and every new cluster die in
    consolidation. [expected_cluster_size] is a rough guess of N/k; it
    only needs to be the right order of magnitude. *)

val run : ?config:config -> Seq_database.t -> result
(** [run ?config db] executes CLUSEQ on [db]. Deterministic for a fixed
    [config.seed]. An empty [db] returns at once: no clusters, 0
    iterations and an empty history, as the sharded path reports. *)

val journal_start : ?shards:int -> config -> n:int -> unit
(** Journal a run's [run.start] record, when {!Obs.Journal} is enabled.
    A sharded run passes [shards], the record's last field. *)

val finish :
  ?shards:int ->
  n:int ->
  best:(int * float) option array ->
  final_t:float ->
  iterations:int ->
  history:iteration_stats list ->
  Cluster.t list ->
  result
(** [finish ~n ~best ~final_t ~iterations ~history clusters] is the
    result of a run over [n] sequences whose final clusters, ascending by
    id, are [clusters]; {!run} and [Shard.run] both return through it.
    Each sequence's [assignments] (ascending ids) and the [outliers] are
    read from the member sets, which every reclustering pass keeps equal
    to the assignment lists. It sets the final-model gauges
    ([cluseq.clusters], [cluseq.final_t], [cluseq.pst.nodes],
    [cluseq.pst.est_words]) and journals [run.end], ending with [shards]
    as in {!journal_start}. *)

val hard_labels : result -> n:int -> int array
(** [hard_labels r ~n] flattens the overlapping clustering into one label
    per sequence: the sequence's best cluster id among the clusters it
    actually joined, or [-1] for outliers. For evaluation against ground
    truth. *)
