(** Online (streaming) sequence clustering on top of CLUSEQ.

    The paper's motivating domains include web access logs and system
    traces — data that arrives as an unbounded stream. This module extends
    the batch algorithm to that setting (an extension beyond the paper,
    built from its own primitives):

    - each arriving sequence is scored against the current cluster models
      (the paper's similarity measure) and {e absorbed} into every cluster
      it clears the threshold for (best-segment PST update, Sec. 4.4);
      the models are {!Cluster.t}s, whose automata the next score brings
      current after an absorb;
    - sequences matching nothing are {e buffered}; when the buffer fills,
      a batch CLUSEQ run mines it for new clusters, which join the live
      model set;
    - the background distribution is maintained incrementally over all
      symbols seen;
    - memory stays bounded: per-cluster PSTs by their node budget (no
      member ids are kept), the buffer by [buffer_capacity] (oldest
      unmatched sequences are dropped and counted as outliers).

    When {!Obs.Journal} is enabled the stream's decisions are journaled
    as [online.assigned] (best cluster + deciding score),
    [online.mined], and [online.dropped] records, alongside the batch
    events of the embedded {!Cluseq.run} during mining.

    Determinism: given the same config and feed order, the state evolution
    is reproducible. *)

type t
(** Mutable streaming state. *)

type stats = {
  fed : int;  (** Sequences fed so far. *)
  assigned : int;  (** Assignments to existing clusters at feed time. *)
  mined_clusters : int;  (** Clusters discovered by buffer mining. *)
  buffered : int;  (** Sequences currently awaiting mining. *)
  dropped_outliers : int;  (** Unmatched sequences evicted from the buffer. *)
  n_clusters : int;  (** Live clusters. *)
}

val create :
  ?config:Cluseq.config ->
  ?buffer_capacity:int ->
  ?mine_at:int ->
  alphabet_size:int ->
  unit ->
  t
(** [create ~alphabet_size ()] starts with no clusters. [mine_at] (default
    64) triggers a batch mining run once that many sequences are buffered;
    [buffer_capacity] (default [4 × mine_at]) bounds the buffer — the
    oldest sequences beyond it are evicted as outliers. [config] controls
    both feed-time thresholds and the mining runs (its [t_init] is the
    decision threshold; threshold auto-adjustment applies within mining
    runs only). Raises [Invalid_argument] on an [alphabet_size] below 1,
    a [mine_at] below 2, a [buffer_capacity] below [mine_at], or a
    [config] {!Cluseq.validate_config} rejects (with its message). *)

val feed : t -> Sequence.t -> int option
(** [feed t s] processes one arriving sequence: [Some cluster_id] when it
    joined an existing cluster (the best one — overlap joins update every
    matching cluster's PST), [None] when it was buffered. May trigger a
    mining run. Raises [Invalid_argument] on symbols outside the
    alphabet. *)

val mine : t -> int
(** [mine t] forces a mining run over the buffer now; returns the number
    of new clusters discovered. Mined clusters absorb their members from
    the buffer; everything else stays buffered. *)

val classify : t -> Sequence.t -> (int * float) option
(** [classify t s] is the best (cluster, log-similarity) if it clears the
    threshold. It may bring cluster automata current, but changes no
    observable state (the refresh metrics aside). *)

val stats : t -> stats
(** Current counters. *)

val cluster_sizes : t -> (int * int) list
(** Live (cluster id, members absorbed) pairs, ascending ids. *)
