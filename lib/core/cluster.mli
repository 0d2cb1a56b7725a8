(** A sequence cluster: a probabilistic suffix tree modeling the cluster's
    CPD plus a member bitset over sequence ids (paper Defn. 2.1). *)

type t
(** A mutable cluster. *)

val create : id:int -> ?born:int -> capacity:int -> Pst.config -> Sequence.t array -> t
(** [create ~id ~capacity cfg seeds] is a fresh cluster whose PST holds
    the [seeds], each inserted whole and in order, compiled once into its
    scoring automaton ({!of_pst} of that tree): batch CLUSEQ's one seed
    (paper Sec. 4.1), or a mining run's members for {!Online}. No seed
    becomes a member.
    [capacity] fixes the member bitset width: the database size, or 0
    for a caller that records no ids. [born] (default 0) records the
    seeding iteration, for the drift telemetry's age histogram. *)

val of_pst : id:int -> ?born:int -> capacity:int -> Pst.t -> t
(** [of_pst ~id ~capacity pst] is a memberless cluster whose model is
    [pst], compiled once: a shard's model lifted into the merge, a merged
    model, or a trained one ({!Classifier}). The cluster owns [pst]: an
    {!absorb} grows it in place. [capacity] and [born] are as for
    {!create}. *)

val id : t -> int
(** Stable identifier assigned at creation. *)

val born : t -> int
(** Iteration at which the cluster was seeded (0 for initial clusters). *)

val pst : t -> Pst.t
(** The cluster's probabilistic suffix tree. *)

val members : t -> Bitset.t
(** The member set (shared, mutable through {!add_member} / {!clear}). *)

val size : t -> int
(** Number of members. *)

val mem : t -> int -> bool
(** Membership test by sequence id. *)

val add_member : t -> int -> unit
(** Record a sequence id as a member. *)

val clear_members : t -> unit
(** Empty the member set (start of a reclustering pass); the PST is kept. *)

val compile : t -> unit
(** Make the cluster's {!Psa.t} scoring automaton current for its PST:
    after an {!absorb}, refresh it in place ({!Psa.refresh}: rewrite the
    rows that moved, and add a state for each context that turned
    significant, as reported by the absorbs' insertions) or, once a
    significant context was pruned, recompile it. Either way the
    cluster's buffer of reported crossings is emptied. Called on the submitting domain at the start of every read-only
    scoring sweep, so the sweep's workers only ever read a current
    automaton ({!score_columns} checks). Idempotent and cheap when
    nothing changed. The first call after creation or after the tree
    grew journals a [cluster.froze] event (with the automaton's state
    count) when {!Obs.Journal} is enabled. *)

val automaton : t -> Psa.t
(** The cluster's scoring automaton, brought current as by {!compile}
    minus its journal record: the same owner rule as {!similarity}
    applies. For tests and oracles that compare it with a fresh
    {!Psa.compile} of {!pst}. *)

val score_cache : t -> Similarity.column option
(** The previous reclustering pass's score column against this cluster
    (cell [sid] → that sequence's score), if the PST is unchanged since
    it was computed. Because scoring is deterministic, a cached cell is
    bit-identical to a fresh evaluation against the current model, so
    the reclustering scan reuses the column instead of rescoring it. Any
    {!absorb} that grows the tree drops it, so a pass may go on writing
    its rescores into the column it took from here. Always [None] while
    the cache is switched off ({!set_cache_enabled}). *)

val set_score_cache : t -> Similarity.column -> unit
(** Install the score column computed by a just-finished pass. Callers
    must only do this when the PST was not mutated during the pass. Does
    nothing while the cache is switched off. *)

val cache_enabled : unit -> bool
(** Whether the score-column cache is on (default [true]). *)

val set_cache_enabled : bool -> unit
(** Process-wide switch for the score-column cache ([--no-index] sets
    [false]). Off, every reclustering pass scores every (sequence,
    cluster) pair afresh — the reference the cache must be invisible
    against ([Check.cache_agrees]). Set it before a run, not during one. *)

val profile : t -> Divergence.profile
(** The PST's {!Divergence.profile}, built on first use and kept until an
    {!absorb} grows the tree, so a caller comparing models across
    iterations (the drift panel) rebuilds only the profiles of clusters
    that changed, and can tell by physical equality whether one was
    rebuilt. Like the score column, the cache is a plain field: only the
    domain that owns the cluster may call this. *)

val similarity : t -> log_background:float array -> Sequence.t -> Similarity.result
(** {!Similarity.score} against this cluster's PST, computed on its
    compiled automaton ({!Similarity.score_psa}, bit-for-bit equal to
    the tree walk). An automaton left stale by {!absorb} is first
    brought current as by {!compile}, minus its journal record, so only
    the task that owns the cluster may call this after an absorb; after
    {!compile} it only reads. *)

val rescore : t -> log_background:float array -> Similarity.column -> int -> Sequence.t -> unit
(** [rescore t ~log_background column i s] writes [similarity t
    ~log_background s] into cell [i] of [column], with no record
    ({!Similarity.score_cell}): a dirty rescore of the batch loop's
    apply pass. The owner rule of {!similarity} applies. *)

val score_columns :
  log_background:float array -> t array -> Sequence.t array -> Similarity.column array
(** [score_columns ~log_background clusters seqs] scores every sequence
    against every cluster on the {!Par} global pool and returns one
    column per cluster: cell [i] of [(score_columns ~log_background
    clusters seqs).(c)] is bit-for-bit [similarity clusters.(c)
    ~log_background seqs.(i)]. The sequences are cut into blocks of 64,
    one pool task each; a task scores its block cluster-major, one
    {!Similarity.score_block} pass per (cluster, block), writing straight
    into each column at the block's offset, so no per-sequence record
    is built and no block is copied back. The tasks only read the
    automata and write disjoint cells, so the result is the same for any
    pool size. The one scoring fan-out of the batch loop's seed sweeps
    and reclustering scan and of {!Classifier.classify_all}. Raises
    [Invalid_argument], before any scoring, when an {!absorb} has left
    an automaton stale: call {!compile} first. *)

val absorb : t -> Sequence.t -> Similarity.result -> unit
(** [absorb t s r] inserts the maximizing segment [r.seg_lo .. r.seg_hi]
    of [s] into the PST (paper Sec. 4.2/4.4: only the best segment
    updates the tree); membership is the caller's ({!add_member}). The
    insertion reports the contexts it makes significant to a buffer the
    cluster keeps until its automaton is current again (a cluster with
    no crossing pending holds none). The automaton is kept but marked stale —
    the next {!similarity} or {!compile} brings it up to date, patching
    those contexts in — while the score cache and the divergence
    {!profile} are dropped. *)
