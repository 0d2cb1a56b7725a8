(** A sequence cluster: a probabilistic suffix tree modeling the cluster's
    CPD plus a member bitset over sequence ids (paper Defn. 2.1). *)

type t
(** A mutable cluster. *)

val create : id:int -> ?born:int -> capacity:int -> Pst.config -> Sequence.t -> t
(** [create ~id ~capacity cfg seed] is a fresh cluster initialized from one
    seed sequence (paper Sec. 4.1): its PST is built from the seed and the
    seed is not yet recorded as a member (membership is decided by the
    reclustering pass). [capacity] is the database size, fixing the member
    bitset width. [born] (default 0) records the iteration that seeded the
    cluster, for the drift telemetry's age histogram. *)

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
    build it on first use (if {!Psa.enabled}), and after an {!absorb}
    refresh its rows in place ({!Psa.refresh}) or, once a context turned
    significant or was pruned, recompile it. Called on the submitting
    domain at the start of every read-only scoring sweep, so the sweep's
    workers only ever read a current automaton. Idempotent and cheap
    when nothing changed. The first call after creation or after the
    tree grew journals a [cluster.froze] event (with the automaton's
    state count) when {!Obs.Journal} is enabled. *)

val sketch : t -> Index.cluster_sketch
(** The candidate-index bitmap for the cluster's current PST
    ({!Index.of_pst}), cached: built lazily on the main domain at pass
    start, dropped by any {!absorb} that grows the tree, so it can never
    go stale. *)

val score_cache : t -> Similarity.result array option
(** The previous reclustering pass's score column against this cluster
    (index [sid] → that sequence's {!Similarity.result}), if the PST is
    unchanged since it was computed. Because scoring is deterministic,
    a cached entry is bit-identical to a fresh evaluation against the
    current model — the candidate index reuses it instead of rescoring.
    Same lifecycle as {!sketch}: any {!absorb} that grows the tree
    drops it. *)

val set_score_cache : t -> Similarity.result array -> unit
(** Install the score column computed by a just-finished pass. Callers
    must only do this when the PST was not mutated during the pass. *)

val similarity : t -> log_background:float array -> Sequence.t -> Similarity.result
(** {!Similarity.score} against this cluster's PST — via the compiled
    automaton when there is one ({!compile}), via the tree walk
    otherwise (the [--no-psa] fallback). An automaton left stale by
    {!absorb} is first refreshed or recompiled in place, exactly as
    {!compile} would, so only the task that owns the cluster may call
    this after an absorb; after {!compile} it only reads. The paths are
    bit-for-bit equal, so the choice is invisible to callers. *)

val similarity_batch :
  t ->
  log_background:float array ->
  batch:Psa.batch ->
  Sequence.t array ->
  Similarity.result array
(** Score a whole block against this cluster in one pass — the batched
    kernel ({!Similarity.score_batch}) over the automaton when it is
    current, a per-sequence tree walk otherwise (the [--no-psa]
    fallback). Never touches the automaton, so the read-only fan-out
    may call it from any domain; call {!compile} first to get the fast
    path. Bit-for-bit equal to mapping {!similarity} over the block
    either way. [batch] is the caller's reusable scratch (one per
    worker domain). *)

val absorb : t -> seq_id:int -> Sequence.t -> Similarity.result -> unit
(** [absorb t ~seq_id s r] adds [seq_id] as a member and inserts the
    maximizing segment [r.seg_lo .. r.seg_hi] of [s] into the PST
    (paper Sec. 4.2/4.4: only the best segment updates the tree). The
    automaton is kept but marked stale — the next {!similarity} or
    {!compile} brings it up to date — while the gate sketch and the
    score cache are dropped. *)
