(** Domain-parallel execution for the read-only hot loops.

    A persistent pool of worker domains ([Domain] + [Mutex]/[Condition])
    behind two data-parallel primitives, {!parallel_for} and
    {!map_chunks}. The pool runs the {e read-only} side of the pipeline
    — similarity scoring of (sequence, cluster) pairs, classifier
    batches, pairwise distance matrices, the shard-merge divergences —
    and {e ownership} tasks in which each task owns one model: the
    reclustering apply pass (one task per cluster: its joins, PST
    insertions and rescores) and the shard merge (one task per merged
    component). State shared across models (assignments, threshold
    moves, journal events) is updated on the submitting domain after
    the job. See DESIGN.md §7.

    {b Determinism contract.} Both primitives produce results that are
    bit-identical for every pool size and every chunking: work items are
    independent, each item [i] is evaluated exactly once by exactly one
    domain, and results are gathered by item index — never in completion
    order. A pool of size 1 (or a body raising the inline fallback)
    executes items [0, 1, 2, …] on the caller, which is exactly the
    pre-pool serial path.

    {b Threading rules.} Jobs are submitted from one domain at a time
    (the pipeline submits only from the domain running [Cluseq.run] or
    [Shard.run]). A body that re-enters the pool (nested submission)
    runs its job inline on the calling domain rather than deadlocking.
    Worker bodies must confine themselves to read-only shared data plus
    writes to data they own: disjoint result slots, and for an
    ownership task the one model (a cluster, or a merged component's
    fresh PST) that no other item of the job reads or writes. Of the
    {!Obs} registry they may touch
    counters and histograms (both atomic — histograms since the
    flight-recorder PR; previously [par.steal_wait_seconds] was
    observed under a histograms-are-main-domain-only contract, which
    held only because the pipeline always submits from the main
    domain). Gauges remain main-domain-only. Worker domains also write
    [par.chunk] begin/end events to their own {!Obs.Recorder} rings,
    which are per-domain by construction.

    {b Metrics} (through {!Obs.Metrics}): [par.domains] (gauge, pool
    size of the most recent parallel job), [par.tasks] (counter, chunks
    dispatched to the pool), [par.steal_wait_seconds] (histogram, time
    the submitting domain idles waiting for straggler workers after the
    chunk queue drains), [par.domain_busy_ratio] /
    [par.domain_busy_ratio_min] (gauges: mean and minimum over the
    domains of busy-time / wall-time for the most recent parallel job —
    the minimum is the straggler indicator). Recorder events:
    [par.job] begin/end around each parallel job (arg = chunk count, on
    the submitter's ring) and [par.chunk] begin/end around each chunk
    (arg = chunk index, on the executing domain's ring). *)

type t
(** A persistent pool. Size [s] means [s] domains participate in every
    job: the submitting domain plus [s - 1] workers. Workers block on a
    condition variable between jobs; an idle pool consumes no CPU. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool of the given total size (default
    {!default_domains}), clamped to [\[1, 64\]]. [create ~domains:1 ()]
    spawns no workers: every job runs inline on the caller. *)

val size : t -> int
(** Total domains participating in this pool's jobs (including the
    submitter). *)

val shutdown : t -> unit
(** Wake and join all workers. Idempotent; the pool must not be used
    afterwards (jobs then raise [Invalid_argument]). *)

val parallel_for : t -> ?chunks:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi body] runs [body i] for every
    [lo <= i < hi], split into [chunks] contiguous index ranges
    (default [4 × size], capped at the range length) claimed dynamically
    by the participating domains. Within a chunk, indexes run in
    ascending order. [body] must write only to slots it owns (e.g.
    [results.(i)]). If any [body i] raises, the first exception by
    {e chunk index} (deterministic, not racy) is re-raised on the
    submitting domain after all claimed chunks finish. *)

val map_chunks : t -> ?chunks:int -> n:int -> (int -> 'a) -> 'a array
(** [map_chunks pool ~n f] evaluates [f i] for [0 <= i < n] and returns
    the results indexed by [i] — a parallel [Array.init n f] with the
    chunking and exception rules of {!parallel_for}. [n = 0] yields
    [[||]] without touching the pool. *)

(** {1 Global pool}

    The pipeline call sites ([Cluseq.run], [Classifier.classify_all],
    [Kmedoids], [Agglomerative]) share one lazily created global pool so
    a single [--domains] flag governs the whole process. *)

val default_domains : unit -> int
(** The size used for the next implicit pool: the last
    {!set_default_domains} value if any; else a valid [CLUSEQ_DOMAINS]
    environment variable; else [Domain.recommended_domain_count ()] —
    each clamped to [\[1, 64\]]. *)

val set_default_domains : int -> unit
(** Override the default size (the [--domains N] CLI/bench flag). If the
    global pool already exists at a different size it is shut down and
    lazily recreated at the new size on next use. *)

val get_pool : unit -> t
(** The global pool, created on first use with {!default_domains}
    domains. Shut down automatically at process exit. *)
