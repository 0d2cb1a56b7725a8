(** Shard-and-merge orchestration: partition the database, run the full
    CLUSEQ iteration loop per shard (one shard per domain-pool task),
    then merge the per-shard cluster models into consolidated clusters
    (DESIGN.md §14).

    Sharding trades a little merge work for coarse-grained parallelism
    the intra-run pool cannot reach: each shard runs the {e whole}
    pipeline — including the serial sections (generation,
    consolidation, convergence) — concurrently with the others. The
    merge runs on the pool as well: the cross-shard divergences as one
    job, then each merged component's model merge and fix-up scores as
    one task, applied in component order. Every model the merge scores
    is a {!Cluster.t} ({!Cluster.of_pst}), compiled once: each shard
    model, lifted to the global numbering with its members, and each
    merged component's model. Each lifted cluster builds its
    {!Cluster.profile} once for the divergences (the [shard.prefilter]
    span), and every score is {!Cluster.similarity} on its automaton,
    bit-identical to the tree walk. The merge is
    model-to-model: cross-shard cluster pairs are consolidated when
    they are symmetrized-KL nearest neighbours under a saturation cap
    {e and} each side's members clear the other's retention threshold
    under its model (mutual cross-acceptance — the algorithm's own
    membership criterion), merged components' PSTs are counts-added
    ({!Pst.merge}), and only the sequences of merged clusters are
    rescored (against the merged model) in a final membership fix-up
    pass — no full re-scan of the database.

    {b Determinism.} Shard assignment is a pure hash of (run seed,
    sequence id); each shard's RNG seed is derived from (run seed, shard
    index) alone. Results are therefore a function of [(config, shards)]
    only — independent of domain count, pool scheduling, and shard
    completion order. [shards <= 1] delegates to {!Cluseq.run} directly
    and is bit-identical to the unsharded path.

    {b Observability.} Worker-side shard runs record [shard.run] lanes
    in the {!Obs.Recorder} (per-domain rings) and feed the atomic
    counters/histograms; the {!Obs.Journal} (a main-domain single
    writer) is suspended around the fan-out, and the orchestrator
    journals [run.start] ({!Cluseq.journal_start}), [shard.started]
    (with the shard's RNG seed as an exact decimal string, so one
    shard's run can be repeated alone), [shard.merged],
    [shard.consolidated] (absorbed cluster, surviving cluster,
    divergence) and [run.end] ({!Cluseq.finish}) from the main
    domain. *)

val default_merge_divergence : float
(** Symmetrized-KL {e prefilter} cap for consolidation candidates (see
    {!Divergence.kl_profiles}): pairs at or past it are saturated near
    the smoothing ceiling (log(1/p_min) ≈ 6.9) and are never the same
    family. It is not the merge decision — that is the mutual
    cross-acceptance score test (DESIGN.md §14), which carries no
    workload-dependent constant. *)

val shard_of_id : seed:int -> shards:int -> int -> int
(** [shard_of_id ~seed ~shards id] is the deterministic shard of a
    sequence id: a SplitMix64 hash of (seed, id) mod [shards]. Exposed
    for the partitioning tests. *)

val run : ?config:Cluseq.config -> ?shards:int -> Seq_database.t -> Cluseq.result
(** [run ~config ~shards db] clusters [db] with [shards] independent
    CLUSEQ runs fanned out over the {!Par} global pool, then merges.
    [shards <= 1] is exactly [Cluseq.run ~config db]. The merged result
    satisfies every {!Check.result_invariants} property: cluster ids
    are globally renumbered shard-major, member lists stay sorted,
    [best] is rebuilt over the whole database, and
    [assignments]/[outliers] are read from the final clusters' member
    sets by {!Cluseq.finish}. [final_t] is the sequence-weighted mean of the shard
    thresholds, [iterations] the maximum over shards, and [history] is
    empty (per-shard histories do not compose). *)
