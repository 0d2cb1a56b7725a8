(** Runtime invariant checkers and differential oracles for the CLUSEQ
    pipeline (see DESIGN.md §8).

    Each checker returns a list of human-readable violation messages —
    empty means clean — so callers can aggregate, print, or turn them
    into a {!Violation}. The {!install_auditor} entry point wires the
    live checkers into {!Cluseq.run}'s audit hooks; production runs pay
    a single ref read per iteration unless the auditor is installed
    (the [--check] CLI flag). *)

exception Violation of string list
(** Raised by the installed auditor when a checker reports violations.
    Aborts the surrounding run; the messages name every failed
    invariant. *)

val pst_invariants : Pst.t -> string list
(** Structural soundness of a probabilistic suffix tree:
    - the traversal node count equals [Pst.n_nodes], which respects the
      [max_nodes] budget;
    - depths grow by one along edges and never exceed [max_depth]; edge
      symbols are in-alphabet and strictly increasing per node;
    - a child's count never exceeds its parent's, and the children's
      counts sum to at most the parent's (each inserted position bumps
      at most one child per node);
    - [next_total] equals the sum of the next-symbol counters and never
      exceeds the node count;
    - the smoothed distribution sums to 1 (±1e-9) with every entry in
      [[p_min, 1 - (n-1)·p_min]] when smoothing is on, and is exactly
      uniform at nodes with no observations. *)

val result_invariants : n:int -> Cluseq.result -> string list
(** Coherence of a finished run over [n] sequences: unique cluster ids;
    sorted in-range member lists; membership and [assignments] agree in
    both directions; [outliers] is exactly the empty-assignment
    sequences; [best] entries are finite; [models] / [pst_stats] ids
    match the clusters; every final model passes {!pst_invariants}. *)

val cluster_invariants : Cluster.t list -> assignments:int list array -> string list
(** Live variant used by the auditor after each consolidation: bitset
    membership must mirror the assignment lists in both directions — in
    particular no dismissed cluster id survives in any assignment — and
    every surviving cluster's PST passes {!pst_invariants}. *)

val same_bits : float -> float -> bool
(** [same_bits a b] iff [a] and [b] have the same IEEE bits: the
    equality of every exact oracle here. Unlike [Float.equal] and [=],
    it tells -0.0 from +0.0, which a score can be (an empty tree over
    a one-symbol alphabet emits -0.0). *)

val same_result : Similarity.result -> Similarity.result -> bool
(** The same [log_sim] bits ({!same_bits}) and the same segment
    bounds. *)

val reference_recluster :
  Cluseq.recluster_snapshot ->
  (int * Bitset.t) array * int list array * Similarity.result array array
(** Serial reference replay of one reclustering pass from its frozen
    snapshot: visit sequences in the recorded order and score each
    against every cluster's {e current} (evolving) model copy by the
    tree walk — no parallel score matrix, no dirty tracking, no
    automaton — joining, absorbing and recording assignments with the
    engine's exact rules. Returns the per-cluster memberships, the
    per-sequence assignment lists, and the per-cluster, per-sequence
    deciding scores the pass must produce. Because scoring is
    deterministic, the engine's optimized pass (parallel matrix with
    cached score columns + dirty-cluster rescoring on refreshed
    automata) must match this replay bit-for-bit. *)

val recluster_matches :
  Cluseq.recluster_snapshot ->
  after:(int * Bitset.t) array ->
  assignments:int list array ->
  decided:Similarity.result array array ->
  string list
(** Compare the engine's reclustering outcome against
    {!reference_recluster}: memberships, assignment lists, and every
    deciding score ({!same_result}: [log_sim] bits and segment bounds) —
    so a score that moved without flipping a join (it still moves
    [best] and the threshold samples) is caught too. Messages name each
    diverging cluster or sequence; score mismatches beyond the first 10
    of a pass are counted in one closing message. *)

val psa_scoring_matches :
  ?psa:Psa.t -> Pst.t -> log_background:float array -> Sequence.t array -> string list
(** Differential oracle for the compiled scoring automaton [psa]
    (default: {!Psa.compile} of the tree; pass one kept current by
    {!Psa.refresh} to test that instead). Demands the same bits
    ({!same_bits}) in the per-position X_i profiles ({!Similarity.xs}
    vs {!Similarity.xs_psa}), the same maximizing segments and
    log-similarity bits ({!Similarity.score} vs {!Similarity.score_psa}),
    and per-position agreement of the automaton state's depth with
    {!Pst.prediction_node}'s. Run by the fuzz harness on every case,
    against both the unpruned and a pruned tree, and by check #8 on a
    maintained automaton. *)

val psa_tables_match : fresh:Psa.t -> Psa.t -> string list
(** [psa_tables_match ~fresh psa] compares an automaton kept current by
    refresh, patch or recompile with [fresh], a new {!Psa.compile} of
    the same tree, up to the numbering of states (a patch numbers the
    states it adds in the order it adds them). Walking both from state
    0 at once pairs the states reached by the same symbols; the check
    demands the same state count, a pairing that is a bijection
    reaching every state and respected by every transition, and paired
    states with the same prediction depth and bit-equal emission rows.
    Run by the QCheck properties in [test_psa.ml] and by fuzz check #8
    after every insertion. *)

val active_nodes : Pst.t -> int list
(** The reference for reported crossings: the ids of the tree's active
    nodes (the root and every node whose whole root path is
    significant), root first in preorder, found by walking the active
    part of the tree — the walk {!Psa.refresh} made for new contexts
    before {!Pst.insert_segment} reported them. *)

val crossings_match : before:int list -> Pst.t -> Pst.Crossings.t -> string list
(** [crossings_match ~before pst crossings], where [before] is
    {!active_nodes} taken when [crossings] was last empty, demands that
    the buffer hold exactly the nodes active now that were not then,
    each once. Messages name the nodes missed, reported twice, reported
    while active before, or reported but not active (a tail id among
    them). Valid only while {!Pst.grew_only} holds since [before] was
    taken: otherwise ids may have been released and handed out again.
    Run by the crossings property in [test_pst.ml] and by fuzz check #8
    after every insertion. *)

val batch_scoring_matches :
  Pst.t -> log_background:float array -> Sequence.t array list -> string list
(** Differential oracle for the batched kernel: compiles the tree and
    scores each block twice, with {!Similarity.score_batch} and with
    {!Similarity.score_block} into a column at an offset, between cells
    holding a sentinel that must survive; then each lane against
    {!Similarity.score_psa} (a one-lane block on its own scratch),
    pinning lane independence within the kernel's lane pairs, and
    against the tree walk {!Similarity.score}, since every automaton
    side runs the same loop. It demands {!same_result}: the same
    log-similarity bits and segment bounds. All blocks share one scratch
    (created with capacity 1) so lane-reset and resize bugs across block
    boundaries are exercised too. Last, each nonempty lane in turn gets
    the symbol -1 and then the alphabet size as its last symbol, and
    scoring the block must raise [Invalid_argument]. Run by the fuzz
    harness (check #6) on both the unpruned and a pruned tree, with
    blocks that include the empty block, singletons, empty sequences,
    lane pairs of unequal and zero lengths and odd lane counts. *)

val divergence_matches : Pst.t -> Pst.t -> string list
(** Differential oracle for {!Divergence}'s profiles: for both argument
    orders, {!Divergence.variational_profiles} and
    {!Divergence.kl_profiles} over the two trees' profiles must equal
    {!Ref_divergence}'s tree walk bit for bit. Run by fuzz check #9 on
    every pair of a case's full, pruned, merged and budget-bound
    trees. *)

val cache_agrees : ?config:Cluseq.config -> Seq_database.t -> string list
(** Differential oracle for the score-column cache
    ({!Cluster.score_cache}): run {!Cluseq.run} with the cache switched
    off, then on, and demand identical clusters, assignments, [best]
    scores, iteration counts and [final_t], and per iteration the same
    census once [pairs_reused] is added to [pairs_scored]
    ([score_calls], which counts fresh evaluations only, is left out).
    Messages name each difference. Restores the cache switch on exit.
    Run by fuzz check #5. *)

val auditor : unit -> Cluseq.auditor
(** An auditor running {!recluster_matches} after every reclustering
    pass and {!cluster_invariants} after every consolidation, raising
    {!Violation} on the first report. *)

val install_auditor : unit -> unit
(** [Cluseq.set_auditor (Some (auditor ()))]. *)

val uninstall_auditor : unit -> unit
(** Clear the hook; runs go back to paying one ref read per iteration. *)
