(** Compiled probabilistic suffix automaton (PSA): a frozen PST flattened
    into dense struct-of-arrays tables for O(L) scoring.

    {!Pst.log_prob} re-walks the tree from the root on every position —
    O(depth) child-list scans plus a fresh smoothing computation and
    [log] per read. {!compile} performs that
    work once: the prediction node for a history is its longest {e
    active} suffix (a node whose entire root path is significant —
    exactly what {!Pst.prediction_node}'s greedy walk returns), so the
    automaton is the Aho–Corasick machine of the active labels written
    oldest-symbol-first — active nodes plus the prefix-closure states a
    pruned tree needs — with failure links resolved into a dense
    [state × symbol → state] transition table (each entry the next
    state's row offset, [state * |Σ|]) and the smoothed
    log-probabilities of each state's prediction node precomputed with
    the formula {!Pst.next_log_prob} itself applies
    ({!Pst.smoothed_log_prob}). Scoring then advances one state and
    reads one float per symbol, with no allocation and no [log], in one
    of two scans: {!score_into}, a block scan that computes
    log-similarities only, four lanes in flight and refilled from the
    block, and {!segment_into}, one lane that also tracks the best
    segment's bounds, for absorbs (see Batch scoring below).

    The tables are {!Bigarray.Array1} blocks, i.e. {e off the OCaml
    heap}: the GC neither scans nor moves them, so a compiled automaton
    adds nothing to minor-collection work, and [Par] worker domains read
    the same flat block without copies (Bigarray payloads are unboxed C
    buffers, immune to the per-domain minor heaps). They snapshot the
    tree at compile time: any later mutation of the source PST
    (insertion, pruning) makes the automaton stale until it is brought
    up to date — in place by {!refresh} when the mutation only moved
    counts or added active contexts, by a fresh {!compile} when it
    removed one (see {!Cluster.compile}).

    Equality contract: for every sequence, scanning the automaton yields
    {e bit-for-bit} the floats of the tree walk (same prediction node per
    position, same precomputed [log]) — a float64 Bigarray cell stores
    the exact IEEE double written into it; the property tests and the
    fuzz harness enforce exact float equality, not within-epsilon. A
    refreshed automaton is, table for table, the automaton a fresh
    {!compile} would build, up to the numbering of its states. See
    DESIGN.md §9 and §13. *)

type t
(** A compiled automaton. Only {!refresh} mutates it: it rewrites
    emission rows and may add states, growing the tables, together
    with the transitions into the new states. *)

type trans_table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap dense transition table. *)

type emit_table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap emission (log-probability) table. *)

val compile : Pst.t -> t
(** [compile pst] builds the automaton for the tree's current state in
    O(states · |Σ|) time and space. Records the
    [similarity.compile_seconds] histogram and the [pst.compilations] /
    [pst.compiled_states] / [pst.compiled_table_bytes] counters (all
    atomic, so any domain may compile), which count full compiles only:
    states a {!refresh} patches in are not. The result may be read from
    any domain. *)

val refresh : ?crossings:Pst.Crossings.t -> t -> Pst.t -> bool
(** [refresh ?crossings t pst] brings [t] up to date with [pst] in
    place, provided [pst] is (physically) the tree [t] was compiled from
    and its set of active contexts has at most grown since:
    - If the set held still ({!Pst.active_changes} unchanged), only
      counts moved, and [crossings] is not read.
    - If contexts turned active, [crossings] must hold them: every
      crossing the insertions into [pst] reported since [t] was last
      brought current (by {!compile} or a successful [refresh]), and
      nothing else — the caller passes one buffer to each of those
      {!Pst.insert_segment}s and empties it once [t] is current again,
      whatever this returns (default: an empty buffer). If none was
      pruned ({!Pst.grew_only}), the buffer holds as many crossings as
      {!Pst.active_changes} moved by, [t] has no closure states and
      every new context's label minus its newest symbol is active,
      [refresh] {e patches} [t]: it adds one state per crossing,
      shallowest first, and redirects the transitions that now reach
      them (DESIGN.md §9). Per new state that copies a row and sweeps
      one subtree; no other part of the tree is walked. It bumps the
      [pst.patches] counter once.

    It then rewrites the emission rows whose prediction node's
    next-symbol counts moved, with the row routine {!compile} uses, so
    the automaton equals what a fresh compile would build up to the
    numbering of its states (the new states come last); it bumps the
    [pst.refreshes] counter once and returns [true]. Otherwise — another
    tree, a copy included, a pruned significant node, a buffer that
    misses crossings, or a new context that would need a closure state —
    it touches nothing and returns [false], and the caller must
    recompile. Costs O(states), plus O(|Σ|) per rewritten row; timed
    into the [similarity.refresh_seconds] histogram. [t] must not be
    scanned while it is refreshed. *)

val alphabet_size : t -> int
(** |Σ| of the source tree; symbols fed to the scan must lie in
    [\[0, n)]. *)

val n_states : t -> int
(** Number of automaton states (a compile reports it in the
    [pst.compiled_states] counter): the active node count, plus on a
    pruned tree the closure states for contexts whose own node was
    removed while a longer extension survived. A patch adds one state
    per new active context. *)

val transitions : t -> trans_table
(** The dense transition table over the [n_states] states in use, as a
    view of the automaton's table (a patched table carries spare rows),
    row-major: entry [state * n + sym] is the row offset [next * n] of
    the state [next] reached after emitting [sym] — the prediction state
    for the context extended by [sym]. Premultiplied offsets make the
    scans' state chain one add and one load per symbol. Read-only;
    exposed for the table-shape tests — scans go through {!score_into}
    and {!segment_into}, and {!step} reads states. *)

val emissions : t -> emit_table
(** The precomputed emission table over the states in use, a view like
    {!transitions}, row-major: entry [state * n + sym] is
    {!Pst.next_log_prob} of the state's tree node for [sym] — bit-equal
    to what the tree walk would return. Background subtraction is {e
    not} folded in, so one automaton stays valid across
    background-vector refreshes (the streaming mode re-estimates its
    background). *)

val step : t -> int -> int -> int
(** [step t state sym] is the bounds-checked ([Invalid_argument] outside
    [n_states] or the alphabet) single transition: the state whose row
    offset [transitions t].{[state * n + sym]} holds — the convenience
    read for tests and oracles that re-walk the automaton one symbol at
    a time. *)

val emission : t -> int -> int -> float
(** [emission t state sym] is the bounds-checked emission table read at
    [state * n + sym]. *)

val prediction_depth : t -> int -> int
(** [prediction_depth t i] is the depth (context length) of the tree
    node state [i] predicts from — what {!Pst.node_depth} of
    {!Pst.prediction_node} returns on the equivalent history. State [0]
    is the root (depth 0). Exposed so tests can assert the automaton
    tracks the tree walk exactly. *)

val table_bytes : t -> int
(** Bytes the automaton's states in use hold: transitions and emissions
    off-heap, plus one word per state in each of the two side arrays
    (prediction node, and its next-symbol total when the row was
    written). Spare rows a patch left are not counted. *)

(** {1 Batch scoring}

    Two Kadane scans run over an automaton, both C loops
    ([psa_stubs.c]) that keep the state and the accumulators in
    registers, replace the scan's two branches by selects and allocate
    nothing: {!score_into}, the block scan, computes log-similarities
    only, and {!segment_into}, one lane at a time, also tracks the best
    segment's bounds. They perform the same float operations in the same
    order, so a lane's log-similarity is bit-for-bit the same in both,
    and both are the tree walk's ([Similarity.score]) on the same
    sequence, signed zeros included, whenever [log_background] passes
    [Similarity.validate_log_background] (DESIGN.md §13): a NaN X_i,
    which only an invalid background can produce, sticks in the running
    sum here where the tree walk resets past it. Clustering decides joins
    and classifiers verdicts on log-similarities alone; only an absorb
    needs the segment, so it scans the one lane it inserts. *)

val score_into :
  t -> log_background:float array -> Sequence.t array -> at:int -> log_sim:float array -> unit
(** [score_into t ~log_background seqs ~at ~log_sim] runs the automaton
    over every sequence of the block and writes lane [j]'s
    log-similarity at index [at + j] of [log_sim], a column the caller
    owns, touching no other index. Four lanes are in flight at once, and
    a lane that finishes hands its slot to the block's next lane, so
    four dependency chains overlap whatever the lanes' lengths; once
    fewer than four remain, each runs to its end alone. Every lane
    performs its own operations in the one-lane order, so its result
    does not depend on its offset, slot or block. Empty lanes yield
    [neg_infinity]. Disjoint offsets may be written from several domains
    at once.

    Raises [Invalid_argument] if [at < 0] or [log_sim] is shorter than
    [at + Array.length seqs] (before any write), if [log_background] is
    shorter than the alphabet, or if any symbol lies outside
    [\[0, alphabet_size)] (the column is then written only in part). *)

val segment_into :
  t ->
  log_background:float array ->
  Sequence.t ->
  at:int ->
  log_sim:float array ->
  seg_lo:int array ->
  seg_hi:int array ->
  unit
(** [segment_into t ~log_background s ~at ~log_sim ~seg_lo ~seg_hi]
    scans the one lane [s] and writes its log-similarity and its best
    segment's bounds at index [at] of the three columns, the only place
    bounds are computed. The log-similarity has {!score_into}'s bits; an
    empty lane yields [neg_infinity] with bounds [-1,-1]. Raises
    [Invalid_argument], writing nothing, if [at] is outside a column, if
    [log_background] is shorter than the alphabet, or if a symbol lies
    outside [\[0, alphabet_size)]. *)

type batch
(** A reusable scratch for {!score_batch}: per lane, the log-similarity
    and the segment bounds, held in pre-sized unboxed arrays so a scan
    allocates nothing per symbol or per lane. One [batch] is
    single-owner mutable state — never shared concurrently. *)

val batch_create : ?capacity:int -> unit -> batch
(** A fresh scratch sized for [capacity] lanes (default 64); grows
    geometrically on demand inside {!score_batch}. *)

val batch_capacity : batch -> int
(** Current lane capacity (for tests). *)

val score_batch : t -> log_background:float array -> batch:batch -> Sequence.t array -> unit
(** [score_batch t ~log_background ~batch seqs] runs {!segment_into} on
    every lane, lane [j] at index [j] of [batch], grown first to the
    block's size if needed. Results are read back with {!batch_log_sim}
    / {!batch_seg_lo} / {!batch_seg_hi} at the lane's index in [seqs].
    Raises [Invalid_argument] as {!segment_into} does (the lanes before
    a bad one are then written). *)

val batch_log_sim : batch -> int -> float
(** [batch_log_sim b j] is the log-similarity of lane [j] from the last
    {!score_batch} call on [b]. *)

val batch_seg_lo : batch -> int -> int
(** Start index of lane [j]'s winning segment. *)

val batch_seg_hi : batch -> int -> int
(** End index (inclusive) of lane [j]'s winning segment. *)
