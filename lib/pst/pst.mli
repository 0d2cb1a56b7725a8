(** Probabilistic suffix trees (paper Sec. 3).

    A PST organizes the conditional probability distribution (CPD) of the
    next symbol given a preceding segment, for one sequence cluster. The
    tree is built over {e reversed} contexts: the node reached from the root
    along symbols {m s_{i-1}, s_{i-2}, \ldots} carries the label
    {m s_j \ldots s_{i-1}} (read in original order), its occurrence count
    {m C}, and a next-symbol count vector from which the probability vector
    {m P(s \mid label)} is derived as {m C(label\,s)/\sum_x C(label\,x)}.

    Prediction of {m P(s_i \mid s_1 \ldots s_{i-1})} walks from the root
    along {m s_{i-1}, s_{i-2}, \ldots}, descending only into
    {e significant} nodes (count {m \ge c}); the deepest node reached is the
    {e prediction node} — the longest significant suffix of the context.

    Trees are memory-bounded: when the node count exceeds the budget the
    tree prunes itself using a {!Pruning.strategy} (paper Sec. 5.1).
    Probability reads are smoothed with the {m p_{min}} adjustment of paper
    Sec. 5.2 so no symbol ever has probability zero. *)

type config = {
  alphabet_size : int;  (** |Σ|; symbol codes must lie in [\[0, n)]. *)
  max_depth : int;  (** Maximum context length L (short-memory bound). *)
  significance : int;  (** The significance threshold [c] (paper: ≥ 30). *)
  max_nodes : int;  (** Node budget; the tree prunes itself beyond this. *)
  p_min : float;
      (** Smoothing floor: adjusted probability is
          [(1 - n·p_min)·p + p_min]. [0.] disables smoothing. *)
  pruning : Pruning.strategy;  (** Policy applied when over budget. *)
}

val default_config : alphabet_size:int -> config
(** Sensible defaults: [max_depth = 10], [significance = 30],
    [max_nodes = 20_000], [p_min] clamped to [min 1e-3 (1/(4·n))],
    [pruning = Smallest_count_first]. *)

type t
(** A mutable probabilistic suffix tree. *)

type node
(** A node of the tree (opaque; obtained from walks or lookups). *)

val create : config -> t
(** An empty tree (root only, count 0). Raises [Invalid_argument] on
    non-positive [alphabet_size], [max_depth], [significance], or a
    [max_nodes < 1], or [p_min] outside [\[0, 1/n\]). *)

val config : t -> config
(** The construction-time configuration. *)

val n_nodes : t -> int
(** Number of nodes, root included. *)

val total_count : t -> int
(** The root count: total number of symbol positions inserted — "the overall
    size of the sequence cluster" (paper Sec. 3). *)

val insert_sequence : t -> Sequence.t -> unit
(** [insert_sequence t s] adds every context of [s] (up to [max_depth]) with
    its next-symbol observation, updating counts and probability vectors
    incrementally. May trigger pruning. *)

val insert_segment : t -> Sequence.t -> lo:int -> hi:int -> unit
(** [insert_segment t s ~lo ~hi] inserts the segment [s.(lo) .. s.(hi)]
    (inclusive) as if it were a standalone sequence — the cluster-update
    primitive of paper Sec. 4.4 (only the best-matching segment of a joining
    sequence is inserted). Raises [Invalid_argument] on bad bounds. *)

val root : t -> node
(** The root node (empty label). *)

val node_count : node -> int
(** Occurrence count {m C} of the node's label. *)

val node_depth : node -> int
(** Label length. *)

val is_significant : t -> node -> bool
(** [count >= significance]; the root is always significant. *)

val active_changes : t -> int
(** A counter that moves whenever the tree's set of active contexts
    (nodes whose whole root path is significant) may have changed: a
    non-root node's count reaching [significance] during
    {!insert_segment}, or pruning detaching a node whose count is at
    least [significance]. While it holds still, only counts have
    changed — the structure a compiled automaton is built from is
    intact, so {!Psa.refresh} may rewrite its rows in place. *)

val prediction_node : t -> Sequence.t -> lo:int -> pos:int -> node
(** [prediction_node t s ~lo ~pos] is the prediction node for the context
    [s.(lo) .. s.(pos-1)]: walk backwards from [s.(pos-1)], descending only
    into significant children, stopping after [max_depth] steps or when the
    context is exhausted. [pos = lo] yields the root. *)

val next_log_prob : t -> node -> int -> float
(** [next_log_prob t node sym] is {m \log \hat P(sym \mid label(node))}
    with the [p_min] adjustment applied. A node with no next observations
    yields the uniform [log (1/n)]. Equal to
    [smoothed_log_prob t ~count:(next_count node sym) ~total:(next_total node)]. *)

val smoothed_log_prob : t -> count:int -> total:int -> float
(** [smoothed_log_prob t ~count ~total] is the log of the smoothed
    probability of a symbol observed [count] times among [total] next
    observations ([log (1/n)] when [total = 0]) — the single formula
    behind {!next_log_prob} and {!Psa}'s emission rows, so both produce
    the same float from the same counters. *)

val log_prob : t -> Sequence.t -> lo:int -> pos:int -> float
(** [log_prob t s ~lo ~pos] is
    {m \log \hat P(s_{pos} \mid s_{lo} \ldots s_{pos-1})} via
    {!prediction_node} + {!next_log_prob} — the unified two-step estimation
    procedure of paper Sec. 3. *)

val find_node : t -> Sequence.t -> node option
(** [find_node t label] locates the node with exactly this label (walking
    without the significance restriction); intended for tests and
    inspection. *)

val next_count : node -> int -> int
(** [next_count node sym] is the raw count {m C(label\,sym)}. *)

val next_total : node -> int
(** Sum of next-symbol counts at the node. Insertions only ever add to
    it, so an unchanged [next_total] means unchanged next counters. *)

val iter_next_counts : node -> (int -> int -> unit) -> unit
(** [iter_next_counts node f] calls [f sym count] for every symbol with a
    next-symbol counter at the node, in increasing symbol order; absent
    symbols have count [0]. *)

val node_children : node -> (int * node) list
(** [(edge symbol, child)] pairs in increasing symbol order — the walk
    primitive of the {!module:Check}-style invariant checkers (a child's
    label is [symbol · label(parent)]). *)

val copy : t -> t
(** [copy t] is a deep, independent copy with identical structure,
    counts, and internal storage order: every subsequent operation
    (scoring, pruning) behaves bit-identically on the copy. Used by the
    correctness oracles to snapshot a model before replaying mutations. *)

val merge : t -> t -> t
(** [merge a b] is a new tree (inputs untouched) whose counts are the
    node-by-node sum of [a] and [b] over the union of their node sets —
    the counts a single tree would have accumulated had it seen both
    databases, up to pruning. Because node storage is key-sorted, the
    result is independent of argument order: merge is commutative and
    associative under {!equal_structure} when no pruning fires. The
    merged tree re-prunes itself if the union exceeds [max_nodes].
    Raises [Invalid_argument] when the configs differ. *)

val next_distribution : t -> node -> float array
(** The full smoothed probability vector at a node (length |Σ|). *)

val prune_to : t -> int -> unit
(** [prune_to t target] prunes nodes (never the root) until
    [n_nodes t <= target], using the configured strategy. *)

type stats = {
  nodes : int;
  significant_nodes : int;
  max_depth_used : int;
  approx_bytes : int;  (** Rough in-memory footprint estimate. *)
}

val stats : t -> stats
(** Structural statistics, used by the Figure 4 bench. *)

val iter_nodes : t -> (node -> unit) -> unit
(** Depth-first iteration over all nodes (root first). *)

val node_label : t -> node -> int list
(** The node's label in original (unreversed) symbol order; for tests. *)

val to_channel : out_channel -> t -> unit
(** [to_channel oc t] writes a complete textual serialization of the tree
    (config, counts, next-symbol counters). The format is line-based,
    versioned, and stable across sessions. *)

val of_channel : in_channel -> t
(** [of_channel ic] reads a tree written by {!to_channel}. Raises
    [Failure] on malformed input or an unsupported version. *)

val to_string : t -> string
(** In-memory {!to_channel}: the same line-based format as a string. *)

val of_string : string -> t
(** In-memory {!of_channel}. Raises [Failure] on malformed input. Note
    that counts are restored {e verbatim} — a tampered serialization
    yields a structurally valid but semantically corrupt tree, which is
    exactly what [Check.pst_invariants] exists to catch. *)

val equal_structure : t -> t -> bool
(** [equal_structure a b] iff both trees have identical configs, node
    sets, counts, and next-symbol counters — serialization round-trip
    checks. *)

val pp :
  ?max_depth:int ->
  ?min_count:int ->
  symbol:(Format.formatter -> int -> unit) ->
  Format.formatter ->
  t ->
  unit
(** [pp ~symbol fmt t] renders the tree in the style of the paper's
    Figure 1: one line per node with its label, count, significance mark,
    and next-symbol probability vector (most probable first). [max_depth]
    (default 3) and [min_count] (default 1) bound the output. *)
