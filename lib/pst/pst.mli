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
(** A mutable probabilistic suffix tree. Its storage grows into arrays
    that trees on the same domain outgrew, when one of the length it
    needs is spare, and into fresh ones otherwise; the tree's capacities
    and contents are the same either way. *)

type node = private int
(** A node's id, valid only with the tree it came from (obtained from
    walks or lookups). Most nodes are slots of the tree's storage: a slot
    keeps its id for as long as it stays in the tree, and pruning hands
    the slots of the nodes it removes to later insertions. A chain of
    contexts that share one set of occurrences, below significance, is
    kept as one {e tail} hanging from a slot (its head), which holds the
    chain's one count and next counters; a node on a tail has an id past
    every slot, derived from its head and its place below it: such an id
    is valid only until the tree next changes. Tails exist only when
    [significance >= 2], and no tail node reaches it, so a significant
    node, and with it every node {!prediction_node} returns or an
    automaton predicts from, is always a slot. Every accessor answers for
    both kinds alike. *)

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

(** A buffer of {e crossings}, owned by the caller of {!insert_segment}:
    the nodes whose count reached [significance] during the insertions it
    was given to, in the order they crossed, each once. Every one is a
    slot (a walk bumps a head without splitting it only while the head
    stays below significance, so the node that crosses may be a slot a
    split has just made; no tail node is ever significant). An id stays valid while {!grew_only} holds since the
    buffer was last emptied: a crossed node is significant, and only
    pruning a significant node can release it. The buffer grows its
    storage at the first crossing, so one that saw none holds none.
    {!Psa.refresh} reads it to patch the new contexts into an automaton;
    [Cluster] keeps one per cluster, and only the task that mutates the
    cluster's tree touches it. *)
module Crossings : sig
  type t

  val create : unit -> t
  (** An empty buffer. *)

  val length : t -> int
  (** The number of crossings reported since it was created or last
      {!clear}ed. *)

  val get : t -> int -> node
  (** [get b i] is the [i]-th crossing, oldest first. Raises
      [Invalid_argument] outside [\[0, length b)]. *)

  val clear : t -> unit
  (** Forget every crossing, keeping the storage. *)
end

val insert_segment : ?crossings:Crossings.t -> t -> Sequence.t -> lo:int -> hi:int -> unit
(** [insert_segment t s ~lo ~hi] inserts the segment [s.(lo) .. s.(hi)]
    (inclusive) as if it were a standalone sequence — the cluster-update
    primitive of paper Sec. 4.4 (only the best-matching segment of a joining
    sequence is inserted). Allocates nothing per symbol (a walk that
    creates a node keeps the rest of the walk as a tail; one that
    retraces a whole tail, while its count stays below significance,
    bumps its head, and any other splits it only along the part it
    shares); records the
    [pst.insert_seconds] histogram (pruning included), and counts every
    node it creates, tail nodes included, in [pst.node_creations]. Each
    node whose count reaches [significance] bumps {!active_changes} and,
    when [crossings] is given, is appended to it at that moment: the
    buffer holds slot ids, valid while {!grew_only} holds (pruning at the
    end of the insertion may already have released them otherwise).
    Raises [Invalid_argument], leaving the tree untouched, on bad bounds
    or a symbol outside [\[0, alphabet_size)]. *)

val root : t -> node
(** The root node (empty label). *)

val node_count : t -> node -> int
(** Occurrence count {m C} of the node's label. *)

val node_depth : t -> node -> int
(** Label length. *)

val is_significant : t -> node -> bool
(** [count >= significance]; the root is always significant. *)

val active_changes : t -> int
(** A counter that moves whenever the tree's set of active contexts
    (nodes whose whole root path is significant) may have changed: a
    non-root node's count reaching [significance] during
    {!insert_segment}, or pruning detaching a node whose count is at
    least [significance] (see {!grew_only}). While it holds still, only
    counts have changed — the structure a compiled automaton is built
    from is intact, so {!Psa.refresh} may rewrite its rows in place. *)

val grew_only : t -> since:int -> bool
(** [grew_only t ~since:c], for a value [c] that {!active_changes}
    returned earlier, is [true] when pruning has detached no significant
    node since: the active set can only have gained contexts, which
    {!Psa.refresh} follows by adding states. *)

val node_id_bound : t -> int
(** An exclusive upper bound on the tree's slot ids: every slot, cast to
    [int], lies in [\[0, node_id_bound t)]; tail nodes lie above it.
    Sizes arrays indexed by the ids of significant nodes, which are all
    slots ({!Psa.refresh}'s patch indexes nothing else). *)

val prediction_node : t -> Sequence.t -> lo:int -> pos:int -> node
(** [prediction_node t s ~lo ~pos] is the prediction node for the context
    [s.(lo) .. s.(pos-1)]: walk backwards from [s.(pos-1)], descending only
    into significant children, stopping after [max_depth] steps or when the
    context is exhausted. [pos = lo] yields the root. *)

val next_log_prob : t -> node -> int -> float
(** [next_log_prob t node sym] is {m \log \hat P(sym \mid label(node))}
    with the [p_min] adjustment applied. A node with no next observations
    yields the uniform [log (1/n)]. Equal to
    [smoothed_log_prob t ~count:(next_count t node sym) ~total:(next_total t node)]. *)

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
    without the significance restriction); for tests and inspection. *)

val parent : t -> node -> node
(** The tree parent: the node whose label is this one's minus its
    {e oldest} symbol. The root is its own parent. *)

val edge_symbol : t -> node -> int
(** The symbol on the edge from the parent, which is the label's oldest
    symbol; [-1] at the root. *)

val drop_newest : t -> node -> node option
(** [drop_newest t n] is the node whose label is [n]'s minus its
    {e newest} symbol — the root when [n] has depth 1 — if the tree holds
    it; [None] at the root. Found by climbing from [n] and descending
    back, in O(depth) child lookups, allocation-free but for the
    option; {!Psa.refresh}'s patch reads it for each new context. *)

val next_count : t -> node -> int -> int
(** [next_count t node sym] is the raw count {m C(label\,sym)}. *)

val next_total : t -> node -> int
(** Sum of next-symbol counts at the node. Insertions only ever add to
    it, so an unchanged [next_total] means unchanged next counters. *)

val iter_next_counts : t -> node -> (int -> int -> unit) -> unit
(** [iter_next_counts t node f] calls [f sym count] for every symbol with
    a next-symbol counter at the node, in increasing symbol order; absent
    symbols have count [0]. *)

val iter_children : t -> node -> (int -> node -> unit) -> unit
(** [iter_children t node f] calls [f sym child] for every child in
    increasing edge-symbol order — the walk primitive of the
    {!module:Check}-style invariant checkers and of {!Psa.compile} (a
    child's label is [sym · label(node)]). A head's one child, and a tail
    node's, is the next node of its tail; [f] must not change the tree. *)

val copy : t -> t
(** [copy t] is an independent copy made by blitting the tree's storage:
    same node ids, counts, tails and free slots, so every subsequent
    operation (scoring, insertion, pruning) behaves bit-identically on
    the copy.
    Used by the correctness oracles to snapshot a model before replaying
    mutations. *)

val merge : t -> t -> t
(** [merge a b] is a new tree (inputs untouched): a {!copy} of [a] into
    which a walk of [b] adds every node's counts, creating the nodes [a]
    lacks — the node-by-node sum over the union of both node sets, i.e.
    the counts a single tree would have accumulated had it seen both
    databases, up to pruning. Children and next counters are kept in
    symbol order, so the result is independent of argument order: merge
    is commutative and associative under {!equal_structure} when no
    pruning fires. The merged tree re-prunes itself if the union exceeds
    [max_nodes]. [b]'s tail nodes are added one by one like any other
    node, until a node the merge creates takes the rest of the tail
    whole, with its count and next counters. Merged counts
    are not crossings: the result's {!active_changes} is [a]'s until it
    prunes, and no {!Crossings} buffer hears of them (compile the result
    afresh). Raises [Invalid_argument] when the configs differ. *)

val next_distribution : t -> node -> float array
(** The full smoothed probability vector at a node (length |Σ|). *)

val prune_to : t -> int -> unit
(** [prune_to t target] removes the first [n_nodes t - max 1 target]
    nodes below the root in the configured strategy's order (see
    {!Pruning}: its key, then the later node in depth-first preorder
    first), leaving exactly [max 1 target] nodes when there were more.
    A child always comes before its parent in that order, so the removed
    nodes are whole subtrees. The order depends only on the tree's
    contents: the nodes removed are those of the same tree held as
    slots, and those [Ref_prune] finds on its serialization. Each
    pruning that removes anything is timed into the [pst.prune_seconds]
    histogram, including the ones {!insert_segment} and {!merge} run
    when over budget. *)

type stats = {
  nodes : int;
  significant_nodes : int;
  max_depth_used : int;
  approx_bytes : int;
      (** Heap bytes of the tree's storage arrays, spare capacity
          included. *)
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
    [Failure] on malformed input or an unsupported version, including a
    symbol outside the configured alphabet (in a path or a next entry),
    a negative count, or a next symbol listed twice on one node. *)

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
