(** Node-pruning strategies for memory-bounded probabilistic suffix trees
    (paper Sec. 5.1).

    When a PST outgrows its memory budget, nodes must be dropped. The paper
    proposes three strategies, compared by the [ablation] bench. Each
    orders the nodes below the root by a key, and pruning to a target
    removes the first [n_nodes - target] nodes of that order:

    - {b Smallest-count-first}: nodes with small occurrence counts are the
      least likely to ever become significant, so losing them costs little.
      Key: count, then the deeper node first.
    - {b Longest-label-first}: by the short-memory property, deep contexts
      contribute least to prediction accuracy. Key: the deeper node
      first, then count.
    - {b Expected-vector-first}: the insignificant nodes first, ordered
      as by smallest-count-first, then every significant node, all
      tied. The paper's rule for the significant nodes (drop those whose
      conditional distribution is closest to their parent's) is not
      applied: the significant nodes are ordered by the tie rule alone.

    Among equal keys the node later in the tree's depth-first preorder
    (children by symbol: the line order of {!Pst.to_string}) goes
    first, so the order depends only on the tree's contents. *)

type strategy =
  | Smallest_count_first
  | Longest_label_first
  | Expected_vector_first

val to_string : strategy -> string
(** Stable lowercase name, e.g. ["smallest-count"]. *)

val of_string : string -> strategy option
(** Inverse of {!to_string}. *)

val all : strategy list
(** Every strategy, for sweeps. *)
