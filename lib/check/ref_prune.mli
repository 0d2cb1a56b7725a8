(** Reference implementation of the pruning order, on the serialization
    alone: the differential oracle for {!Pst.prune_to}, which selects its
    victims instead of sorting every node.

    It reads {!Pst.to_string}'s node lines (a node's depth is the length
    of its path, its count the line's second field), sorts the lines
    below the root stably by the configured strategy's key with the
    later line first among equal keys, drops the first [n_nodes - target]
    and keeps the rest in their order. The keys, smallest dropped first:
    - [smallest-count]: count, then the deeper node first;
    - [longest-label]: the deeper node first, then count;
    - [expected-vector]: like [smallest-count] over the nodes whose count
      is under the significance, every other node tied after them.

    [Pst.to_string] of a tree pruned to [target] must equal
    [prune (Pst.to_string t) ~target] byte for byte (the QCheck property
    in [test_pst] and the fuzz harness's pruned copy). *)

val prune : string -> target:int -> string
(** [prune s ~target] is the serialization [s] of a tree as it must read
    after {!Pst.prune_to} [t target]: unchanged when the tree has at most
    [max 1 target] nodes. Raises [Failure] on a malformed serialization. *)
