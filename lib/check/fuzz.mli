(** Deterministic fuzz harness cross-checking every correctness oracle.

    Each case is generated from a single seed ([Rng.create seed], case
    [i] of a run uses [seed + i]) and drives a random workload through
    the full pipeline:

    - builds a {!Pst} and a {!Ref_pst} from the same insertions and
      demands exact structural and probability agreement, then prunes
      a copy of the tree to half its nodes, re-checks
      {!Check.pst_invariants} and demands that the copy's serialization
      equal {!Ref_prune.prune} of the unpruned tree's;
    - compares the Kadane similarity scan against the O(l²) brute-force
      reference on every probe;
    - on the unpruned tree and the pruned copy, scores every probe by
      the compiled automaton and by the tree walk
      ({!Check.psa_scoring_matches}), and scores blocks of 0 to 9
      lanes of unequal and zero lengths by the block scan into a column
      at an offset, against each lane scanned alone, the segment loop
      and the tree walk, and
      demands that a symbol out of the alphabet in any lane raise
      ({!Check.batch_scoring_matches}, check #6);
    - streams segments into two trees, one under a node budget that
      forces pruning and one that never prunes, while one automaton per
      tree is kept current by {!Psa.refresh} or recompile (check #8),
      each insertion reporting its crossings to a buffer per tree.
      On the tree that never prunes every crossing must be patched, so
      a refused refresh fails the case. After every insertion that
      pruned no significant node, the buffer must hold exactly the
      nodes the active-tree walk finds new ({!Check.crossings_match});
      and each automaton must equal a fresh {!Psa.compile} up to state
      numbering ({!Check.psa_tables_match}) and score like the tree
      walk ({!Check.psa_scoring_matches});
    - measures every pair of the full, pruned, merged and budget-bound
      trees with {!Divergence}'s profiles and demands the tree-walk
      reference's floats bit for bit ({!Check.divergence_matches},
      check #9);
    - builds a tree from random segments, each inserted twice, under a
      node budget that forces pruning, with significance at least 2 so
      that chains of contexts seen alike are kept as tails (the second
      insertion retraces them), and reloads it from its serialization,
      which holds every node as a slot; fed the same segments and
      merged both ways with a third tree, the two must
      keep the same serialization, node count and [active_changes]
      moves (check #10);
    - runs {!Cluseq.run} at 1 and at 4 domains with the
      {!Check.auditor} installed (a serial reclustering replay of
      memberships, assignments and deciding scores, plus live
      invariants every iteration) and demands structurally identical
      results — the determinism contract of the domain pool — then
      repeats the pair under a [max_nodes] budget of half the largest
      unpruned model, so PST pruning runs inside the per-cluster apply
      tasks (and must remove at least one node);
    - classifies probes at both domain counts and compares verdicts;
    - round-trips every final model through the textual serialization;
    - runs the audited clustering with the score-column cache off and
      on and demands the same results and census
      ({!Check.cache_agrees}, check #5).

    On failure the workload is shrunk greedily (drop whole sequences,
    then halve survivors) while it still fails, and the report carries a
    replay seed: [cluseq check --fuzz 1 --seed <replay>] regenerates
    and re-runs the original failing case. *)

type case = {
  case_seed : int;  (** The generation seed; replays the case exactly. *)
  alphabet_size : int;
  seqs : Sequence.t array;  (** The workload to cluster. *)
  probes : Sequence.t array;  (** Held-out sequences to classify. *)
  cluseq_cfg : Cluseq.config;
}
(** A self-contained fuzz case. *)

type failure = {
  f_index : int;  (** Which case of the run failed (0-based). *)
  f_replay_seed : int;  (** Pass as [--seed] with [--fuzz 1] to replay. *)
  f_messages : string list;  (** The oracle mismatches, deduplicated. *)
  f_case : case;  (** The shrunk (minimized) failing case. *)
}

val gen_case : seed:int -> case
(** Deterministically generate a case from its seed: alphabet size 1–5
    (one symbol makes an empty tree's X_i −0.0, the kernel's
    signed-zero edge),
    4–16 sequences of length 0–24 (empty sequences included, to exercise
    the [empty_result] paths), small PST/clustering parameters, and a
    node budget high enough that the differential oracle's no-pruning
    requirement holds. *)

val run_case : case -> string list
(** Run every oracle over one case; the (possibly empty) list of
    mismatch messages. Temporarily installs the {!Check} auditor and
    switches the default domain count; both are restored on exit. A
    {!Check.Violation} the auditor raises is caught and reported among
    the messages; any other exception but [Out_of_memory] and
    [Sys.Break] ends the case with a message naming the check and it. *)

val shrink : case -> still_fails:(case -> bool) -> case
(** Greedy, budget-capped minimization: repeatedly drop a sequence or
    halve one while the predicate still fails. *)

val run : ?progress:(int -> unit) -> n:int -> seed:int -> unit -> (int, failure) result
(** [run ~n ~seed ()] executes cases [seed, seed+1, …, seed+n-1],
    stopping at the first failure (shrunk before reporting).
    [progress] is called with each completed case index. [Ok n] when
    every case passes. *)

val pp_failure : Format.formatter -> failure -> unit
(** Human-readable report: messages, the minimized workload (decoded),
    and the replay command line. *)
