(** Deterministic fuzz harness cross-checking every correctness oracle.

    Each case is generated from a single seed ([Rng.create seed], case
    [i] of a run uses [seed + i]) and drives a random workload through
    the full pipeline:

    - builds a {!Pst} and a {!Ref_pst} from the same insertions and
      demands exact structural and probability agreement, then prunes
      the tree and re-checks {!Check.pst_invariants};
    - compares the Kadane similarity scan against the O(l²) brute-force
      reference on every probe;
    - streams segments into a tree under a node budget that forces
      pruning while one automaton is kept current by {!Psa.refresh} or
      recompile (check #8), and after every insertion demands equality
      with a fresh {!Psa.compile} ({!Check.psa_tables_match}) and with
      the tree walk ({!Check.psa_scoring_matches});
    - runs {!Cluseq.run} at 1 and at 4 domains with the
      {!Check.auditor} installed (a serial reclustering replay of
      memberships, assignments and deciding scores, plus live
      invariants every iteration) and demands structurally identical
      results — the determinism contract of the domain pool — then
      repeats the pair under a [max_nodes] budget of half the largest
      unpruned model, so PST pruning runs inside the per-cluster apply
      tasks (and must remove at least one node);
    - classifies probes at both domain counts and compares verdicts;
    - round-trips every final model through the textual serialization.

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
(** Deterministically generate a case from its seed: alphabet size 2–5,
    4–16 sequences of length 0–24 (empty sequences included, to exercise
    the [empty_result] paths), small PST/clustering parameters, and a
    node budget high enough that the differential oracle's no-pruning
    requirement holds. *)

val run_case : ?on_divergence:(string -> unit) -> case -> string list
(** Run every oracle over one case; the (possibly empty) list of
    mismatch messages. Temporarily installs the {!Check} auditor and
    switches the default domain count; both are restored on exit.
    [on_divergence] (default [ignore]) receives the diagnostic report
    when the sketch-gated run produces a different final clustering
    than the full scan — a heuristic false negative, counted on
    [cluseq.index.false_negatives] but not treated as a failure (the
    gated run's {e engine} correctness is separately enforced by the
    installed auditor's serial replay; a {!Check.Violation} it raises
    there is caught and reported among the case's messages, like the
    audited runs'). *)

val shrink : case -> still_fails:(case -> bool) -> case
(** Greedy, budget-capped minimization: repeatedly drop a sequence or
    halve one while the predicate still fails. *)

val run :
  ?progress:(int -> unit) ->
  ?on_divergence:(int -> string -> unit) ->
  n:int ->
  seed:int ->
  unit ->
  (int, failure) result
(** [run ~n ~seed ()] executes cases [seed, seed+1, …, seed+n-1],
    stopping at the first failure (shrunk before reporting).
    [progress] is called with each completed case index;
    [on_divergence] with the case seed and report whenever the index
    oracle observes a (non-failing) sketch false negative. [Ok n] when
    every case passes. *)

val pp_failure : Format.formatter -> failure -> unit
(** Human-readable report: messages, the minimized workload (decoded),
    and the replay command line. *)
