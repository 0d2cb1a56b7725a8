(** The CLUSEQ similarity measure (paper Sec. 2 and 4.3).

    The similarity of a sequence {m σ} to a cluster {m S} is
    {m SIM_S(σ) = \max_{j \le i} sim_S(s_j \ldots s_i)} where
    {m sim_S} is the ratio of the probability of predicting the segment
    under the cluster's CPD to the probability of generating it by a
    memoryless random process (Eq. 1).

    All computation is carried out in log space: with
    {m X_i = \log P_S(s_i \mid s_1 \ldots s_{i-1}) - \log p(s_i)} the
    paper's dynamic program becomes
    {m Y_i = \max(Y_{i-1} + X_i,\; X_i)}, {m Z_i = \max(Z_{i-1}, Y_i)}
    — a single left-to-right scan (Kadane's maximum-subarray scheme). The
    conditional probabilities are retrieved from the cluster's PST via its
    prediction nodes, exactly the procedure of paper Sec. 3. *)

type result = {
  log_sim : float;  (** {m \log SIM_S(σ)}; [neg_infinity] for an empty σ. *)
  seg_lo : int;  (** Start of the maximizing segment (inclusive). *)
  seg_hi : int;  (** End of the maximizing segment (inclusive). *)
}

val score : Pst.t -> log_background:float array -> Sequence.t -> result
(** [score pst ~log_background s] evaluates {m SIM} of [s] against the
    cluster modeled by [pst] by the tree walk: the reference the oracles
    hold every automaton scan to, with no production caller.
    [log_background] is the database-wide {m \log p(s)} vector
    ({!Seq_database.log_background}). O(l · L) where L is the PST's max
    context depth. *)

type column = {
  log_sims : float array;  (** Cell [i]: sequence [i]'s {!result.log_sim}. *)
  seg_los : int array;  (** Cell [i]: its {!result.seg_lo}. *)
  seg_his : int array;  (** Cell [i]: its {!result.seg_hi}. *)
}
(** One model's scores over a sequence array, held as three unboxed
    columns instead of one boxed {!result} per sequence: what
    [Cluster.score_columns] fills block by block and the batch loop,
    its score cache and [Classifier.classify_all] read. *)

val column : int -> column
(** [column n] is a column of [n] cells, each holding the empty
    sequence's result ([neg_infinity], bounds [-1,-1]) until scored. *)

val cell : column -> int -> result
(** [cell c i] is cell [i] boxed as a {!result}. *)

val score_psa : Psa.t -> log_background:float array -> Sequence.t -> result
(** [score_psa psa ~log_background s]: the same measure over a compiled
    automaton ({!Psa.compile} of the same tree) — [s] scored as a
    one-lane block of {!Psa.score_into} on a per-domain scratch: one
    O(l) pass of its C loop, one transition and one table read per
    symbol, no per-symbol allocation or [log], and no branch on the
    scores. Bit-for-bit equal to {!score} on the tree the automaton was
    compiled from, the sign of a zero included ([Check.same_result];
    enforced by the property tests and the fuzz oracles), whenever
    [log_background] passes {!validate_log_background}, as the
    backgrounds of runs, classifiers and [Online] do; with a NaN or
    [-inf] entry the two may differ ({!Psa.score_into}).
    Raises [Invalid_argument] on a symbol outside the compiled
    alphabet. *)

val score_cell : Psa.t -> log_background:float array -> column -> int -> Sequence.t -> unit
(** [score_cell psa ~log_background c i s] writes [score_psa psa
    ~log_background s] into cell [i] of [c], with no record: a one-lane
    block at offset [i]. Raises [Invalid_argument] as {!score_psa}
    does, or when [i] is outside [c]. *)

val score_block :
  Psa.t -> log_background:float array -> column -> at:int -> Sequence.t array -> unit
(** [score_block psa ~log_background c ~at seqs] scores the whole block
    in one lane-major pass over the automaton ({!Psa.score_into}) and
    writes sequence [j]'s result into cell [at + j] of [c], touching no
    other cell, so tasks on disjoint ranges may fill one column at once.
    Every cell is bit-for-bit what {!score_cell} writes, and so
    {!score_psa}'s result, whatever the block around it. Raises
    [Invalid_argument] as {!Psa.score_into} does. *)

val score_batch :
  Psa.t -> log_background:float array -> batch:Psa.batch -> Sequence.t array -> result array
(** [score_batch psa ~log_background ~batch seqs] scores the block
    through [batch], a reusable scratch ({!Psa.score_batch}), and
    returns one {!result} per sequence, in input order: bit-for-bit
    [Array.map (score_psa psa ~log_background) seqs], boxed. For timing
    probes and oracles; the batch loop scores into columns
    ({!score_block}). Raises [Invalid_argument] on a symbol outside the
    compiled alphabet. *)

val xs_psa : Psa.t -> log_background:float array -> Sequence.t -> float array
(** The per-position {m X_i} profile via the automaton; bit-for-bit equal
    to {!xs} on the source tree. *)

type attribution = {
  attr_result : result;  (** Exactly what {!score_psa} would return. *)
  attr_xs : float array;
      (** Per-position log-odds contribution
          {m X_i = \log P_S(s_i \mid ctx) - \log p(s_i)}: how much each
          symbol argues for (positive) or against (negative) the
          cluster. *)
  attr_depths : int array;
      (** Per position, the length of the context the PST actually used
          to predict symbol [i] (its prediction node's depth) — 0 means
          the empty context / root estimate. *)
}
(** The decomposition behind one similarity score — the paper's whole
    case for the measure is that it {e has} such a decomposition
    (Sec. 2: per-symbol conditional-probability ratios against the
    background), so surfacing it is what makes [cluseq explain]
    possible. *)

val score_attributed : Psa.t -> log_background:float array -> Sequence.t -> attribution
(** [score_attributed psa ~log_background s] is {!score_psa}'s result
    plus one more walk of the automaton for the per-position provenance
    above. The [attr_xs] are the floats the scan summed, so
    {!attribution_segment_sum} rebuilds [log_sim] exactly
    (property-tested). Two O(l) arrays per call — use {!score_psa} in
    scans, this only when explaining. *)

val attribution_segment_sum : attribution -> float
(** Left fold of [attr_xs] over the winning segment
    [seg_lo .. seg_hi], replaying the scan's own accumulation order —
    equals [attr_result.log_sim] {e bit-for-bit}, not merely
    approximately ([neg_infinity] when there is no segment). *)

val validate_log_background : float array -> unit
(** Rejects (with [Invalid_argument]) any entry that is not a finite
    [log p <= 0] — i.e. zero-probability, NaN, or [p > 1] background
    symbols, which would otherwise silently poison every score. Called
    once per run / classifier build, where the background vector enters
    the engine — never per scoring call. *)

val score_brute : Pst.t -> log_background:float array -> Sequence.t -> result
(** Reference implementation: explicitly maximizes over all O(l²) segments.
    Exposed for property tests and the fuzz harness; do not use on long
    sequences. *)

val xs : Pst.t -> log_background:float array -> Sequence.t -> float array
(** [xs pst ~log_background s] is the tree walk's per-position {m X_i}
    array, the kernel {!score} scans: a reference with no production
    caller, exposed so the oracles can check the two never drift apart. *)

val log_of_linear : float -> float
(** [log_of_linear t] converts a user-facing linear similarity threshold
    (e.g. the paper's [t = 1.0005]) into log space. Raises
    [Invalid_argument] unless [t] is finite and [> 0] — NaN and
    infinities are rejected, not just non-positive values. *)

val linear_of_log : float -> float
(** Inverse of {!log_of_linear}, with the input clamped at [500.] nats so
    the result never overflows to [infinity] ([exp 500 ≈ 1.4e217]).
    [neg_infinity] — the {!empty_result} sentinel — returns an exact
    [0.], never a subnormal. *)
