(** Agglomerative clustering over direct CPD differences — the alternative
    paper Sec. 2 considers and rejects.

    Each sequence gets its own small PST; pairwise distances are the
    {!Divergence} measures between those models; clusters merge bottom-up
    (average linkage) until the requested count remains. This realizes the
    "compute the difference between the corresponding conditional
    probability distributions" approach so the [ablation] bench can show
    both its quality and the cost that made the paper choose the
    predict-based similarity instead. *)

type linkage =
  | Single  (** Minimum pairwise distance between clusters. *)
  | Complete  (** Maximum pairwise distance. *)
  | Average  (** Mean pairwise distance (UPGMA). *)

type measure =
  | Variational  (** {!Divergence.variational_profiles}. *)
  | Kl_symmetric  (** {!Divergence.kl_profiles}. *)

val cluster :
  ?linkage:linkage ->
  ?measure:measure ->
  ?pst_config:Pst.config ->
  k:int ->
  Seq_database.t ->
  int array
(** [cluster ~k db] builds one PST per sequence ([pst_config] defaults to
    significance 2, depth 5 — per-sequence statistics are thin), computes
    all pairwise divergences, and merges with the given [linkage] (default
    [Average]) and [measure] (default [Variational]) down to [k] clusters.
    Returns a label per sequence in [\[0, k)]. O(N²) distances and O(N³)
    worst-case merging — usable only at small N, which is the point the
    bench makes. Raises [Invalid_argument] when [k] is out of range. *)
