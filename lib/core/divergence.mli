(** Direct distribution-difference measures between cluster models.

    Paper Sec. 2 discusses measuring the difference between two
    conditional probability distributions with the {e variational
    distance} {m V(P_1,P_2) = \sum_σ |P_1(σ) - P_2(σ)|} or the
    (symmetrized) {e Kullback–Leibler divergence}
    {m J(P_1,P_2) = \sum_σ (P_1(σ)-P_2(σ)) \log(P_1(σ)/P_2(σ))}, and
    rejects them because the sum ranges over {m O(|Σ|^L)} segments.

    This module implements both measures over the conditional next-symbol
    distributions of two PSTs, aggregated over the {e realized} contexts
    (the union of significant nodes of either tree, weighted by their
    empirical frequency) — the practical variant that makes the comparison
    computable. The shard merge's prefilter and the drift panel use it as
    a model-to-model gauge, and the [ablation] bench shows its cost gap
    versus the paper's predict-based similarity.

    {b Profiles.} A model's side of the computation — its significant
    contexts, each with its smoothed next-symbol distribution, and the
    root's distribution — depends on that model alone, so it is built
    once per tree version ({!profile}) and a pair costs one pass over two
    profiles. A context of one model that the other lacks falls back to
    the other's prediction node, which is always its root or one of its
    significant contexts, so a profile answers every lookup without its
    tree. Profiles are immutable: any domain may read one concurrently.

    {b Bit-identity.} Every value equals, bit for bit, the tree walk it
    replaced ([Ref_divergence] in [lib/check], the oracle of the QCheck
    property in [test_divergence] and of fuzz check #9): the union of
    contexts is summed in the same hash-table order, each context's
    distribution is the same [Pst.next_distribution] floats, and the
    per-symbol sums differ only by skipping the symbols with equal
    probabilities, whose terms are [+0.0]. This holds for every tree
    {!Pst}'s operations build, in which a child never outcounts its
    parent ([Check.pst_invariants]): the profile reads only the
    significant nodes hanging together from the root, so a tampered
    tree with a significant node below an insignificant one measures
    differently. *)

type profile
(** One model's significant contexts and distributions, frozen at
    {!profile} time. *)

val profile : Pst.t -> profile
(** [profile t] reads the significant part of [t] once: for each
    significant context its label, count and distribution (one [log]
    and [exp] per distinct next count), and a |Σ|-wide row of
    prediction edges — O(|Σ|) words per context, like a compiled
    automaton's transition table. Later changes to [t] do not reach
    the profile; rebuild it ({!Cluster.profile} does, after an
    absorb). *)

val variational_profiles : profile -> profile -> float
(** [variational_profiles a b] is the frequency-weighted average, over
    the significant contexts of either model, of
    {m \sum_s |P_a(s|ctx) - P_b(s|ctx)|} ∈ [0, 2]. Contexts are matched
    by label; a context absent from one model falls back to that model's
    prediction-node estimate (longest significant suffix), exactly like
    a similarity query. Raises [Invalid_argument] unless the models
    share the alphabet size. *)

val kl_profiles : profile -> profile -> float
(** [kl_profiles a b] is the frequency-weighted average symmetrized KL
    divergence {m J} over the same context set, using each model's
    smoothed probabilities (so the value is finite whenever both configs
    smooth, i.e. [p_min > 0]); ≥ 0, 0 iff the matched conditionals
    agree. *)

val variational : Pst.t -> Pst.t -> float
(** [variational a b] is [variational_profiles (profile a) (profile b)]:
    for one-off comparisons; callers comparing a model more than once
    keep its profile. *)

val kl_symmetric : Pst.t -> Pst.t -> float
(** [kl_symmetric a b] is [kl_profiles (profile a) (profile b)]. *)
