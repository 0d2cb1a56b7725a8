(** Reference implementation of the realized-context divergences: the
    tree walk {!Divergence} used before per-model profiles, kept as the
    differential oracle for them.

    Every call re-enumerates both trees' significant contexts, keys
    their union by label list in one [Hashtbl], and looks each context
    up in both trees again ([Pst.find_node], else
    [Pst.prediction_node]), rebuilding its distribution with
    [Pst.next_distribution]. {!Divergence.variational_profiles} and
    {!Divergence.kl_profiles} must return the same float bit for bit
    (the QCheck property in [test_divergence] and fuzz check #9). *)

val variational : Pst.t -> Pst.t -> float
(** Same contract as {!Divergence.variational}. *)

val kl_symmetric : Pst.t -> Pst.t -> float
(** Same contract as {!Divergence.kl_symmetric}. *)
