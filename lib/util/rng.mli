(** Deterministic, splittable pseudo-random number generator.

    All randomized components of the library (seed sampling, synthetic
    workload generation, baseline initialization) draw from an explicit
    [Rng.t] so that every experiment is reproducible from a single seed.
    The generator is SplitMix64, which is fast, passes BigCrush, and splits
    cleanly into independent streams. *)

type t
(** Mutable generator state. *)

val golden : int64
(** SplitMix64's step, [0x9E3779B97F4A7C15] (2{^ 64} over the golden
    ratio): each draw adds it to the state. *)

val mix : int64 -> int64
(** SplitMix64's finalizer: the bijective mixer applied to the state on
    each draw. As a stateless hash it gives pure functions of their
    inputs, such as a sequence's shard. *)

val create : int -> t
(** [create seed] returns a fresh generator determined by [seed]. *)

val copy : t -> t
(** [copy t] is a generator that will produce the same stream as [t]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val gaussian : t -> float
(** [gaussian t] is a standard-normal sample (Box–Muller). *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly chosen element of [a].
    Raises [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement t ~k ~n] is [k] distinct indices drawn
    uniformly from [\[0, n)], in random order. Raises [Invalid_argument]
    if [k > n] or [k < 0]. *)

val categorical : t -> float array -> int
(** [categorical t weights] samples an index with probability proportional
    to [weights.(i)]. Weights must be non-negative with a positive sum. *)

val dirichlet_like : t -> concentration:float -> int -> float array
(** [dirichlet_like t ~concentration n] is a random probability vector of
    length [n]. Small [concentration] produces peaked vectors, large
    [concentration] produces near-uniform vectors. (Gamma sampling is
    approximated by powering uniform variates, which is sufficient for
    workload generation.) *)
