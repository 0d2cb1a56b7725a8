(** Automatic adjustment of the similarity threshold [t] (paper Sec. 4.6).

    Each iteration histograms the (log-)similarities of every
    sequence–cluster combination, finds the valley {m \hat t} where the
    count curve turns most sharply (largest left/right regression-slope
    difference), and moves the threshold halfway toward it:
    {m t \leftarrow (t + \hat t)/2}. When {m t} and {m \hat t} are within
    1% the threshold freezes.

    We work in log space throughout; a 1% relative difference in linear
    similarity is a 0.01 absolute difference in log similarity, which is
    the freeze criterion used here. The threshold never drops below
    {m t = 1} (log 0), the paper's meaningful-separation floor. *)

type t
(** Mutable threshold state. *)

val create : t_init:float -> t
(** [create ~t_init] starts from the linear threshold [t_init] (must be
    finite and [>= 1.0], per paper Sec. 2; NaN and infinities raise
    [Invalid_argument]). *)

val log_t : t -> float
(** Current threshold, in log space. *)

val linear_t : t -> float
(** Current threshold, linear. *)

val frozen : t -> bool
(** Whether the 1% convergence criterion has been met. *)

val adjust : t -> float array -> unit
(** [adjust t log_sims] performs one adjustment step from the iteration's
    log-similarity samples (finite values only are used, in a histogram
    of 50 buckets). No-op when frozen or when fewer than 10 finite samples
    exist. *)
