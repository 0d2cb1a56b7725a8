(** Classifying new sequences against a trained clustering.

    CLUSEQ's output is more than a partition: each cluster's PST is a
    generative model, so unseen sequences can be assigned to the cluster
    that best predicts them (or be flagged as outliers) without re-running
    the clustering — the "determine whether a sequence should belong to a
    cluster by calculating the likelihood of (re)producing it" operation
    of the paper's introduction, packaged for deployment. Models can be
    saved to disk and reloaded, giving a train once / classify forever
    workflow. *)

type t
(** An immutable trained classifier. *)

type verdict = {
  cluster : int option;  (** Best cluster id, or [None] for an outlier. *)
  log_sim : float;  (** Log-similarity to that best cluster. *)
  scores : (int * float) list;  (** Log-similarity per cluster, sorted desc. *)
}

val of_result : Cluseq.result -> Seq_database.t -> t
(** [of_result result db] freezes a finished run into a classifier: the
    final cluster models, the database's alphabet and background
    distribution, and the final threshold [t]. *)

val make :
  models:(int * Pst.t) list ->
  log_background:float array ->
  t_linear:float ->
  ?alphabet:Alphabet.t ->
  unit ->
  t
(** Assemble a classifier from parts (e.g. loaded models). Raises
    [Invalid_argument] on an empty model list or [t_linear < 1]. *)

val alphabet : t -> Alphabet.t option
(** The training alphabet, when known. Classifying sequences encoded with
    a different alphabet silently permutes symbol codes and produces
    garbage — always re-encode with this alphabet (the CLI does). *)

val classify : t -> Sequence.t -> verdict
(** [classify t s] scores [s] against every cluster model. [cluster] is
    [Some] of the argmax only when its similarity clears the threshold. *)

val classify_all : t -> Seq_database.t -> verdict array
(** Classify every sequence of a database. *)

val n_clusters : t -> int
(** Number of cluster models. *)

val threshold : t -> float
(** The linear decision threshold. *)

val save : string -> t -> unit
(** [save path t] persists the classifier (threshold, background, every
    model) to a single file. *)

val load : string -> t
(** [load path] restores a classifier written by {!save}. Raises
    [Failure] on malformed input, including a file whose sizes disagree:
    a model over a different number of symbols than the background has
    entries, or an alphabet line of another length. *)
