(** The canonical benchmark telemetry record ([BENCH_*.json]): schema
    types, capture from the live {!Obs} registry, and (de)serialization.

    One file is one benchmark run: an environment block (so numbers are
    attributable to a commit, machine, and [--scale]), one record per
    experiment (wall time, per-phase timings, throughput, GC/heap cost,
    PST model size, and the experiment's quality headline), and the
    Bechamel micro-benchmark results when they ran. [Bench_compare]
    consumes two of these files to produce a regression verdict. *)

val schema_name : string
(** ["cluseq-bench"] — the [schema] field of every file. *)

val schema_version : int
(** Current version (2 — v2 added the scan-census block, later joined
    by the drift block; readers default missing numerics to 0, so the
    drift addition did not need a bump). {!of_json} rejects other
    versions with a message telling the caller to regenerate the
    file. *)

type env = {
  label : string;  (** Run label, conventionally the [BENCH_<label>.json] stem. *)
  git_rev : string;  (** HEAD commit hash, or ["unknown"] outside a checkout. *)
  ocaml_version : string;
  scale : float;  (** The harness [--scale]; comparisons require equal scales. *)
  hostname : string;
  word_size : int;  (** [Sys.word_size] — GC word counts depend on it. *)
  domains : int;
      (** Domain-pool size the run used ([Par.default_domains]); 0 in
          files written before the parallel engine existed, which
          comparisons treat as a wildcard. *)
  shards : int;
      (** Shard count the harness ran with ([--shards]); 0 in files
          written before shard-and-merge existed, which comparisons
          treat as a wildcard. *)
}

type census = {
  pairs_scored : int;
      (** (sequence, cluster) similarity evaluations in reclustering,
          summed over all iterations of all runs. *)
  pairs_joined : int;  (** Pairs that joined, evaluated or reused. *)
  scored_joins : int;
      (** The joins a fresh evaluation decided
          ([cluseq.scan.scored_joins]), at most [pairs_scored]; 0 in
          records written before it existed, whose wasted-pair ratio
          comparisons skip. *)
  dirty_rescores : int;  (** Serial rescores against mutated clusters. *)
  assignments_changed : int;  (** Membership changes, summed. *)
  pairs_reused : int;
      (** Matrix entries served from cached score columns instead of a
          fresh evaluation ([cluseq.scan.pairs_reused]); 0 in records
          written before the score-column cache existed. *)
}
(** Scan-efficiency census (schema v2): the [cluseq.scan.*] counters
    of one experiment. Deterministic for a fixed seed and any domain
    count, so comparisons hold it to the tight count-metric noise
    floor. *)

val wasted_pair_ratio : census -> float
(** [(pairs_scored - scored_joins) / pairs_scored]; 0 when nothing was
    scored. *)

type drift = {
  churn_rate : float;
      (** Mean per-iteration fraction of sequences whose assignment
          changed ([cluseq.drift.churn_rate]). Lower is calmer. *)
  cluster_age : float;
      (** Mean age (iterations since seeding) of live clusters at each
          iteration's end. Higher means clusters persist. *)
  intercluster_kl : float;
      (** Mean symmetric KL divergence over the sampled live-cluster
          panel — higher means better-separated models. *)
  member_score : float;
      (** Mean member log-similarity against the owning cluster —
          higher means tighter clusters. *)
}
(** Clustering-quality drift gauges: per-iteration means of the
    [cluseq.drift.*] histograms, summed over every run of the
    experiment. Derived from deterministic serial state, so identical
    at any domain count; files recorded before the gauges existed read
    as all-zero ({!drift_is_empty}) and comparisons skip them. *)

val drift_is_empty : drift -> bool
(** True when every gauge is exactly 0 — the block was recorded by a
    pre-drift harness (or with metrics disabled), not measured. *)

type experiment = {
  id : string;  (** Experiment id ([table2], [fig4], …). *)
  wall_s : float;  (** Monotonic wall time of the whole experiment. *)
  runs : int;  (** [Cluseq.run] invocations within it. *)
  iterations : int;  (** CLUSEQ iterations summed over those runs. *)
  cluseq_seconds : float;  (** Wall time inside [Cluseq.run], summed. *)
  phases : (string * float) list;
      (** Per-phase seconds summed over all iterations of all runs, in
          the order of {!phase_names}. *)
  sequences : int;  (** Sequences clustered (summed over runs). *)
  symbols : int;  (** Symbols in those databases (summed over runs). *)
  gc : Obs.Resource.gc_delta;  (** GC work of the whole experiment. *)
  peak_heap_words : int;  (** Peak major-heap words during it. *)
  pst_nodes_built : int;  (** Final PST nodes, summed over runs. *)
  pst_est_words_built : int;  (** Estimated words of those trees. *)
  census : census;  (** Reclustering scan census (schema v2). *)
  drift : drift;  (** Clustering-quality drift gauges. *)
  quality : (string * float) option;
      (** The experiment's quality headline, e.g. [("accuracy", 0.82)] —
          recorded so a perf win can't silently trade away quality. *)
}

type t = { env : env; experiments : experiment list; micro : (string * float) list }

val sequences_per_s : experiment -> float
(** [sequences / cluseq_seconds], or 0 when no time was recorded. *)

val symbols_per_s : experiment -> float

val minor_words_per_symbol : experiment -> float
(** [gc.minor_words / symbols], or 0 when no symbols were recorded —
    the allocation cost of pushing one symbol through clustering, the
    number the off-heap batched scorer ratchets. Derived from existing
    schema-v2 fields, so it compares against old baselines. *)

val collect_env : label:string -> scale:float -> domains:int -> shards:int -> env
(** Probe the environment: git rev from [.git/HEAD] (following the ref,
    including packed refs), hostname from [/proc] or [$HOSTNAME]; both
    degrade to ["unknown"]. [domains] is the domain-pool size in effect
    for the run (pass [Par.default_domains ()]); [shards] the harness
    [--shards] setting (1 when unsharded). *)

val phase_names : string list
(** The phases of one CLUSEQ iteration in execution order, each the name
    of a [Cluseq.run] span and of its [cluseq.iter.<phase>_seconds]
    histogram. *)

val capture :
  id:string ->
  wall_s:float ->
  gc:Obs.Resource.gc_delta ->
  peak_heap_words:int ->
  quality:(string * float) option ->
  experiment
(** Snapshot one experiment from the live metrics registry — counters
    [cluseq.sequences]/[cluseq.symbols]/[cluseq.pst.*_built], the
    [cluseq.run_seconds] histogram, and the [cluseq.iter.*_seconds]
    phase histograms. The caller resets the registry between
    experiments so each capture reflects one experiment alone. *)

val to_json : t -> Bench_json.t

val of_json : Bench_json.t -> (t, string) result
(** Rejects documents whose [schema]/[version] do not match; missing
    numeric fields default to 0 (forward compatibility for added
    metrics), absent [quality] maps to [None]. *)

val write : string -> t -> unit
(** Serialize to a file (canonical two-space-indented JSON). *)

val read : string -> (t, string) result
(** Load and validate a file; IO and parse errors come back as
    [Error]. *)
