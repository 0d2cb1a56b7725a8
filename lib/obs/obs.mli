(** Observability for the CLUSEQ pipeline: a process-global metrics
    registry, span-based tracing on the monotonic clock, a multi-domain
    flight recorder, and exporters.

    Design constraints (see DESIGN.md §6 and §10):

    - {b Counters and histograms multicore-safe, the rest
      single-domain.} Counters are atomic because the [Par] worker
      domains drive instrumented paths ([Similarity.score],
      [Pst.log_prob], and PST insertion and pruning in the per-cluster
      reclustering apply); histogram buckets are atomic (and the float sum
      a CAS loop) because any domain owning a pool may observe
      latencies ([par.steal_wait_seconds]). Gauges, the span tree, and
      registration are plain mutable data touched only by the main
      (submitting) domain. A span may open on any domain: on a worker it
      lands on that domain's own {!Recorder} ring, which is per-domain by
      construction.
    - {b One timing path.} {!Trace.with_span} (and {!Metrics.time}, its
      span-less form) is the only way to time a region: one pair of
      clock reads feeds every sink that is on.
    - {b Free when disabled.} Metrics, tracing, and the recorder
      default to disabled; an instrumented call site then costs one
      [bool ref] dereference and branch (a few ns at most), so hot
      paths stay permanently instrumented.
    - {b Find-or-create registration.} Instruments are registered by
      name at module-initialization time ([let c = Obs.Metrics.counter
      "pst.insertions"]) and the returned handle is used directly on
      the hot path — no per-event name lookup. Requesting the same name
      twice returns the same instrument; requesting it with a different
      kind raises [Invalid_argument]. {!Recorder.intern} follows the
      same pattern for event names. *)

(** Counters, gauges, and fixed-bucket histograms. *)
module Metrics : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val is_enabled : unit -> bool
  (** Metrics recording is off by default: all [incr]/[set]/[observe]
      calls are no-ops until {!enable}. *)

  (** {1 Counters} *)

  type counter
  (** A monotonically increasing integer. *)

  val counter : string -> counter
  (** [counter name] finds or creates the counter registered as
      [name]. *)

  val incr : ?by:int -> counter -> unit
  (** [incr ?by c] adds [by] (default 1) when metrics are enabled. *)

  val counter_value : counter -> int
  val counter_name : counter -> string

  (** {1 Gauges} *)

  type gauge
  (** A floating-point value that can go up and down. *)

  val gauge : string -> gauge
  val set : gauge -> float -> unit
  val gauge_value : gauge -> float
  val gauge_name : gauge -> string

  (** {1 Histograms} *)

  type histogram
  (** A fixed-bucket distribution: observations land in the first
      bucket whose upper bound is ≥ the value, or in the implicit
      [+Inf] overflow bucket. *)

  val default_time_buckets : float array
  (** Log-spaced latency buckets from 1µs to 60s, suitable for both
      single similarity scans and whole clustering phases. *)

  val histogram : ?buckets:float array -> string -> histogram
  (** [histogram ?buckets name] finds or creates a histogram with the
      given strictly-increasing upper bounds (default
      {!default_time_buckets}). [buckets] is ignored when [name] is
      already registered. *)

  val observe : histogram -> float -> unit
  (** Record one observation. Safe from any domain: bucket counts and
      the running count are atomic increments and the sum is a
      compare-and-set loop (unlike gauges, which remain main-domain
      writes). *)

  val time : histogram -> (unit -> 'a) -> 'a
  (** [time h f] runs [f ()] and observes its duration in seconds into
      [h] (even if [f] raises). While metrics are disabled it is just
      [f ()], with no clock reads. For regions too fine-grained for the
      span tree; otherwise use {!Trace.with_span} with [~hist]. *)

  val histogram_count : histogram -> int
  val histogram_sum : histogram -> float
  val histogram_name : histogram -> string

  val bucket_counts : histogram -> (float * int) array
  (** Per-bucket (upper bound, count) pairs, non-cumulative; the last
      entry's bound is [infinity]. *)

  val quantile : histogram -> float -> float
  (** [quantile h q] estimates the [q]-quantile ([0 ≤ q ≤ 1]) from the
      bucket counts by linear interpolation inside the bucket holding
      the rank-[q] observation (first bucket's lower edge is 0).
      Observations in the [+Inf] overflow bucket report the last finite
      bound — a floor, not an extrapolation. [nan] on an empty
      histogram; [Invalid_argument] if [q] is outside [\[0, 1\]]. *)

  val reset : unit -> unit
  (** Zero every registered instrument in place. Handles held by
      instrumented modules stay valid. *)

  (**/**)

  type entry = Counter of counter | Gauge of gauge | Histogram of histogram

  val entries : unit -> (string * entry) list
  (** Registered instruments sorted by name (exporter interface). *)

  (**/**)
end

(** Span-based tracing: a tree of timed spans on the monotonic clock. *)
module Trace : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val is_enabled : unit -> bool
  (** Tracing is off by default: {!with_span} then records no tree
      span. *)

  type span

  val with_span : ?hist:Metrics.histogram -> string -> (unit -> 'a) -> 'a
  (** [with_span ?hist name f] runs [f ()] as one timed region: one pair
      of {!Timer.now_ns} reads feeds the span tree (main domain, tracing
      on; the span nests under the innermost open one or becomes a root),
      the calling domain's {!Recorder} ring as a [name] begin/end pair
      (worker domain, recorder on), and [hist] in seconds (metrics on).
      Every sink is closed even if [f] raises; with every sink off the
      call is just [f ()]. *)

  val name : span -> string
  val children : span -> span list

  val start_ns : span -> int64
  (** Absolute {!Timer.now_ns} timestamp at which the span opened —
      the trace exporter aligns spans with recorder and runtime events
      through it. *)

  val duration_ns : span -> int64
  (** Duration of the span; for a still-open span, the time elapsed so
      far. *)

  val duration_s : span -> float

  val roots : unit -> span list
  (** Completed-or-open root spans, oldest first. *)

  val reset : unit -> unit
  (** Drop all recorded spans (and any open-span stack). *)

  val pp : Format.formatter -> unit -> unit
  (** Render the span forest as an indented tree with durations. *)
end

(** Multi-domain flight recorder: a fixed-capacity event ring per
    domain, written lock-free by the owning domain and merged by the
    main domain at export time (DESIGN.md §10).

    {b Threading model.} Each domain lazily gets its own ring
    (domain-local storage) on its first event; only the owning domain
    ever writes it. The read side ({!events}, {!dropped}, {!reset})
    must run on the main domain {e outside} parallel regions — the
    [Par] pool joins every chunk before a job returns, so this never
    races live writers.

    {b Cost model.} When disabled, {!begin_}/{!end_} cost one
    [bool ref] dereference and allocate nothing. When enabled, an
    event writes four ints (timestamp, kind, interned name id,
    argument) into preallocated arrays — still allocation-free. When a
    ring wraps, the oldest events are overwritten and counted in
    {!dropped}. *)
module Recorder : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val is_enabled : unit -> bool
  (** Recording is off by default. Toggle only from the main domain
      outside parallel regions. *)

  val set_capacity : int -> unit
  (** Per-domain ring capacity in events, rounded up to a power of two
      (default [65536], minimum 16). Affects rings created afterwards —
      call before enabling, before any domain has emitted. *)

  type name
  (** An interned event name: register once at module-initialization
      time ([let ev = Obs.Recorder.intern "par.chunk"]), then emit by
      handle — the hot path never touches the string. *)

  val intern : string -> name
  (** Find-or-create the id for an event name (thread-safe; intended
      for initialization time, not per event). *)

  val begin_ : ?arg:int -> name -> unit
  (** Open a duration event on the calling domain's ring. [arg] is a
      free integer payload (chunk index, count, …) shown in the trace. *)

  val end_ : name -> unit
  (** Close the most recent open duration event of this name. Pairing
      is by timeline order within the domain, as in the Chrome trace
      format. *)

  (** {1 Read side (main domain, between jobs)} *)

  type kind = Begin | End

  type event = {
    domain : int;  (** OCaml domain id of the writer. *)
    ts_ns : int64;  (** {!Timer.now_ns} at emission. *)
    kind : kind;
    ev_name : string;
    arg : int;
  }

  val events : unit -> event list
  (** All live events across every domain ring, merged and sorted by
      timestamp (ties by domain id). Events overwritten by ring wrap
      are gone — see {!dropped}. *)

  val dropped : unit -> int
  (** Total events lost to ring wrap-around since the last {!reset}. *)

  val reset : unit -> unit
  (** Empty every ring (rings themselves are kept and reused). *)
end

(** Decision-provenance journal: a structured, append-only JSONL event
    log of {e model} decisions — cluster lifecycle, per-sequence
    assignment deltas, threshold moves, per-iteration drift — written by
    the serial main-domain code of the pipeline (so records are
    deterministic at any domain count, modulo timestamps).

    {b Cost model.} Journaling is off until {!open_file}; a disabled
    {!emit} call site costs one [bool ref] dereference and must be
    guarded so its field thunk is never built (the hot-path pattern is
    [if Obs.Journal.is_enabled () then Obs.Journal.emit ...], hoisting
    the test out of inner loops). Enabled records are buffered (~64 KiB)
    and flushed to the file in batches; write failures drop the batch
    and are counted in {!dropped}, like {!Recorder} ring wraps — the
    journal never aborts the run it is observing.

    {b Record shape.} One JSON object per line:
    [{"rec":N,"ts_ns":T,"event":"cluster.seeded",...fields}] — [rec] is
    a 0-based ordinal, [ts_ns] the {!Timer.now_ns} monotonic timestamp,
    [event] a dotted name, and the remaining fields event-specific
    (encoded with [Bench_json]; field names must avoid the three
    envelope keys). *)
module Journal : sig
  val open_file : string -> unit
  (** [open_file path] truncates/creates [path] and starts journaling to
      it (closing any previously open journal first). Raises [Sys_error]
      if the file cannot be opened. *)

  val is_enabled : unit -> bool
  (** Whether a journal file is open. Call sites in loops should read
      this once per pass and skip {!emit} entirely when false. *)

  val current_path : unit -> string option
  (** The open journal's file path, if any — lets a consumer (e.g.
      [cluseq explain]) {!flush} and read back the journal it is
      writing. *)

  val emit : string -> (unit -> (string * Bench_json.t) list) -> unit
  (** [emit event fields] appends one record. [fields] is a thunk so a
      disabled journal never pays for field construction; it runs
      synchronously when enabled. Main-domain only (the writer state is
      unsynchronized); the pipeline only journals from its serial
      sections. *)

  val flush : unit -> unit
  (** Force buffered records to the file (e.g. before reading it back
      mid-process). *)

  val with_suspended : (unit -> 'a) -> 'a
  (** [with_suspended f] runs [f ()] with journaling disabled, then
      restores the previous state (even if [f] raises). Used around
      parallel fan-outs (shard orchestration): the journal writer is
      main-domain-only, so worker-side runs must not emit; the
      orchestrator journals its own summary events after restore. *)

  val close : unit -> unit
  (** Flush, close the file, and disable journaling. Idempotent. *)

  val events_written : unit -> int
  (** Records emitted since the process started (across files). *)

  val dropped : unit -> int
  (** Records lost to write failures since the process started. *)

  (** {1 Reading journals back} *)

  type entry = {
    j_seq : int;  (** Record ordinal within the file. *)
    j_ts_ns : int64;  (** Monotonic emission timestamp. *)
    j_event : string;  (** Event name, e.g. ["seq.joined"]. *)
    j_fields : (string * Bench_json.t) list;
        (** Event-specific fields (envelope keys stripped). *)
  }

  val read_file : string -> (entry list, string) result
  (** Parse a journal back, oldest first. Blank lines are skipped;
      [Error] names the first unparseable line. *)
end

(** Bridge from the stdlib [Runtime_events] tracing system: buffers GC
    begin/end (minor, major, slices, compactions) and domain-lifecycle
    events so the exporter can interleave them with recorder rings and
    spans — GC pauses become visible against scoring work (DESIGN.md
    §10). Timestamps share [Timer]'s CLOCK_MONOTONIC. *)
module Runtime_bridge : sig
  val start : unit -> bool
  (** Start the runtime's event ring and open a self cursor. Returns
      [false] (bridge stays inactive) if the runtime cannot create its
      ring file — e.g. an unwritable working directory. Idempotent. *)

  val is_active : unit -> bool

  val poll : unit -> int
  (** Drain pending runtime events into the bridge buffer; returns the
      number consumed. Call from the main domain — at phase boundaries
      and before export. *)

  val stop : unit -> unit
  (** Free the cursor and pause runtime event collection. Idempotent:
      stopping twice, or without ever having started, is a no-op (the
      cursor is cleared before the runtime calls so a reentrant or
      repeated stop can never double-free it). *)

  type kind = Begin | End | Instant

  type event = {
    rb_domain : int;  (** Runtime ring id ≈ domain id. *)
    rb_ts : int64;
    rb_name : string;  (** ["gc.minor"], ["gc.major_slice"], ["rt.domain_spawn"], … *)
    rb_kind : kind;
  }

  val events : unit -> event list
  (** Buffered events, oldest first. The buffer is capped (200k
      events); overflow is counted in {!dropped}. *)

  val dropped : unit -> int
  val reset : unit -> unit
end

(** Runtime resource profiling: span-scoped GC deltas, a peak-heap
    watermark sampler, and gauge publication of both — the memory half
    of the benchmark telemetry (DESIGN.md §6). All readings come from
    [Gc.quick_stat], which never forces a collection. *)
module Resource : sig
  type gc_delta = {
    minor_words : float;  (** Words allocated in the minor heap. *)
    promoted_words : float;  (** Words promoted minor → major. *)
    major_words : float;  (** Words allocated in the major heap. *)
    minor_collections : int;
    major_collections : int;
    compactions : int;
    heap_words : int;
        (** Change of the major-heap size over the span; the only field
            that can be negative (compaction can shrink the heap). *)
    top_heap_words : int;
        (** Growth of the process-lifetime heap watermark during the
            span, clamped at zero (successive runtime readings of the
            watermark are not guaranteed monotone). *)
  }
  (** What one measured span cost the runtime. All fields except
      [heap_words] derive from monotonic [Gc] counters and are
      non-negative; a span's delta includes everything its nested spans
      did. *)

  val zero : gc_delta

  val add : gc_delta -> gc_delta -> gc_delta
  (** Componentwise sum — for accumulating deltas across repeated
      measurements. *)

  val measure : (unit -> 'a) -> 'a * gc_delta
  (** [measure f] runs [f ()] and returns its result together with the
      GC work it (and anything it called) performed. Unlike metrics and
      tracing this is not gated on an [enable] switch: the two
      [Gc.quick_stat] calls are cheap and callers invoke [measure]
      explicitly. Nests freely. *)

  val publish : ?prefix:string -> gc_delta -> unit
  (** [publish ?prefix d] surfaces [d] as gauges
      [<prefix>.minor_words], [<prefix>.promoted_words], …,
      [<prefix>.peak_heap_words] (default prefix ["gc"]). No-op while
      {!Metrics} is disabled. *)

  val publish_current : ?prefix:string -> unit -> unit
  (** [publish_current ()] publishes the absolute [Gc.quick_stat]
      values (process-lifetime totals) plus the sampler's
      [peak_heap_words] under the same gauge names — the right report
      for a whole process, e.g. the CLI at exit. *)

  (** {1 Peak-heap watermark sampler}

      [Gc.top_heap_words] only ever grows, so it cannot attribute a
      peak to one experiment of many in the same process. The sampler
      hooks a [Gc.alarm] (end of every major cycle) to track the
      maximum major-heap size since the last {!reset_peak} — a
      per-window watermark. *)

  val start_sampler : unit -> unit
  (** Install the alarm (idempotent) and take an immediate sample. *)

  val stop_sampler : unit -> unit
  (** Remove the alarm; the recorded peak remains readable. *)

  val reset_peak : unit -> unit
  (** Restart the window: forget the old peak and sample now. *)

  val peak_heap_words : unit -> int
  (** Largest major-heap size (in words) observed since the last
      {!reset_peak} — includes a sample taken at the call itself, so it
      is meaningful even if no major cycle ended in the window. *)
end

(** Render the registry (and span forest, if any) in three formats. *)
module Export : sig
  val pp_summary : Format.formatter -> unit -> unit
  (** Human-readable summary: counters, gauges, histogram count/mean,
      span tree. *)

  val summary : unit -> string

  val to_json : unit -> string
  (** JSON object with ["counters"], ["gauges"], ["histograms"] (count,
      sum, [p50]/[p95]/[p99] quantile estimates, per-bucket
      [le]/count), and — when spans were recorded — ["spans"] (name,
      duration_ns, children). Empty histograms carry no quantile keys
      at all (there is no rank-q observation to estimate — omitting
      beats fabricating). *)

  val to_chrome_trace : unit -> string
  (** Chrome trace-format JSON (open at {:https://ui.perfetto.dev}):
      the main-domain span tree (["X"] complete events), every
      {!Recorder} ring's begin/end events, and the
      {!Runtime_bridge}'s GC/lifecycle events, merged onto one
      timeline. [tid] is the OCaml domain id; timestamps are rebased to
      the earliest event and expressed in microseconds. Callers should
      {!Runtime_bridge.poll} first so pending runtime events are
      included. *)

  val to_prometheus : unit -> string
  (** Prometheus text exposition format; metric names are sanitized
      ([pst.insertions] → [pst_insertions]) and histogram buckets are
      cumulative, per the format's conventions. *)

  val write_file : string -> string -> unit
  (** [write_file path contents] writes [contents] to [path]. *)
end

(** {!Logs} reporter installation shared by the CLI and the bench. *)
module Logging : sig
  val level_of_verbosity : int -> Logs.level option
  (** 0 → [Warning], 1 → [Info], ≥ 2 → [Debug]. *)

  val setup : ?level:Logs.level option -> unit -> unit
  (** Install an [Fmt]-based reporter writing to stderr and set the
      global level. The [CLUSEQ_LOG] environment variable (a
      {!Logs.level_of_string} value, e.g. [debug]) overrides [level]
      (default [Warning]). *)
end

val enable_all : unit -> unit
(** Enable both metrics and tracing. *)

val reset : unit -> unit
(** {!Metrics.reset} + {!Trace.reset} + {!Recorder.reset}. *)
