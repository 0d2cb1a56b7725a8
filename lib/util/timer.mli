(** The monotonic clock.

    All readings come from the system monotonic clock
    ([clock_gettime(CLOCK_MONOTONIC)]), so they are immune to NTP steps
    and wall-clock adjustments; only durations are meaningful, not
    absolute times. Library code times its regions with
    [Obs.Trace.with_span] or [Obs.Metrics.time], which read this
    clock. *)

val now_ns : unit -> int64
(** [now_ns ()] is the monotonic clock reading in nanoseconds since an
    arbitrary fixed origin (typically boot). *)

val span_s : int64 -> int64 -> float
(** [span_s t0 t1] is the duration [t1 - t0] in seconds, for two
    {!now_ns} readings. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    monotonic time in seconds — for harnesses that report a wall time
    of their own. *)
