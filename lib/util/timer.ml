external now_ns : unit -> int64 = "cluseq_monotonic_clock_ns"

let span_s a b = Int64.to_float (Int64.sub b a) /. 1e9

let time f =
  let start = now_ns () in
  let result = f () in
  (result, span_s start (now_ns ()))
