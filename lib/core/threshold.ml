type t = { mutable log_t : float; mutable frozen : bool }

let create ~t_init =
  (* [t_init < 1.0] alone lets NaN through (NaN comparisons are false);
     [log nan] would then make every subsequent join test silently
     false. Reject non-finite inputs outright. *)
  if not (Float.is_finite t_init) || t_init < 1.0 then
    invalid_arg "Threshold.create: t_init must be a finite value >= 1";
  { log_t = log t_init; frozen = false }

let log_t t = t.log_t
let linear_t t = Similarity.linear_of_log t.log_t
let frozen t = t.frozen

let freeze_epsilon = 0.01
let n_buckets = 50

let adjust t log_sims =
  if not t.frozen then begin
    let count = Array.fold_left (fun k x -> if Float.is_finite x then k + 1 else k) 0 log_sims in
    if count >= 10 then begin
      let finite = Array.make count 0.0 and k = ref 0 in
      Array.iter
        (fun x ->
          if Float.is_finite x then begin
            finite.(!k) <- x;
            incr k
          end)
        log_sims;
      let hist = Histogram.of_samples ~n_buckets finite in
      match Histogram.valley_log hist with
      | None -> ()
      | Some valley ->
          (* Move conservatively toward the valley, clamped at t = 1. *)
          let valley = Float.max 0.0 valley in
          if Float.abs (t.log_t -. valley) < freeze_epsilon then t.frozen <- true
          else t.log_t <- Float.max 0.0 ((t.log_t +. valley) /. 2.0)
    end
  end
