type result = { log_sim : float; seg_lo : int; seg_hi : int }

let empty_result = { log_sim = neg_infinity; seg_lo = -1; seg_hi = -1 }

(* Hot-loop counters are batched: published once per call (with ~by for
   the symbol count), never from inside a scan loop — the compiled kernel
   below must stay free of Obs traffic per symbol. *)
let m_calls = Obs.Metrics.counter "similarity.calls"
let m_symbols_scanned = Obs.Metrics.counter "similarity.symbols_scanned"

let validate_log_background lbg =
  Array.iteri
    (fun sym v ->
      (* [Float.is_finite && <= 0] rejects -inf (a zero-probability
         symbol), NaN, and log p > 0 (p > 1) in one test. *)
      if not (Float.is_finite v && v <= 0.0) then
        invalid_arg
          (Printf.sprintf
             "Similarity: log_background.(%d) = %g — symbol %d has a zero or invalid \
              background probability; every alphabet symbol needs p > 0"
             sym v sym))
    lbg

(* The X_i kernel of the paper's dynamic program:
   X_i = log P_S(s_i | s_1 .. s_{i-1}) - log p(s_i). The one definition
   shared by the fast scan ([score]) and the O(l²) reference
   ([score_brute] via [xs]), so the two cannot drift; the brute-vs-fast
   property test in test_similarity.ml guards the equivalence. *)
let[@inline] x_at pst ~log_background s i =
  Pst.log_prob pst s ~lo:0 ~pos:i -. log_background.(s.(i))

let xs pst ~log_background s =
  Array.init (Array.length s) (fun i -> x_at pst ~log_background s i)

let score pst ~log_background s =
  let l = Array.length s in
  Obs.Metrics.incr m_calls;
  Obs.Metrics.incr ~by:l m_symbols_scanned;
  if l = 0 then empty_result
  else begin
    let y = ref neg_infinity in
    let z = ref neg_infinity in
    let start = ref 0 in
    let best_lo = ref 0 and best_hi = ref 0 in
    for i = 0 to l - 1 do
      let x = x_at pst ~log_background s i in
      (* Y_i = max (Y_{i-1} + X_i, X_i): extend the running segment only
         when its accumulated log-similarity is non-negative. *)
      if !y >= 0.0 then y := !y +. x
      else begin
        y := x;
        start := i
      end;
      if !y > !z then begin
        z := !y;
        best_lo := !start;
        best_hi := i
      end
    done;
    { log_sim = !z; seg_lo = !best_lo; seg_hi = !best_hi }
  end

type column = { log_sims : float array; seg_los : int array; seg_his : int array }

let column n =
  { log_sims = Array.make n neg_infinity; seg_los = Array.make n (-1); seg_his = Array.make n (-1) }

let cell c i = { log_sim = c.log_sims.(i); seg_lo = c.seg_los.(i); seg_hi = c.seg_his.(i) }

(* The front ends over [Psa.score_into], the one Kadane scan over a
   compiled automaton. The emission table stores the very floats
   [Pst.next_log_prob] computes and each X_i is formed with the
   identical subtraction, so every lane is bit-for-bit equal to [score]
   on the source tree — the fuzz oracle and the qcheck properties assert
   exact equality. Metrics are bumped once per block — same totals as
   per-sequence calls. *)
let count_block seqs =
  Obs.Metrics.incr ~by:(Array.length seqs) m_calls;
  Obs.Metrics.incr
    ~by:(Array.fold_left (fun acc s -> acc + Array.length s) 0 seqs)
    m_symbols_scanned

let score_block psa ~log_background c ~at seqs =
  count_block seqs;
  Psa.score_into psa ~log_background seqs ~at ~log_sim:c.log_sims ~seg_lo:c.seg_los
    ~seg_hi:c.seg_his

let score_batch psa ~log_background ~batch seqs =
  count_block seqs;
  Psa.score_batch psa ~log_background ~batch seqs;
  Array.init (Array.length seqs) (fun j ->
      {
        log_sim = Psa.batch_log_sim batch j;
        seg_lo = Psa.batch_seg_lo batch j;
        seg_hi = Psa.batch_seg_hi batch j;
      })

(* One sequence is a one-lane block. The lane array and the one-cell
   column [score_psa] reads back are per domain, as [Psa.compile]'s
   trie is: dirty rescores run in apply tasks on every domain of the
   pool. *)
let lane_scratch = Domain.DLS.new_key (fun () -> ([| [||] |], column 1))

let score_cell psa ~log_background c i s =
  Obs.Metrics.incr m_calls;
  Obs.Metrics.incr ~by:(Array.length s) m_symbols_scanned;
  let lane, _ = Domain.DLS.get lane_scratch in
  lane.(0) <- s;
  Psa.score_into psa ~log_background lane ~at:i ~log_sim:c.log_sims ~seg_lo:c.seg_los
    ~seg_hi:c.seg_his

let score_psa psa ~log_background s =
  let _, c = Domain.DLS.get lane_scratch in
  score_cell psa ~log_background c 0 s;
  cell c 0

(* Per position, X_i and the depth of the context the automaton
   predicted symbol i from, in one walk of its states. Only the explain
   and oracle paths want the profile, so the reads are the checked
   ones. *)
let positions psa ~log_background s =
  let n = Psa.alphabet_size psa in
  let l = Array.length s in
  let xs = Array.make l 0.0 and depths = Array.make l 0 in
  let state = ref 0 in
  for i = 0 to l - 1 do
    let sym = s.(i) in
    if sym < 0 || sym >= n then
      invalid_arg "Similarity.xs_psa: symbol outside the compiled alphabet";
    xs.(i) <- Psa.emission psa !state sym -. log_background.(sym);
    depths.(i) <- Psa.prediction_depth psa !state;
    state := Psa.step psa !state sym
  done;
  (xs, depths)

let xs_psa psa ~log_background s = fst (positions psa ~log_background s)

type attribution = { attr_result : result; attr_xs : float array; attr_depths : int array }

(* [score_psa]'s result plus the per-position profile behind it. The
   profile's X_i are the floats the scan summed, so
   [attribution_segment_sum] rebuilds [log_sim] bit for bit
   (property-tested). *)
let score_attributed psa ~log_background s =
  let attr_result = score_psa psa ~log_background s in
  let attr_xs, attr_depths = positions psa ~log_background s in
  { attr_result; attr_xs; attr_depths }

(* Kadane never resets inside a winning segment (a reset would have moved
   [seg_lo]), so within [seg_lo .. seg_hi] the accumulator evolved as
   [y = xs.(lo)] then [y <- y +. xs.(i)] left to right. Replaying exactly
   that fold reproduces [log_sim] bit-for-bit — this is the equality the
   qcheck property asserts, and what makes the printed contributions an
   honest decomposition of the score. *)
let attribution_segment_sum a =
  let { seg_lo; seg_hi; _ } = a.attr_result in
  if seg_lo < 0 || seg_hi < seg_lo then neg_infinity
  else begin
    let acc = ref a.attr_xs.(seg_lo) in
    for i = seg_lo + 1 to seg_hi do
      acc := !acc +. a.attr_xs.(i)
    done;
    !acc
  end

let score_brute pst ~log_background s =
  let l = Array.length s in
  if l = 0 then empty_result
  else begin
    let x = xs pst ~log_background s in
    let best = ref neg_infinity and blo = ref 0 and bhi = ref 0 in
    for j = 0 to l - 1 do
      let acc = ref 0.0 in
      for i = j to l - 1 do
        acc := !acc +. x.(i);
        if !acc > !best then begin
          best := !acc;
          blo := j;
          bhi := i
        end
      done
    done;
    { log_sim = !best; seg_lo = !blo; seg_hi = !bhi }
  end

let log_of_linear t =
  (* [t <= 0.0] alone lets NaN through (every NaN comparison is false),
     which would propagate a NaN log threshold that silently fails all
     join tests downstream. *)
  if not (Float.is_finite t) || t <= 0.0 then
    invalid_arg "Similarity.log_of_linear: t must be a positive finite value";
  log t

let linear_of_log lt =
  (* Clamp at 500 nats: exp 500 ≈ 1.4e217 is comfortably finite, while an
     unclamped huge log would overflow to +inf. The empty-result sentinel
     [neg_infinity] maps to an exact 0. up front so callers formatting or
     comparing the linear value never meet a subnormal (exp of a large
     negative finite stays whatever IEEE gives — only the sentinel is
     special-cased). *)
  if lt = neg_infinity then 0.0 else exp (Float.min 500.0 lt)
