(* Tests for the similarity DP (paper Sec. 4.3): the Kadane-style scan must
   equal the explicit O(l²) maximization, and the recurrence must replicate
   the paper's Table 1 mechanics. *)

let alpha = Gen_common.alpha
let build ?significance texts = Gen_common.build_pst ?significance texts
let uniform_lbg = Gen_common.uniform_lbg

let test_empty_sequence () =
  let t = build [ "abab" ] in
  let r = Similarity.score t ~log_background:uniform_lbg [||] in
  Alcotest.(check bool) "empty is -inf" true (r.log_sim = neg_infinity)

let test_dp_equals_brute_on_example () =
  let t = build [ "ababababbbabab"; "babbaab" ] in
  let s = Sequence.of_string alpha "abbaba" in
  let fast = Similarity.score t ~log_background:uniform_lbg s in
  let brute = Similarity.score_brute t ~log_background:uniform_lbg s in
  Alcotest.(check (float 1e-9)) "same score" brute.log_sim fast.log_sim

let test_best_segment_achieves_score () =
  (* Recomputing the sum of X over the reported segment must reproduce the
     reported score. *)
  let t = build [ "abababab"; "ccc" ] in
  let s = Sequence.of_string alpha "ccabab" in
  let r = Similarity.score t ~log_background:uniform_lbg s in
  let sum = ref 0.0 in
  for i = r.seg_lo to r.seg_hi do
    sum := !sum +. (Pst.log_prob t s ~lo:0 ~pos:i -. uniform_lbg.(s.(i)))
  done;
  Alcotest.(check (float 1e-9)) "segment sum = score" r.log_sim !sum

let test_matching_scores_higher () =
  let t = build [ "abababababab" ] in
  let good = Similarity.score t ~log_background:uniform_lbg (Sequence.of_string alpha "ababab") in
  let bad = Similarity.score t ~log_background:uniform_lbg (Sequence.of_string alpha "qzvkxw") in
  Alcotest.(check bool) "in-style sequence scores higher" true (good.log_sim > bad.log_sim)

let test_table1_recurrence () =
  (* The paper's Table 1 mechanics with its exact numbers: X built from
     given probabilities, then Y_i = max(Y_{i-1}·X_i, X_i),
     Z_i = max(Z_{i-1}, Y_i), yielding SIM = 2.10 for sequence bbaa. *)
  let p_cond = [| 0.55; 0.418; 0.87; 0.406 |] in
  let p_bg = [| 0.4; 0.4; 0.6; 0.6 |] in
  let x = Array.init 4 (fun i -> p_cond.(i) /. p_bg.(i)) in
  let y = Array.make 4 0.0 and z = Array.make 4 0.0 in
  y.(0) <- x.(0);
  z.(0) <- x.(0);
  for i = 1 to 3 do
    y.(i) <- Float.max (y.(i - 1) *. x.(i)) x.(i);
    z.(i) <- Float.max z.(i - 1) y.(i)
  done;
  (* Table 1 reports (rounded): X = 1.38 1.05 1.45 0.68; Y = 1.38 1.45
     2.10 1.42; Z = 1.38 1.45 2.10 2.10. *)
  (* Tolerances reflect that Table 1 itself prints rounded values (e.g.
     its Y2 = 1.45 is 1.375·1.045 = 1.437 rounded up). *)
  Alcotest.(check (float 0.01)) "X1" 1.38 x.(0);
  Alcotest.(check (float 0.01)) "X2" 1.05 x.(1);
  Alcotest.(check (float 0.01)) "X3" 1.45 x.(2);
  Alcotest.(check (float 0.01)) "X4" 0.68 x.(3);
  Alcotest.(check (float 0.03)) "Y3" 2.10 y.(2);
  Alcotest.(check (float 0.03)) "SIM = Z4 = 2.10" 2.10 z.(3);
  (* And the log-space DP used by the implementation gives the same. *)
  let ly = ref neg_infinity and lz = ref neg_infinity in
  Array.iter
    (fun xi ->
      let lx = log xi in
      if !ly >= 0.0 then ly := !ly +. lx else ly := lx;
      if !ly > !lz then lz := !ly)
    x;
  Alcotest.(check (float 1e-6)) "log DP matches linear DP" (log z.(3)) !lz

let test_log_linear_conversion () =
  Alcotest.(check (float 1e-9)) "log of linear" (log 1.52) (Similarity.log_of_linear 1.52);
  Alcotest.(check (float 1e-9)) "roundtrip" 2.5
    (Similarity.linear_of_log (Similarity.log_of_linear 2.5));
  Alcotest.(check bool) "huge log does not overflow" true
    (Float.is_finite (Similarity.linear_of_log 1000.0));
  let rejects label t =
    Alcotest.check_raises label
      (Invalid_argument "Similarity.log_of_linear: t must be a positive finite value")
      (fun () -> ignore (Similarity.log_of_linear t))
  in
  rejects "non-positive threshold" 0.0;
  rejects "negative threshold" (-1.5);
  (* NaN slips past a plain [t <= 0.0] guard because NaN comparisons are
     always false — it must still be rejected. *)
  rejects "NaN threshold" Float.nan;
  rejects "infinite threshold" Float.infinity;
  rejects "negative-infinite threshold" Float.neg_infinity;
  (* The documented clamp semantics, exactly. *)
  Alcotest.(check (float 0.0)) "neg_infinity maps to an exact 0" 0.0
    (Similarity.linear_of_log neg_infinity);
  Alcotest.(check (float 0.0)) "clamped at 500 nats" (exp 500.0)
    (Similarity.linear_of_log 600.0);
  Alcotest.(check (float 0.0)) "everything past the clamp is equal"
    (Similarity.linear_of_log 501.0)
    (Similarity.linear_of_log 1e9)

let test_empty_result_sentinel () =
  (* Both scorers must return the exact sentinel on an empty sequence, and
     the callers' linear conversion must turn it into a clean 0 (below any
     valid threshold, t >= 1). *)
  let t = build [ "abab" ] in
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) (name ^ " log_sim is -inf") true (r.Similarity.log_sim = neg_infinity);
      Alcotest.(check int) (name ^ " seg_lo sentinel") (-1) r.Similarity.seg_lo;
      Alcotest.(check int) (name ^ " seg_hi sentinel") (-1) r.Similarity.seg_hi;
      Alcotest.(check (float 0.0)) (name ^ " linear is 0") 0.0
        (Similarity.linear_of_log r.Similarity.log_sim))
    [
      ("score", Similarity.score t ~log_background:uniform_lbg [||]);
      ("score_brute", Similarity.score_brute t ~log_background:uniform_lbg [||]);
    ]

let test_empty_sequence_through_pipeline () =
  (* Callers must treat the sentinel as "matches nothing": an empty
     sequence in the database ends up an outlier with no assignments, and
     the classifier returns an outlier verdict with every score empty. *)
  let db = Seq_database.of_strings alpha [ "ababab"; "abab"; "ababab"; ""; "abab" ] in
  let config =
    { (Cluseq.scaled_config ~expected_cluster_size:4 ()) with k_init = 1; max_iterations = 3 }
  in
  let r = Cluseq.run ~config db in
  Alcotest.(check (list int)) "empty sequence unassigned" [] r.assignments.(3);
  Alcotest.(check bool) "empty sequence is an outlier" true (List.mem 3 r.outliers);
  Alcotest.(check bool) "no finite best score" true (r.best.(3) = None);
  if r.n_clusters > 0 then begin
    let clf = Classifier.of_result r db in
    let v = Classifier.classify clf [||] in
    Alcotest.(check bool) "classifier calls it an outlier" true (v.Classifier.cluster = None);
    List.iter
      (fun (_, s) -> Alcotest.(check bool) "every score -inf" true (s = neg_infinity))
      v.Classifier.scores
  end

let seq_gen = Gen_common.seq_gen ~max_len:40 ()

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"DP equals brute force" ~count:200
         (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 5) seq_gen) seq_gen)
         (fun (cluster, probe) ->
           let t = build cluster in
           let s = Sequence.of_string alpha probe in
           let fast = Similarity.score t ~log_background:uniform_lbg s in
           let brute = Similarity.score_brute t ~log_background:uniform_lbg s in
           (* -inf = -inf for the empty-probe case (abs of their difference
              is NaN). *)
           fast.log_sim = brute.log_sim
           || Float.abs (fast.log_sim -. brute.log_sim) < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"score = brute max-subarray over xs" ~count:200
         (QCheck.pair seq_gen seq_gen)
         (fun (cluster, probe) ->
           (* [score] and [xs] must agree on the per-position X_i kernel:
              an O(l²) maximization over every segment of the [xs] array
              must reproduce the Kadane result exactly. *)
           let t = build [ cluster ] in
           let s = Sequence.of_string alpha probe in
           let r = Similarity.score t ~log_background:uniform_lbg s in
           let x = Similarity.xs t ~log_background:uniform_lbg s in
           let best = ref neg_infinity in
           for lo = 0 to Array.length x - 1 do
             let sum = ref 0.0 in
             for hi = lo to Array.length x - 1 do
               sum := !sum +. x.(hi);
               if !sum > !best then best := !sum
             done
           done;
           r.log_sim = !best || Float.abs (r.log_sim -. !best) < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"attribution bit-identical to score_psa" ~count:200
         (QCheck.pair seq_gen seq_gen)
         (fun (cluster, probe) ->
           (* [score_attributed]'s result is [score_psa]'s, and summing
              [attr_xs] — read by a separate walk of the automaton — over
              the winning segment in the scan's own accumulation order
              must rebuild log_sim. Both equalities are exact — no
              epsilon. *)
           let t = build [ cluster ] in
           let psa = Psa.compile t in
           let s = Sequence.of_string alpha probe in
           let plain = Similarity.score_psa psa ~log_background:uniform_lbg s in
           let a = Similarity.score_attributed psa ~log_background:uniform_lbg s in
           let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
           same_float a.attr_result.log_sim plain.log_sim
           && a.attr_result.seg_lo = plain.seg_lo
           && a.attr_result.seg_hi = plain.seg_hi
           && same_float (Similarity.attribution_segment_sum a) plain.log_sim
           && Array.length a.attr_xs = Array.length s
           && Array.length a.attr_depths = Array.length s
           && Array.for_all (fun d -> d >= 0) a.attr_depths));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"segment bounds valid" ~count:200
         (QCheck.pair seq_gen seq_gen)
         (fun (cluster, probe) ->
           let t = build [ cluster ] in
           let s = Sequence.of_string alpha probe in
           let r = Similarity.score t ~log_background:uniform_lbg s in
           r.seg_lo >= 0 && r.seg_lo <= r.seg_hi && r.seg_hi < Array.length s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"score at least single best symbol" ~count:200
         (QCheck.pair seq_gen seq_gen)
         (fun (cluster, probe) ->
           (* SIM maximizes over all segments, so it is >= the best
              single-position ratio. *)
           let t = build [ cluster ] in
           let s = Sequence.of_string alpha probe in
           let r = Similarity.score t ~log_background:uniform_lbg s in
           let best_single = ref neg_infinity in
           for i = 0 to Array.length s - 1 do
             let x = Pst.log_prob t s ~lo:0 ~pos:i -. uniform_lbg.(s.(i)) in
             if x > !best_single then best_single := x
           done;
           r.log_sim >= !best_single -. 1e-9));
  ]

let smoothed_tree texts = Gen_common.build_pst ~significance:2 ~p_min:1e-3 texts

let qcheck_tests =
  qcheck_tests
  @ [
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"smoothed scores always finite" ~count:200
           (QCheck.pair seq_gen seq_gen)
           (fun (cluster, probe) ->
             let t = smoothed_tree [ cluster ] in
             let r =
               Similarity.score t ~log_background:uniform_lbg (Sequence.of_string alpha probe)
             in
             Float.is_finite r.log_sim));
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"score monotone under cluster growth toward probe" ~count:100
           seq_gen
           (fun probe ->
             (* Adding the probe itself to the cluster cannot decrease the
                probe's similarity by much; with smoothing it should
                strictly help on average. Weak form: score after >= score
                before - 1 nat. *)
             let before = smoothed_tree [ "abcd" ] in
             let s = Sequence.of_string alpha probe in
             let r1 = (Similarity.score before ~log_background:uniform_lbg s).log_sim in
             Pst.insert_sequence before s;
             Pst.insert_sequence before s;
             let r2 = (Similarity.score before ~log_background:uniform_lbg s).log_sim in
             r2 >= r1 -. 1.0));
    ]

let () =
  Alcotest.run "similarity"
    [
      ( "unit",
        [
          Alcotest.test_case "empty sequence" `Quick test_empty_sequence;
          Alcotest.test_case "DP = brute (example)" `Quick test_dp_equals_brute_on_example;
          Alcotest.test_case "segment achieves score" `Quick test_best_segment_achieves_score;
          Alcotest.test_case "matching scores higher" `Quick test_matching_scores_higher;
          Alcotest.test_case "paper Table 1" `Quick test_table1_recurrence;
          Alcotest.test_case "log/linear conversion" `Quick test_log_linear_conversion;
          Alcotest.test_case "empty-result sentinel" `Quick test_empty_result_sentinel;
          Alcotest.test_case "empty sequence through pipeline" `Quick
            test_empty_sequence_through_pipeline;
        ] );
      ("property", qcheck_tests);
    ]
