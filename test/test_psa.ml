(* Tests for the compiled scoring automaton (Psa): structural units plus
   QCheck properties asserting *exact* float equality between the
   compiled scan and the tree walk — the bit-for-bit contract the fuzz
   oracle (Check.psa_scoring_matches) also enforces — and between the
   batched kernel and the serial scan (Check.batch_scoring_matches). *)

open Gen_common

let seq_of s = Sequence.of_string alpha s

(* --- units --- *)

let test_empty_tree () =
  let pst = build_pst [] in
  let psa = Psa.compile pst in
  Alcotest.(check int) "one state" 1 (Psa.n_states psa);
  Alcotest.(check int) "alphabet" 26 (Psa.alphabet_size psa);
  Alcotest.(check int) "root depth" 0 (Psa.prediction_depth psa 0);
  let n = Psa.alphabet_size psa in
  for sym = 0 to n - 1 do
    Alcotest.(check int) "self-loop" 0 (Psa.step psa 0 sym)
  done;
  Alcotest.(check int) "table size" n (Bigarray.Array1.dim (Psa.transitions psa))

let test_transitions_in_range () =
  let pst = build_pst [ "abcabcabc"; "abcbabcba"; "aaaabbbb" ] in
  let psa = Psa.compile pst in
  let ns = Psa.n_states psa in
  Alcotest.(check bool) "has non-root states" true (ns > 1);
  let trans = Psa.transitions psa in
  for i = 0 to Bigarray.Array1.dim trans - 1 do
    let q = Bigarray.Array1.get trans i in
    Alcotest.(check bool) "state in range" true (q >= 0 && q < ns)
  done;
  Alcotest.(check int) "table shape" (ns * 26) (Bigarray.Array1.dim (Psa.transitions psa));
  Alcotest.(check int) "emit shape" (ns * 26) (Bigarray.Array1.dim (Psa.emissions psa));
  Alcotest.(check bool) "tables account their bytes" true (Psa.table_bytes psa >= 16 * ns * 26)

let test_empty_sequence () =
  let pst = build_pst [ "abab" ] in
  let psa = Psa.compile pst in
  let empty = seq_of "" in
  let a = Similarity.score pst ~log_background:uniform_lbg empty in
  let b = Similarity.score_psa psa ~log_background:uniform_lbg empty in
  Alcotest.(check bool) "empty result equal" true (a = b);
  Alcotest.(check int) "xs empty" 0
    (Array.length (Similarity.xs_psa psa ~log_background:uniform_lbg empty))

let test_symbol_out_of_alphabet () =
  let pst = build_pst ~alphabet_size:4 [ "abab" ] in
  let psa = Psa.compile pst in
  let lbg = Array.make 26 (log (1.0 /. 26.0)) in
  Alcotest.check_raises "symbol 25 vs alphabet 4"
    (Invalid_argument "Similarity.score_psa: symbol outside the compiled alphabet")
    (fun () -> ignore (Similarity.score_psa psa ~log_background:lbg (seq_of "abz")));
  let batch = Psa.batch_create () in
  Alcotest.check_raises "batched symbol 25 vs alphabet 4"
    (Invalid_argument "Psa.score_batch: symbol outside the compiled alphabet")
    (fun () ->
      ignore (Similarity.score_batch psa ~log_background:lbg ~batch [| seq_of "abz" |]))

let test_validate_log_background () =
  Similarity.validate_log_background uniform_lbg;
  Similarity.validate_log_background [| 0.0; -1.5 |];
  let rejects lbg =
    match Similarity.validate_log_background lbg with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  rejects [| -1.0; neg_infinity |];
  rejects [| nan |];
  rejects [| 0.5 |]

(* --- batch units: block shapes the properties may hit rarely --- *)

let test_batch_shapes () =
  let pst = build_pst [ "abcabcabc"; "aabbaabb" ] in
  let psa = Psa.compile pst in
  let batch = Psa.batch_create ~capacity:1 () in
  let score_serial s = Similarity.score_psa psa ~log_background:uniform_lbg s in
  let check_block name block =
    let got = Similarity.score_batch psa ~log_background:uniform_lbg ~batch block in
    let want = Array.map score_serial block in
    Alcotest.(check bool) name true (got = want)
  in
  check_block "empty block" [||];
  check_block "singleton block" [| seq_of "abcab" |];
  check_block "block of empties" [| seq_of ""; seq_of "" |];
  (* Mixed lengths out of order: exercises the longest-first lane sort
     and lane retirement; includes an empty lane in the middle. *)
  check_block "mixed lengths"
    [| seq_of "ab"; seq_of "abcabcabcabc"; seq_of ""; seq_of "b"; seq_of "aabb" |];
  (* The capacity-1 scratch has grown by now; a small block after a large
     one checks stale columns are re-initialized. *)
  check_block "small after large" [| seq_of "ba" |];
  Alcotest.(check bool) "scratch grew" true (Psa.batch_capacity batch >= 5)

(* --- refresh: in place while the active contexts hold still --- *)

let tables_equal_fresh name pst psa =
  Alcotest.(check (list string)) name [] (Check.psa_tables_match ~fresh:(Psa.compile pst) psa)

let test_refresh_lifecycle () =
  (* Every context of "abcabc" is seen at most twice: below c = 3, so
     the automaton is the root alone. *)
  let pst = build_pst ~significance:3 [ "abcabc" ] in
  let psa = Psa.compile pst in
  Alcotest.(check int) "root only" 1 (Psa.n_states psa);
  (* Counts move but no context reaches 3: the root row is rewritten in
     place and the tables equal a fresh compile's. *)
  Pst.insert_segment pst (seq_of "dd") ~lo:0 ~hi:1;
  Alcotest.(check bool) "refreshed in place" true (Psa.refresh psa pst);
  tables_equal_fresh "refreshed = fresh compile" pst psa;
  (* 'a' reaches the significance count: the active set grew, so the
     refresh refuses and leaves the automaton as it was. *)
  let before = Psa.emission psa 0 0 in
  Pst.insert_segment pst (seq_of "a") ~lo:0 ~hi:0;
  Alcotest.(check bool) "refused after a crossing" false (Psa.refresh psa pst);
  Alcotest.(check (float 0.0)) "untouched when refused" before (Psa.emission psa 0 0);
  let psa = Psa.compile pst in
  Alcotest.(check int) "recompile adds the context" 2 (Psa.n_states psa);
  Alcotest.(check bool) "refused against a copy" false (Psa.refresh psa (Pst.copy pst));
  (* Pruning that removes a significant node changes the active set too. *)
  Pst.prune_to pst 1;
  Alcotest.(check bool) "refused after pruning a significant node" false (Psa.refresh psa pst)

(* --- properties: exact equality with the tree walk --- *)

let exact_match pst probes =
  List.for_all
    (fun text ->
      let s = seq_of text in
      let psa = Psa.compile pst in
      let ref_xs = Similarity.xs pst ~log_background:uniform_lbg s in
      let got_xs = Similarity.xs_psa psa ~log_background:uniform_lbg s in
      Array.length ref_xs = Array.length got_xs
      && Array.for_all2 Float.equal ref_xs got_xs
      && Similarity.score pst ~log_background:uniform_lbg s
         = Similarity.score_psa psa ~log_background:uniform_lbg s)
    probes

(* The whole probe list scored as ONE block must reproduce both the
   serial compiled scan and the tree walk, record for record — the
   [result] records carry the float bits, so [=] is exact equality. *)
let exact_batch_match pst probes =
  let psa = Psa.compile pst in
  let block = Array.of_list (List.map seq_of probes) in
  let batch = Psa.batch_create ~capacity:1 () in
  let batched = Similarity.score_batch psa ~log_background:uniform_lbg ~batch block in
  let serial = Array.map (Similarity.score_psa psa ~log_background:uniform_lbg) block in
  let tree = Array.map (Similarity.score pst ~log_background:uniform_lbg) block in
  batched = serial && batched = tree

let arb_texts_and_probes ?last () =
  QCheck.pair (texts_gen ~max_seqs:4 ()) (texts_gen ~min_seqs:1 ~max_seqs:3 ?last ())

let prop name ?p_min ?significance ?(last = 'd') ?(prune = false) () =
  QCheck.Test.make ~name ~count:150
    (arb_texts_and_probes ~last ())
    (fun (texts, probes) ->
      let pst = build_pst ?p_min ?significance texts in
      if prune then Pst.prune_to pst (max 1 (Pst.n_nodes pst / 2));
      exact_match pst probes)

let batch_prop name ?p_min ?significance ?(last = 'd') ?(prune = false) () =
  QCheck.Test.make ~name ~count:150
    (* min_seqs:0 admits the empty block; max_seqs:6 gives blocks larger
       than the scratch's initial capacity. *)
    (QCheck.pair (texts_gen ~max_seqs:4 ()) (texts_gen ~min_seqs:0 ~max_seqs:6 ~last ()))
    (fun (texts, probes) ->
      let pst = build_pst ?p_min ?significance texts in
      if prune then Pst.prune_to pst (max 1 (Pst.n_nodes pst / 2));
      exact_batch_match pst probes)

(* A stream of segments inserted into a tree with a small significance
   count and a node budget that forces pruning, one automaton kept
   current by refresh-or-recompile — the cluster lifecycle. After every
   insertion it must equal a fresh compile table for table and score
   each probe exactly like the tree walk (X_i profile, log-similarity,
   segment bounds, prediction depth per position). *)
let maintained_prop name ~p_min =
  let segment = QCheck.(triple (make (QCheck.gen (seq_gen ~max_len:20 ()))) small_nat small_nat) in
  QCheck.Test.make ~name ~count:150
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 12) segment)
        (texts_gen ~min_seqs:1 ~max_seqs:3 ())
        (oneofl Pruning.[ Smallest_count_first; Longest_label_first; Expected_vector_first ]))
    (fun (stream, probes, pruning) ->
      let pst = build_pst ~p_min ~significance:2 ~max_nodes:40 ~pruning [] in
      let probes = Array.of_list (List.map seq_of probes) in
      let psa = ref (Psa.compile pst) in
      List.for_all
        (fun (text, a, b) ->
          let s = seq_of text in
          let l = Array.length s in
          let lo = a mod l in
          Pst.insert_segment pst s ~lo ~hi:(lo + (b mod (l - lo)));
          if not (Psa.refresh !psa pst) then psa := Psa.compile pst;
          Check.psa_tables_match ~fresh:(Psa.compile pst) !psa = []
          && Check.psa_scoring_matches ~psa:!psa pst ~log_background:uniform_lbg probes = [])
        stream)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest (maintained_prop "maintained psa = fresh = tree walk" ~p_min:0.0);
    QCheck_alcotest.to_alcotest
      (maintained_prop "maintained psa = fresh = tree walk (p_min = 0.01)" ~p_min:0.01);
    QCheck_alcotest.to_alcotest (prop "psa = tree walk (p_min = 0)" ~p_min:0.0 ());
    QCheck_alcotest.to_alcotest (prop "psa = tree walk (p_min = 0.02)" ~p_min:0.02 ());
    QCheck_alcotest.to_alcotest
      (prop "psa = tree walk (significance 1, deep tree)" ~significance:1 ());
    (* Probes over the full alphabet against a tree trained on 'a'..'d':
       most probe symbols have no node anywhere in the tree. *)
    QCheck_alcotest.to_alcotest (prop "psa = tree walk (absent symbols)" ~last:'z' ());
    (* Pruning can remove a context while a longer extension survives —
       the case that forces the automaton's closure states. *)
    QCheck_alcotest.to_alcotest (prop "psa = tree walk (pruned tree)" ~prune:true ());
    QCheck_alcotest.to_alcotest
      (prop "psa = tree walk (pruned, p_min = 0.01)" ~prune:true ~p_min:0.01 ());
    QCheck_alcotest.to_alcotest (batch_prop "batch = serial = tree walk" ());
    QCheck_alcotest.to_alcotest
      (batch_prop "batch = serial = tree walk (absent symbols)" ~last:'z' ());
    QCheck_alcotest.to_alcotest
      (batch_prop "batch = serial = tree walk (pruned tree)" ~prune:true ());
    (* The fuzz oracles themselves: no violations on random trees/probes. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Check.psa_scoring_matches finds no violations" ~count:100
         (arb_texts_and_probes ())
         (fun (texts, probes) ->
           let pst = build_pst texts in
           let probes = Array.of_list (List.map seq_of probes) in
           Check.psa_scoring_matches pst ~log_background:uniform_lbg probes = []));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Check.batch_scoring_matches finds no violations" ~count:100
         (arb_texts_and_probes ())
         (fun (texts, probes) ->
           let pst = build_pst texts in
           let probes = Array.of_list (List.map seq_of probes) in
           let blocks = [ [||]; probes; [| [||] |]; Array.sub probes 0 1 ] in
           Check.batch_scoring_matches pst ~log_background:uniform_lbg blocks = []));
  ]

let () =
  Alcotest.run "psa"
    [
      ( "unit",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "transitions in range" `Quick test_transitions_in_range;
          Alcotest.test_case "empty sequence" `Quick test_empty_sequence;
          Alcotest.test_case "symbol out of alphabet" `Quick test_symbol_out_of_alphabet;
          Alcotest.test_case "validate_log_background" `Quick test_validate_log_background;
          Alcotest.test_case "batch block shapes" `Quick test_batch_shapes;
          Alcotest.test_case "refresh lifecycle" `Quick test_refresh_lifecycle;
        ] );
      ("property", qcheck_tests);
    ]
