(* Tests for the correctness tooling itself (lib/check): the brute-force
   PST oracle must agree with the tree, the invariant checkers must stay
   quiet on healthy structures and loud on injected corruption, the
   auditor must pass over a real run, and the fuzz harness must be
   deterministic and able to shrink. *)

let alpha = Gen_common.alpha

let build_pair ?(p_min = 0.0) ?(significance = 2) ?(max_depth = 10) texts =
  let cfg = Gen_common.pst_cfg ~p_min ~significance ~max_depth ~max_nodes:1_000_000 () in
  let t = Pst.create cfg and oracle = Ref_pst.create cfg in
  List.iter
    (fun s ->
      let s = Sequence.of_string alpha s in
      Pst.insert_sequence t s;
      Ref_pst.insert_sequence oracle s)
    texts;
  (t, oracle)

(* --- differential oracle ---------------------------------------------- *)

let test_ref_pst_agrees_on_example () =
  let t, oracle = build_pair ~p_min:1e-3 [ "ababab"; "babba"; "cab" ] in
  Alcotest.(check (list string)) "no structural diff" [] (Ref_pst.diff oracle t);
  Alcotest.(check int) "context count" (Pst.n_nodes t) (Ref_pst.n_contexts oracle);
  let s = Sequence.of_string alpha "abba" in
  for pos = 0 to Array.length s - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "log_prob pos %d" pos)
      (Ref_pst.log_prob oracle s ~lo:0 ~pos)
      (Pst.log_prob t s ~lo:0 ~pos)
  done

let test_ref_pst_catches_divergence () =
  (* Insert one extra sequence into only one side: the diff must not be
     empty — the oracle actually discriminates. *)
  let t, oracle = build_pair [ "abab" ] in
  Ref_pst.insert_sequence oracle (Sequence.of_string alpha "bb");
  Alcotest.(check bool) "diff reports" true (Ref_pst.diff oracle t <> [])

(* --- invariant checkers ----------------------------------------------- *)

let test_pst_invariants_clean () =
  let t = Gen_common.build_pst ~p_min:1e-3 [ "abcabcab"; "bbca" ] in
  Alcotest.(check (list string)) "healthy tree" [] (Check.pst_invariants t);
  Pst.prune_to t (Pst.n_nodes t / 2);
  Alcotest.(check (list string)) "healthy after pruning" [] (Check.pst_invariants t)

(* The acceptance criterion of the check subsystem: a deliberately
   corrupted node count must be caught. The corruption is injected
   through the textual serialization (bump every depth-1 node's count
   far above its parent's), which [Pst.of_string] restores verbatim. *)
let test_pst_invariants_catch_injected_corruption () =
  let t = Gen_common.build_pst [ "ababab"; "bba" ] in
  Alcotest.(check (list string)) "clean before tampering" [] (Check.pst_invariants t);
  let tampered =
    String.split_on_char '\n' (Pst.to_string t)
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           (* depth-1 nodes serialize with a single-symbol (comma-free,
              non-"-") path *)
           | "node" :: path :: count :: rest when int_of_string_opt path <> None ->
               String.concat " "
                 ("node" :: path :: string_of_int (int_of_string count + 1000) :: rest)
           | _ -> line)
    |> String.concat "\n"
  in
  let corrupt = Pst.of_string tampered in
  Alcotest.(check bool) "tampering changed the tree" false (Pst.equal_structure t corrupt);
  Alcotest.(check bool) "corruption caught" true (Check.pst_invariants corrupt <> [])

let test_result_invariants_on_real_run () =
  let db, _ = Lazy.force Gen_common.small_db_and_truth in
  let r = Gen_common.with_domains 2 (fun () -> Cluseq.run ~config:Gen_common.small_config db) in
  Alcotest.(check (list string)) "clean result" []
    (Check.result_invariants ~n:(Seq_database.n_sequences db) r)

let test_result_invariants_catch_bogus_assignment () =
  let db, _ = Lazy.force Gen_common.small_db_and_truth in
  let r = Gen_common.with_domains 1 (fun () -> Cluseq.run ~config:Gen_common.small_config db) in
  let assignments = Array.copy r.assignments in
  assignments.(0) <- [ 999_999 ];
  let tampered = { r with assignments } in
  Alcotest.(check bool) "bogus cluster id caught" true
    (Check.result_invariants ~n:(Seq_database.n_sequences db) tampered <> [])

(* --- auditor ----------------------------------------------------------- *)

let test_auditor_passes_on_real_run () =
  let db, _ = Lazy.force Gen_common.small_db_and_truth in
  Check.install_auditor ();
  Fun.protect ~finally:Check.uninstall_auditor (fun () ->
      List.iter
        (fun d ->
          let r =
            Gen_common.with_domains d (fun () -> Cluseq.run ~config:Gen_common.small_config db)
          in
          Alcotest.(check bool)
            (Printf.sprintf "audited run at %d domains clusters" d)
            true (r.n_clusters > 0))
        [ 1; 4 ])

(* A deciding score moved by one ulp flips no join, yet it moves [best]
   and the threshold samples: the replay must still report it, and only
   it. The engine's own columns must pass unchanged. *)
let test_auditor_catches_perturbed_score () =
  let db, _ = Lazy.force Gen_common.small_db_and_truth in
  let clean_passes = ref 0 and reports = ref [] in
  let perturb_first_finite decided =
    let decided = Array.map Array.copy decided in
    (try
       Array.iter
         (fun column ->
           Array.iteri
             (fun sid (r : Similarity.result) ->
               if Float.is_finite r.log_sim then begin
                 column.(sid) <- { r with log_sim = Float.succ r.log_sim };
                 raise Exit
               end)
             column)
         decided
     with Exit -> ());
    decided
  in
  Cluseq.set_auditor
    (Some
       {
         Cluseq.on_recluster =
           (fun snap ~after ~assignments ~decided ->
             if Check.recluster_matches snap ~after ~assignments ~decided = [] then
               incr clean_passes;
             if !reports = [] then
               reports :=
                 Check.recluster_matches snap ~after ~assignments
                   ~decided:(perturb_first_finite decided));
         on_iteration = (fun ~iteration:_ ~clusters:_ ~assignments:_ -> ());
       });
  let r =
    Fun.protect ~finally:Check.uninstall_auditor (fun () ->
        Gen_common.with_domains 1 (fun () -> Cluseq.run ~config:Gen_common.small_config db))
  in
  Alcotest.(check int) "every pass clean as produced" r.iterations !clean_passes;
  match !reports with
  | [ msg ] ->
      Alcotest.(check bool) "names a cluster's deciding score" true
        (String.starts_with ~prefix:"cluster " msg)
  | msgs ->
      Alcotest.failf "expected exactly one report, got %d: %s" (List.length msgs)
        (String.concat " | " msgs)

(* --- fuzz harness ------------------------------------------------------ *)

let test_gen_case_deterministic () =
  let a = Fuzz.gen_case ~seed:123 and b = Fuzz.gen_case ~seed:123 in
  Alcotest.(check bool) "same workload" true (a.Fuzz.seqs = b.Fuzz.seqs);
  Alcotest.(check bool) "same probes" true (a.Fuzz.probes = b.Fuzz.probes);
  Alcotest.(check bool) "same config" true (a.Fuzz.cluseq_cfg = b.Fuzz.cluseq_cfg)

let test_fuzz_regression () =
  (* A small always-on slice of the fuzzer (the full 200-case sweep runs
     under `make check`). Any failure prints a replay seed. *)
  match Fuzz.run ~n:20 ~seed:7 () with
  | Ok n -> Alcotest.(check int) "all cases pass" 20 n
  | Error f -> Alcotest.fail (Format.asprintf "%a" Fuzz.pp_failure f)

let test_shrink_minimizes () =
  let case = Fuzz.gen_case ~seed:5 in
  Alcotest.(check bool) "case starts with >= 4 seqs" true (Array.length case.Fuzz.seqs >= 4);
  (* Pretend any workload with at least 3 sequences "fails": the greedy
     shrinker must walk down to exactly 3. *)
  let shrunk = Fuzz.shrink case ~still_fails:(fun c -> Array.length c.Fuzz.seqs >= 3) in
  Alcotest.(check int) "shrunk to the minimal failing size" 3 (Array.length shrunk.Fuzz.seqs);
  (* Halving also ran (the shrinker is budget-capped, so only demand
     strict progress, not fully emptied sequences). *)
  let total seqs = Array.fold_left (fun acc s -> acc + Array.length s) 0 seqs in
  Alcotest.(check bool) "surviving sequences were halved" true
    (total shrunk.Fuzz.seqs < total case.Fuzz.seqs)

(* --- properties -------------------------------------------------------- *)

let texts_gen = Gen_common.texts_gen ~min_seqs:1 ~max_seqs:5 ~min_len:0 ~max_len:30 ()

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"tree = brute-force oracle" ~count:100
         (QCheck.pair texts_gen (QCheck.oneofl [ 0.0; 1e-3; 0.01 ]))
         (fun (texts, p_min) ->
           let t, oracle = build_pair ~p_min texts in
           Ref_pst.diff oracle t = [] && Ref_pst.n_contexts oracle = Pst.n_nodes t));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"log_prob and prediction = oracle at every position" ~count:60
         (QCheck.pair texts_gen (Gen_common.seq_gen ~min_len:0 ~max_len:20 ()))
         (fun (texts, probe) ->
           let t, oracle = build_pair ~p_min:1e-3 ~significance:3 texts in
           let s = Sequence.of_string alpha probe in
           let ok = ref true in
           for pos = 0 to Array.length s - 1 do
             if not (Float.equal (Pst.log_prob t s ~lo:0 ~pos) (Ref_pst.log_prob oracle s ~lo:0 ~pos))
             then ok := false;
             if Pst.node_label t (Pst.prediction_node t s ~lo:0 ~pos)
                <> Ref_pst.prediction_label oracle s ~lo:0 ~pos
             then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pst_invariants quiet on random trees" ~count:60
         (QCheck.pair texts_gen (QCheck.oneofl [ 0.0; 1e-3 ]))
         (fun (texts, p_min) ->
           let t = Gen_common.build_pst ~p_min texts in
           Check.pst_invariants t = []
           &&
           (Pst.prune_to t (max 1 (Pst.n_nodes t / 2));
            Check.pst_invariants t = [])));
  ]

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "agrees on example" `Quick test_ref_pst_agrees_on_example;
          Alcotest.test_case "catches divergence" `Quick test_ref_pst_catches_divergence;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean tree" `Quick test_pst_invariants_clean;
          Alcotest.test_case "injected corruption caught" `Quick
            test_pst_invariants_catch_injected_corruption;
          Alcotest.test_case "clean result" `Quick test_result_invariants_on_real_run;
          Alcotest.test_case "bogus assignment caught" `Quick
            test_result_invariants_catch_bogus_assignment;
        ] );
      ( "auditor",
        [
          Alcotest.test_case "real run passes" `Quick test_auditor_passes_on_real_run;
          Alcotest.test_case "perturbed deciding score caught" `Quick
            test_auditor_catches_perturbed_score;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "generation deterministic" `Quick test_gen_case_deterministic;
          Alcotest.test_case "20-case regression" `Slow test_fuzz_regression;
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
        ] );
      ("property", qcheck_tests);
    ]
