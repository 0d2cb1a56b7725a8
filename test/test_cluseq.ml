(* Integration tests for the full CLUSEQ algorithm. *)

let small_workload ?(seed = 3) ?(n = 200) ?(k = 4) () =
  Workload.generate
    {
      Workload.default_params with
      n_sequences = n;
      avg_length = 250;
      n_clusters = k;
      contexts_per_cluster = 120;
      concentration = 0.15;
      seed;
    }

let small_config =
  {
    Cluseq.default_config with
    k_init = 2;
    significance = 8;
    min_residual = Some 8;
    t_init = 1.2;
    max_iterations = 30;
  }

let run_small () =
  let w = small_workload () in
  (w, Cluseq.run ~config:small_config w.db)

let test_recovers_planted_clusters () =
  let w, res = run_small () in
  Alcotest.(check bool)
    (Printf.sprintf "cluster count near truth (got %d)" res.n_clusters)
    true
    (abs (res.n_clusters - 4) <= 1);
  let hard = Cluseq.hard_labels res ~n:(Seq_database.n_sequences w.db) in
  let ari = Metrics.adjusted_rand_index ~truth:w.labels ~pred:hard in
  Alcotest.(check bool) (Printf.sprintf "ARI > 0.6 (got %.3f)" ari) true (ari > 0.6)

let test_deterministic () =
  let w = small_workload () in
  let r1 = Cluseq.run ~config:small_config w.db in
  let r2 = Cluseq.run ~config:small_config w.db in
  Alcotest.(check int) "same cluster count" r1.n_clusters r2.n_clusters;
  Alcotest.(check int) "same iterations" r1.iterations r2.iterations;
  Alcotest.(check bool) "same assignments" true (r1.assignments = r2.assignments)

let test_seed_changes_run () =
  let w = small_workload () in
  let r1 = Cluseq.run ~config:small_config w.db in
  let r2 = Cluseq.run ~config:{ small_config with seed = 99 } w.db in
  (* Different seeds explore different paths; at minimum the histories
     should differ (they may still converge to the same clustering). *)
  Alcotest.(check bool) "some difference in trajectory" true
    (r1.history <> r2.history || r1.assignments <> r2.assignments)

let test_result_invariants () =
  let w, res = run_small () in
  let n = Seq_database.n_sequences w.db in
  (* Assignments and cluster member lists are two views of one relation. *)
  Array.iter
    (fun (id, members) ->
      Array.iter
        (fun sid ->
          Alcotest.(check bool) "member has assignment" true (List.mem id res.assignments.(sid)))
        members)
    res.clusters;
  Array.iteri
    (fun sid cls ->
      List.iter
        (fun c ->
          let _, members =
            Array.to_list res.clusters |> List.find (fun (id, _) -> id = c)
          in
          Alcotest.(check bool) "assignment has member" true (Array.mem sid members))
        cls)
    res.assignments;
  (* Outliers are exactly the unassigned sequences. *)
  let unassigned = List.filter (fun i -> res.assignments.(i) = []) (List.init n Fun.id) in
  Alcotest.(check (list int)) "outliers" unassigned res.outliers;
  Alcotest.(check int) "n_clusters consistent" (Array.length res.clusters) res.n_clusters;
  Alcotest.(check bool) "iterations within cap" true
    (res.iterations >= 1 && res.iterations <= small_config.max_iterations);
  Alcotest.(check int) "history length" res.iterations (List.length res.history)

let test_insensitive_to_k_init () =
  (* Paper Table 5: the final clustering is insensitive to the initial k. *)
  let w = small_workload ~seed:5 () in
  let counts =
    List.map
      (fun k_init ->
        (Cluseq.run ~config:{ small_config with k_init } w.db).n_clusters)
      [ 1; 4; 10 ]
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "k=%d near 4" k) true (abs (k - 4) <= 1))
    counts

let test_threshold_converges_from_varied_inits () =
  (* Paper Table 6: the final t is insensitive to the initial t. *)
  let w = small_workload ~seed:7 () in
  let finals =
    List.map
      (fun t_init ->
        log (Cluseq.run ~config:{ small_config with t_init } w.db).final_t)
      [ 1.05; 2.0; 20.0 ]
  in
  match finals with
  | [ a; b; c ] ->
      let spread = Float.max a (Float.max b c) -. Float.min a (Float.min b c) in
      (* All runs must land in the same order of magnitude (log spread
         bounded), far tighter than the e^0.05 .. e^3 initial spread. *)
      Alcotest.(check bool) (Printf.sprintf "final t spread %.1f bounded" spread) true (spread < 100.0)
  | _ -> assert false

(* Characterization of the ROADMAP "threshold convergence" finding, as a
   pinned trajectory: while threshold adjustment is live, fresh-seed
   score columns keep perturbing the valley histogram, so on the
   synthetic workload [t] never freezes and the run exhausts
   [max_iterations] instead of converging. This test asserts the CURRENT
   (undesirable) behavior via the [threshold.adjusted] journal events —
   any future fix (age-weighted samples, per-cohort valleys, …) must
   flip these assertions knowingly rather than drift past them. *)
let test_threshold_jitter_characterization () =
  (* The bench suite's synthetic workload at smoke scale (0.25): 150
     sequences, 8 planted clusters — the exact run BENCH_baseline.json
     records, where the finding was made. *)
  let w =
    Workload.generate
      {
        Workload.default_params with
        n_sequences = 150;
        avg_length = 250;
        n_clusters = 8;
        contexts_per_cluster = 120;
        concentration = 0.15;
        seed = 7;
      }
  in
  let config =
    { small_config with k_init = 2; max_iterations = 30; seed = 3 }
  in
  let path = Filename.temp_file "cluseq_thresh" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  Obs.Journal.open_file path;
  let res =
    Fun.protect ~finally:Obs.Journal.close (fun () -> Cluseq.run ~config w.db)
  in
  Alcotest.(check int) "runs to max_iterations without converging" config.max_iterations
    res.iterations;
  let entries =
    match Obs.Journal.read_file path with Ok es -> es | Error m -> Alcotest.fail m
  in
  let adjusted =
    List.filter (fun e -> e.Obs.Journal.j_event = "threshold.adjusted") entries
  in
  Alcotest.(check int) "one adjustment record per iteration" res.iterations
    (List.length adjusted);
  let num name e =
    match List.assoc_opt name e.Obs.Journal.j_fields with
    | Some (Bench_json.Num v) -> v
    | _ -> Alcotest.fail (name ^ " missing or not a number")
  in
  let frozen e =
    match List.assoc_opt "frozen" e.Obs.Journal.j_fields with
    | Some (Bench_json.Bool b) -> b
    | _ -> Alcotest.fail "frozen missing or not a bool"
  in
  List.iter
    (fun e -> Alcotest.(check bool) "threshold never freezes" false (frozen e))
    adjusted;
  (* The jittering valley: t is still moving at the iteration horizon —
     the last 10 adjustments do not settle on one value. *)
  let ts = List.map (num "new_t") adjusted in
  let tail = List.filteri (fun i _ -> i >= List.length ts - 10) ts in
  let rec still_moving = function
    | a :: (b :: _ as rest) -> (not (Float.equal a b)) || still_moving rest
    | _ -> false
  in
  Alcotest.(check bool) "valley still jitters over the last 10 iterations" true
    (still_moving tail);
  (* Sanity: the journal's trajectory is the history's trajectory. *)
  List.iteri
    (fun i (st : Cluseq.iteration_stats) ->
      Alcotest.(check (float 1e-12)) "history matches journal" (List.nth ts i) st.threshold)
    res.history

let test_outliers_detected () =
  let w =
    Workload.generate
      {
        Workload.default_params with
        n_sequences = 200;
        avg_length = 250;
        n_clusters = 3;
        contexts_per_cluster = 120;
        concentration = 0.15;
        outlier_fraction = 0.10;
        seed = 13;
      }
  in
  let res = Cluseq.run ~config:small_config w.db in
  let hard = Cluseq.hard_labels res ~n:(Seq_database.n_sequences w.db) in
  let pred_class = Matching.relabel ~truth:w.labels ~pred:hard in
  let det = Metrics.outlier_detection ~truth:w.labels ~pred_class in
  Alcotest.(check bool) (Printf.sprintf "outlier recall %.2f > 0.5" det.recall) true (det.recall > 0.5)

let test_no_consolidation_keeps_more_clusters () =
  let w = small_workload () in
  let with_c = Cluseq.run ~config:small_config w.db in
  let without_c = Cluseq.run ~config:{ small_config with consolidate = false } w.db in
  Alcotest.(check bool) "consolidation prunes clusters" true
    (without_c.n_clusters >= with_c.n_clusters)

let test_fixed_threshold_mode () =
  let w = small_workload () in
  let res = Cluseq.run ~config:{ small_config with adjust_threshold = false; t_init = 5.0 } w.db in
  Alcotest.(check (float 1e-9)) "t unchanged when adjustment off" 5.0 res.final_t

let test_orders_all_run () =
  let w = small_workload ~n:120 () in
  List.iter
    (fun order ->
      let res = Cluseq.run ~config:{ small_config with order } w.db in
      Alcotest.(check bool) (Order.to_string order ^ " produced clusters") true (res.n_clusters >= 1))
    [ Order.Fixed; Order.Random; Order.Cluster_based ]

let test_scaled_config () =
  let c = Cluseq.scaled_config ~expected_cluster_size:40 () in
  Alcotest.(check int) "c = size/4" 10 c.significance;
  Alcotest.(check (option int)) "residual follows" (Some 10) c.min_residual;
  let tiny = Cluseq.scaled_config ~expected_cluster_size:3 () in
  Alcotest.(check int) "floored at 4" 4 tiny.significance;
  let huge = Cluseq.scaled_config ~expected_cluster_size:100000 () in
  Alcotest.(check int) "capped at paper's 30" 30 huge.significance;
  Alcotest.(check bool) "invalid size rejected" true
    (try ignore (Cluseq.scaled_config ~expected_cluster_size:0 ()); false
     with Invalid_argument _ -> true)

let test_config_validation () =
  let w = small_workload ~n:120 () in
  Alcotest.(check bool) "k_init 0 rejected" true
    (try ignore (Cluseq.run ~config:{ small_config with k_init = 0 } w.db); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "t < 1 rejected" true
    (try ignore (Cluseq.run ~config:{ small_config with t_init = 0.9 } w.db); false
     with Invalid_argument _ -> true)

let test_tiny_database () =
  let alpha = Alphabet.lowercase in
  let db = Seq_database.of_strings alpha [ "ababab"; "bababa"; "cdcdcd" ] in
  let res =
    Cluseq.run
      ~config:{ small_config with significance = 2; min_residual = Some 1; k_init = 1 }
      db
  in
  Alcotest.(check bool) "tiny database runs" true (res.n_clusters >= 1)

let test_single_sequence () =
  let alpha = Alphabet.lowercase in
  let db = Seq_database.of_strings alpha [ "abcabc" ] in
  let res =
    Cluseq.run ~config:{ small_config with significance = 2; min_residual = Some 1 } db
  in
  Alcotest.(check bool) "single sequence runs" true (res.iterations >= 1)

(* An empty database has nothing to iterate on: the plain and the
   sharded paths both return at once, with identical results — the
   final threshold included, at a [t_init] that [exp (log t)] does not
   give back exactly. *)
let test_empty_database () =
  let db = Seq_database.of_strings Alphabet.lowercase [] in
  let config = { small_config with t_init = 3.0 } in
  let plain = Cluseq.run ~config db in
  let sharded = Shard.run ~config ~shards:2 db in
  Alcotest.(check int) "no iterations" 0 plain.iterations;
  Alcotest.(check int) "history empty" 0 (List.length plain.history);
  Alcotest.(check int) "sharded: no iterations" 0 sharded.iterations;
  Alcotest.(check int) "same cluster count" sharded.n_clusters plain.n_clusters;
  Alcotest.(check bool) "same clusters" true (plain.clusters = sharded.clusters);
  Alcotest.(check bool) "same outliers" true (plain.outliers = sharded.outliers);
  Alcotest.(check (float 0.0)) "same final t" sharded.final_t plain.final_t;
  Alcotest.(check (float 0.0)) "final t as given" 3.0 plain.final_t

(* The drift panel keeps its pair divergences across iterations and
   recomputes a pair only once either model changed: every iteration's
   mean must still equal the tree walk over that iteration's models,
   bit for bit. The models are read by the audit hook after
   consolidation, the state the panel measures. *)
let test_drift_kl_matches_tree_walk () =
  let w = small_workload ~n:120 () in
  let expected = ref [] in
  let on_iteration ~iteration:_ ~n:_ ~clusters =
    let panel = List.filteri (fun i _ -> i < 8) clusters in
    let rec pairs = function
      | [] -> []
      | a :: rest ->
          List.map (fun b -> Ref_divergence.kl_symmetric (Cluster.pst a) (Cluster.pst b)) rest
          @ pairs rest
    in
    let kls = pairs panel in
    let mean =
      match kls with
      | [] -> 0.0
      | _ -> List.fold_left ( +. ) 0.0 kls /. float_of_int (List.length kls)
    in
    expected := mean :: !expected
  in
  Obs.Metrics.enable ();
  Cluseq.set_auditor
    (Some
       { Cluseq.on_recluster = (fun _ ~after:_ ~decided:_ -> ()); on_iteration });
  let res =
    Fun.protect
      ~finally:(fun () ->
        Cluseq.set_auditor None;
        Obs.Metrics.disable ())
      (fun () -> Cluseq.run ~config:small_config w.db)
  in
  Alcotest.(check int) "one panel per iteration" res.iterations (List.length !expected);
  List.iter2
    (fun (h : Cluseq.iteration_stats) want ->
      match h.drift with
      | None -> Alcotest.fail "drift panel missing with metrics on"
      | Some d ->
          Alcotest.(check int64)
            (Printf.sprintf "iteration %d mean KL bits" h.iteration)
            (Int64.bits_of_float want)
            (Int64.bits_of_float d.mean_intercluster_kl))
    res.history (List.rev !expected)

(* Each iteration's [membership_changes] counts the sequences whose set
   of clusters after consolidation differs from the previous
   iteration's (the first iteration starts from none), and
   [unclustered] those in no cluster. The audit hook records the sets;
   the run dismisses a cluster that held members, all of which count as
   changed. *)
let test_membership_changes_counted () =
  let w = small_workload ~seed:11 ~k:6 () in
  let records = ref [] in
  let on_iteration ~iteration:_ ~n ~clusters =
    let sets = Array.make n [] in
    List.iter
      (fun cl ->
        Bitset.iter (fun i -> sets.(i) <- Cluster.id cl :: sets.(i)) (Cluster.members cl))
      clusters;
    records :=
      (List.map (fun cl -> (Cluster.id cl, Cluster.size cl)) clusters, sets) :: !records
  in
  Cluseq.set_auditor
    (Some { Cluseq.on_recluster = (fun _ ~after:_ ~decided:_ -> ()); on_iteration });
  let res =
    Fun.protect
      ~finally:(fun () -> Cluseq.set_auditor None)
      (fun () -> Cluseq.run ~config:small_config w.db)
  in
  Alcotest.(check int) "one record per iteration" res.iterations (List.length !records);
  let n = Seq_database.n_sequences w.db in
  let prev = ref ([], Array.make n []) and dismissed_members = ref false in
  List.iter2
    (fun (h : Cluseq.iteration_stats) ((sizes, sets) as now) ->
      let prev_sizes, prev_sets = !prev in
      let count p = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 in
      let changed = count Fun.id (Array.map2 ( <> ) prev_sets sets) in
      Alcotest.(check int) (Printf.sprintf "iteration %d changes" h.iteration) changed
        h.membership_changes;
      Alcotest.(check int)
        (Printf.sprintf "iteration %d unclustered" h.iteration)
        (count (( = ) []) sets) h.unclustered;
      if List.exists (fun (id, size) -> size > 0 && not (List.mem_assoc id sizes)) prev_sizes
      then dismissed_members := true;
      prev := now)
    res.history (List.rev !records);
  Alcotest.(check bool) "a cluster holding members was dismissed" true !dismissed_members

let test_hard_labels () =
  let w, res = run_small () in
  let n = Seq_database.n_sequences w.db in
  let hard = Cluseq.hard_labels res ~n in
  Array.iteri
    (fun i l ->
      if res.assignments.(i) = [] then Alcotest.(check int) "outlier label" (-1) l
      else Alcotest.(check bool) "label among joined" true (List.mem l res.assignments.(i)))
    hard

let test_history_consistency () =
  let _, res = run_small () in
  let last = List.nth res.history (List.length res.history - 1) in
  Alcotest.(check int) "final cluster count matches history" res.n_clusters last.clusters;
  Alcotest.(check (float 1e-9)) "final t matches history" res.final_t last.threshold;
  List.iteri
    (fun i (h : Cluseq.iteration_stats) ->
      Alcotest.(check int) "iterations numbered from 1" (i + 1) h.iteration)
    res.history

(* The score-column cache must be invisible: same results, and the same
   census once reused pairs count as scored. The run has to reuse
   columns for that to mean anything, so adjustment is off and a fixed
   threshold keeps the six planted clusters apart long enough for clean
   clusters to serve their cached columns. *)
let test_cache_invisible () =
  let w =
    Workload.generate
      {
        Workload.default_params with
        n_sequences = 100;
        avg_length = 120;
        n_clusters = 6;
        contexts_per_cluster = 120;
        concentration = 0.15;
        seed = 7;
      }
  in
  let config =
    {
      small_config with
      adjust_threshold = false;
      t_init = exp 10.0;
      max_iterations = 25;
      seed = 3;
    }
  in
  Alcotest.(check (list string)) "cache on = cache off" [] (Check.cache_agrees ~config w.db);
  let r = Cluseq.run ~config w.db in
  Alcotest.(check bool) "cached columns were reused" true
    (List.exists (fun (st : Cluseq.iteration_stats) -> st.census.pairs_reused > 0) r.history)

(* Robustness: CLUSEQ must terminate and return a consistent result on
   arbitrary small databases — including degenerate ones with repeated,
   constant, or single-symbol sequences. *)
let qcheck_tests =
  let seq_gen = QCheck.(string_gen_of_size (Gen.int_range 1 30) (Gen.char_range 'a' 'c')) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"terminates with consistent result on arbitrary input" ~count:60
         QCheck.(pair (list_of_size (Gen.int_range 1 12) seq_gen) small_int)
         (fun (texts, seed) ->
           let db = Seq_database.of_strings Alphabet.lowercase texts in
           let config =
             {
               small_config with
               significance = 2;
               min_residual = Some 1;
               max_iterations = 10;
               seed;
             }
           in
           let res = Cluseq.run ~config db in
           let n = Seq_database.n_sequences db in
           res.iterations >= 1
           && res.n_clusters = Array.length res.clusters
           && List.for_all (fun i -> res.assignments.(i) = []) res.outliers
           && Array.for_all
                (fun (id, members) ->
                  Array.for_all (fun sid -> List.mem id res.assignments.(sid)) members)
                res.clusters
           && Array.length res.best = n));
  ]

let () =
  Alcotest.run "cluseq"
    [
      ( "integration",
        [
          Alcotest.test_case "recovers planted clusters" `Slow test_recovers_planted_clusters;
          Alcotest.test_case "deterministic" `Slow test_deterministic;
          Alcotest.test_case "seed changes run" `Slow test_seed_changes_run;
          Alcotest.test_case "result invariants" `Slow test_result_invariants;
          Alcotest.test_case "insensitive to k_init" `Slow test_insensitive_to_k_init;
          Alcotest.test_case "threshold converges" `Slow test_threshold_converges_from_varied_inits;
          Alcotest.test_case "threshold jitter characterization" `Slow
            test_threshold_jitter_characterization;
          Alcotest.test_case "outliers detected" `Slow test_outliers_detected;
          Alcotest.test_case "consolidation effect" `Slow test_no_consolidation_keeps_more_clusters;
          Alcotest.test_case "fixed threshold mode" `Slow test_fixed_threshold_mode;
          Alcotest.test_case "all orders run" `Slow test_orders_all_run;
          Alcotest.test_case "cache invisible" `Slow test_cache_invisible;
          Alcotest.test_case "drift KL matches the tree walk" `Slow
            test_drift_kl_matches_tree_walk;
          Alcotest.test_case "membership changes counted" `Slow test_membership_changes_counted;
        ] );
      ("property", qcheck_tests);
      ( "edge-cases",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "scaled config" `Quick test_scaled_config;
          Alcotest.test_case "tiny database" `Quick test_tiny_database;
          Alcotest.test_case "single sequence" `Quick test_single_sequence;
          Alcotest.test_case "empty database" `Quick test_empty_database;
          Alcotest.test_case "hard labels" `Slow test_hard_labels;
          Alcotest.test_case "history consistency" `Slow test_history_consistency;
        ] );
    ]
