(* Tests for the domain pool (lib/par): primitive correctness (chunk
   boundaries, exception propagation, nesting) and the pipeline-wide
   determinism contract — identical clusterings, verdicts, and medoids
   for every domain count. *)

let with_pool ~domains f =
  let pool = Par.create ~domains () in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () -> f pool)

(* --- primitives ------------------------------------------------------- *)

let test_map_matches_serial () =
  List.iter
    (fun domains ->
      with_pool ~domains @@ fun pool ->
      List.iter
        (fun n ->
          let expected = Array.init n (fun i -> (i * 7) mod 13) in
          let got = Par.map_chunks pool ~n (fun i -> (i * 7) mod 13) in
          Alcotest.(check (array int))
            (Printf.sprintf "domains=%d n=%d" domains n)
            expected got)
        [ 0; 1; 2; 3; 17; 100 ])
    [ 1; 2; 4 ]

let test_chunk_boundaries () =
  (* Explicit chunk counts around the awkward spots: more chunks than
     items, one more item than chunks, exactly equal. Every index must
     appear exactly once regardless. *)
  with_pool ~domains:3 @@ fun pool ->
  List.iter
    (fun (n, chunks) ->
      let hits = Array.make (max n 1) 0 in
      Par.parallel_for pool ~chunks ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      for i = 0 to n - 1 do
        Alcotest.(check int) (Printf.sprintf "n=%d chunks=%d slot %d" n chunks i) 1 hits.(i)
      done)
    [ (5, 8); (8, 5); (9, 8); (8, 8); (1, 4); (64, 7) ]

let test_empty_range () =
  with_pool ~domains:2 @@ fun pool ->
  Par.parallel_for pool ~lo:0 ~hi:0 (fun _ -> Alcotest.fail "body run on empty range");
  Alcotest.(check (array int)) "map on n=0" [||] (Par.map_chunks pool ~n:0 (fun i -> i))

let test_parallel_for_offset_range () =
  with_pool ~domains:2 @@ fun pool ->
  let sum = Atomic.make 0 in
  Par.parallel_for pool ~lo:3 ~hi:10 (fun i -> ignore (Atomic.fetch_and_add sum i));
  Alcotest.(check int) "sum 3..9" 42 (Atomic.get sum)

let test_exception_propagation () =
  List.iter
    (fun domains ->
      with_pool ~domains @@ fun pool ->
      (* Indexes divisible by 3 raise; the reraised exception must be the
         deterministic lowest-chunk-index failure, i.e. index 0. *)
      (match
         Par.map_chunks pool ~n:50 (fun i ->
             if i mod 3 = 0 then failwith (string_of_int i) else i)
       with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure s ->
          Alcotest.(check string)
            (Printf.sprintf "domains=%d lowest failure wins" domains)
            "0" s);
      (* The pool must survive a failed job. *)
      let got = Par.map_chunks pool ~n:10 (fun i -> i * i) in
      Alcotest.(check (array int)) "pool reusable after failure"
        (Array.init 10 (fun i -> i * i))
        got)
    [ 1; 2; 4 ]

let test_nested_submission_runs_inline () =
  with_pool ~domains:2 @@ fun pool ->
  (* A body that re-enters the pool must not deadlock; the inner job runs
     inline and still produces index-ordered results. *)
  let got =
    Par.map_chunks pool ~n:4 (fun i ->
        Array.fold_left ( + ) 0 (Par.map_chunks pool ~n:5 (fun j -> (10 * i) + j)))
  in
  Alcotest.(check (array int)) "nested results"
    (Array.init 4 (fun i -> Array.fold_left ( + ) 0 (Array.init 5 (fun j -> (10 * i) + j))))
    got

let test_shutdown () =
  let pool = Par.create ~domains:2 () in
  Par.shutdown pool;
  Par.shutdown pool;
  (* idempotent *)
  match Par.map_chunks pool ~n:3 (fun i -> i) with
  | _ -> Alcotest.fail "job accepted after shutdown"
  | exception Invalid_argument _ -> ()

let test_size_clamping () =
  with_pool ~domains:1 @@ fun p1 ->
  Alcotest.(check int) "size 1" 1 (Par.size p1);
  let p = Par.create ~domains:0 () in
  Alcotest.(check int) "0 clamps to 1" 1 (Par.size p);
  Par.shutdown p

(* --- pipeline determinism --------------------------------------------- *)

let db_and_truth = Gen_common.small_db_and_truth
let config = Gen_common.small_config
let with_domains = Gen_common.with_domains

(* The whole result at 1 domain vs 2 and 4, once with the default node
   budget and once with a budget small enough that PST pruning runs
   inside absorbs on the per-cluster apply tasks (counted through
   metrics). *)
let test_cluseq_identical_across_domain_counts () =
  let db, truth = Lazy.force db_and_truth in
  let n = Seq_database.n_sequences db in
  let accuracy r =
    let hard = Cluseq.hard_labels r ~n in
    Metrics.accuracy ~truth ~pred_class:(Matching.relabel ~truth ~pred:hard)
  in
  let run ~config d =
    with_domains d (fun () -> Gen_common.counting_prunes (fun () -> Cluseq.run ~config db))
  in
  List.iter
    (fun (label, config, must_prune) ->
      let base, base_pruned = run ~config 1 in
      if must_prune then Alcotest.(check bool) (label ^ ": pruning ran") true (base_pruned > 0);
      let base_acc = accuracy base in
      List.iter
        (fun d ->
          let r, pruned = run ~config d in
          let tag fmt = Printf.sprintf ("%s, domains=%d: " ^^ fmt) label d in
          Alcotest.(check bool)
            (tag "assignments identical") true (r.assignments = base.assignments);
          Alcotest.(check bool) (tag "clusters identical") true (r.clusters = base.clusters);
          Alcotest.(check bool) (tag "best identical") true (r.best = base.best);
          Alcotest.(check bool) (tag "outliers identical") true (r.outliers = base.outliers);
          Alcotest.(check int) (tag "n_clusters") base.n_clusters r.n_clusters;
          Alcotest.(check int) (tag "iterations") base.iterations r.iterations;
          Alcotest.(check (float 0.0)) (tag "final_t") base.final_t r.final_t;
          Alcotest.(check bool) (tag "history identical") true (r.history = base.history);
          Alcotest.(check bool) (tag "models identical") true
            (Array.for_all2
               (fun (id, m) (id', m') -> id = id' && Pst.equal_structure m m')
               base.models r.models);
          Alcotest.(check int) (tag "nodes pruned") base_pruned pruned;
          Alcotest.(check (float 0.0)) (tag "quality headline identical") base_acc (accuracy r))
        [ 2; 4 ])
    [
      ("default budget", config, false);
      ("max_nodes 1000", Gen_common.small_pruned_config, true);
    ]

(* The reclustering scan scores one automaton over a block of lanes
   (Cluster.score_columns: 64 sequences per task) and the apply tasks
   rescore dirty clusters one lane at a time: pin down that the run is
   deterministic across domain counts with the auditor installed, so
   every pass's deciding scores are also checked against the serial
   tree-walk replay ([Check.reference_recluster]). *)
let test_batched_reclustering_identical_across_domains () =
  let db, _ = Lazy.force db_and_truth in
  let run d =
    with_domains d (fun () ->
        Check.install_auditor ();
        Fun.protect ~finally:Check.uninstall_auditor (fun () -> Cluseq.run ~config db))
  in
  let strip (r : Cluseq.result) =
    (r.clusters, r.assignments, r.best, r.outliers, r.final_t, r.iterations)
  in
  let base = run 1 in
  Alcotest.(check bool) "audited @4 domains = audited @1" true (strip (run 4) = strip base)

let test_classifier_identical_across_domain_counts () =
  let db, _ = Lazy.force db_and_truth in
  let result = with_domains 1 (fun () -> Cluseq.run ~config db) in
  let clf = Classifier.of_result result db in
  let verdicts d = with_domains d (fun () -> Classifier.classify_all clf db) in
  let base = verdicts 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "verdicts identical at domains=%d" d)
        true
        (verdicts d = base))
    [ 2; 4 ]

let test_kmedoids_identical_across_domain_counts () =
  let points = Array.init 40 (fun i -> float_of_int ((i * 37) mod 97)) in
  let dist i j = Float.abs (points.(i) -. points.(j)) in
  let run d = with_domains d (fun () -> Kmedoids.run (Rng.create 9) ~k:4 ~n:40 dist) in
  let base = run 1 in
  List.iter
    (fun d ->
      let r = run d in
      let tag s = Printf.sprintf "domains=%d: %s" d s in
      Alcotest.(check (array int)) (tag "labels") base.Kmedoids.labels r.Kmedoids.labels;
      Alcotest.(check (array int)) (tag "medoids") base.medoids r.medoids;
      Alcotest.(check (float 0.0)) (tag "cost") base.cost r.cost;
      Alcotest.(check int) (tag "iterations") base.iterations r.iterations)
    [ 2; 4 ]

let test_agglomerative_identical_across_domain_counts () =
  let db, _ = Lazy.force db_and_truth in
  let run d = with_domains d (fun () -> Agglomerative.cluster ~k:3 db) in
  let base = run 1 in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "labels identical at domains=%d" d)
        base (run d))
    [ 2; 4 ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches serial" `Quick test_map_matches_serial;
          Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
          Alcotest.test_case "empty range" `Quick test_empty_range;
          Alcotest.test_case "offset range" `Quick test_parallel_for_offset_range;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested submission inline" `Quick test_nested_submission_runs_inline;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
          Alcotest.test_case "size clamping" `Quick test_size_clamping;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cluseq run identical" `Quick
            test_cluseq_identical_across_domain_counts;
          Alcotest.test_case "batched reclustering identical (domains, audited)" `Quick
            test_batched_reclustering_identical_across_domains;
          Alcotest.test_case "classifier batch identical" `Quick
            test_classifier_identical_across_domain_counts;
          Alcotest.test_case "kmedoids identical" `Quick
            test_kmedoids_identical_across_domain_counts;
          Alcotest.test_case "agglomerative identical" `Quick
            test_agglomerative_identical_across_domain_counts;
        ] );
    ]
