(* Shard-and-merge orchestration: partitioning determinism, the
   1-vs-N-shard membership matrix (mirroring test_par's domain matrix),
   and merged-result invariants. *)

(* 4x the small fixture: each of 4 shards then sees ~90 sequences —
   the scale [Gen_common.small_config]'s statistical floors
   (significance 8, min_residual 8) were tuned for. *)
let db_and_truth =
  lazy
    (let w =
       Workload.generate
         {
           Workload.default_params with
           n_sequences = 360;
           avg_length = 100;
           n_clusters = 3;
           contexts_per_cluster = 120;
           concentration = 0.15;
           seed = 11;
         }
     in
     (w.Workload.db, w.Workload.labels))

(* small_config's 12-iteration cap truncates this 360-sequence fixture
   mid-threshold-adjustment; 30 lets both the serial and the per-shard
   runs reach convergence (serial converges around iteration 21). *)
let config = { Gen_common.small_config with Cluseq.max_iterations = 30 }

(* Final memberships modulo cluster renumbering: the sorted list of
   sorted member-id lists. *)
let canon_memberships (r : Cluseq.result) =
  Array.to_list r.Cluseq.clusters
  |> List.map (fun (_, members) -> Array.to_list members)
  |> List.sort compare

let run_sharded ~shards ~domains () =
  Gen_common.with_domains domains (fun () ->
      let db, _ = Lazy.force db_and_truth in
      Shard.run ~config ~shards db)

let test_partition_deterministic () =
  (* Pure function of (seed, id): stable across calls, in range, and
     non-degenerate (every shard of 4 gets something from 1000 ids). *)
  let counts = Array.make 4 0 in
  for id = 0 to 999 do
    let s = Shard.shard_of_id ~seed:42 ~shards:4 id in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "stable" s (Shard.shard_of_id ~seed:42 ~shards:4 id);
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri (fun s c -> Alcotest.(check bool) (Printf.sprintf "shard %d non-empty" s) true (c > 100)) counts

let test_shards_one_is_plain_run () =
  let db, _ = Lazy.force db_and_truth in
  let plain = Cluseq.run ~config db in
  let sharded = Shard.run ~config ~shards:1 db in
  Alcotest.(check (list (list int)))
    "memberships" (canon_memberships plain) (canon_memberships sharded);
  Alcotest.(check int) "iterations" plain.Cluseq.iterations sharded.Cluseq.iterations;
  Alcotest.(check (float 0.0)) "final_t" plain.Cluseq.final_t sharded.Cluseq.final_t;
  Alcotest.(check bool)
    "assignments" true (plain.Cluseq.assignments = sharded.Cluseq.assignments)

(* Exact membership equality between 1 and 4 shards cannot hold: each
   shard trains its model on a quarter of the data with its own
   iteration dynamics, so the merged (counts-summed) PSTs differ from
   the serial models in their low-order counts and a handful of
   near-threshold boundary sequences flip. The matrix therefore checks
   structural agreement: same cluster count, every cluster pairs off
   with a near-identical counterpart (Jaccard), and the hard labelings
   agree (cross-run ARI). *)
let jaccard a b =
  let sa = List.sort_uniq compare a and sb = List.sort_uniq compare b in
  let rec go inter union xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> (inter, union + List.length rest)
    | x :: xs', y :: ys' ->
        if x = y then go (inter + 1) (union + 1) xs' ys'
        else if x < y then go inter (union + 1) xs' ys
        else go inter (union + 1) xs ys'
  in
  let inter, union = go 0 0 sa sb in
  if union = 0 then 1.0 else float_of_int inter /. float_of_int union

let test_sharded_matches_unsharded_memberships () =
  let r1 = run_sharded ~shards:1 ~domains:1 () in
  let r4 = run_sharded ~shards:4 ~domains:1 () in
  let m1 = canon_memberships r1 and m4 = canon_memberships r4 in
  Alcotest.(check int) "cluster count" (List.length m1) (List.length m4);
  List.iter
    (fun c1 ->
      let best = List.fold_left (fun acc c4 -> Float.max acc (jaccard c1 c4)) 0.0 m4 in
      Alcotest.(check bool)
        (Printf.sprintf "cluster has >=0.9-Jaccard counterpart (best %.3f)" best)
        true (best >= 0.9))
    m1;
  let n = Seq_database.n_sequences (fst (Lazy.force db_and_truth)) in
  let ari =
    Metrics.adjusted_rand_index
      ~truth:(Cluseq.hard_labels r1 ~n) ~pred:(Cluseq.hard_labels r4 ~n)
  in
  Alcotest.(check bool)
    (Printf.sprintf "1-vs-4-shard cross ARI %.3f >= 0.95" ari)
    true (ari >= 0.95)

let test_shards_invariant_to_domains () =
  let a = run_sharded ~shards:4 ~domains:1 () in
  let b = run_sharded ~shards:4 ~domains:4 () in
  Alcotest.(check (list (list int)))
    "memberships" (canon_memberships a) (canon_memberships b);
  Alcotest.(check bool) "assignments" true (a.Cluseq.assignments = b.Cluseq.assignments);
  Alcotest.(check bool) "best" true (a.Cluseq.best = b.Cluseq.best);
  Alcotest.(check (list int)) "outliers" a.Cluseq.outliers b.Cluseq.outliers

let test_merged_result_invariants () =
  let db, _ = Lazy.force db_and_truth in
  let r = Shard.run ~config ~shards:4 db in
  let n = Seq_database.n_sequences db in
  (match Check.result_invariants ~n r with
  | [] -> ()
  | errs -> Alcotest.failf "merged result violates invariants:\n%s" (String.concat "\n" errs));
  Alcotest.(check bool) "found clusters" true (r.Cluseq.n_clusters > 0)

let test_sharded_quality () =
  (* The merged clustering must still recover the planted families. *)
  let db, truth = Lazy.force db_and_truth in
  let r = Shard.run ~config ~shards:4 db in
  let pred = Cluseq.hard_labels r ~n:(Seq_database.n_sequences db) in
  let ari = Metrics.adjusted_rand_index ~truth ~pred in
  Alcotest.(check bool) (Printf.sprintf "ari %.3f >= 0.9" ari) true (ari >= 0.9)

let test_wasted_ratio_deterministic () =
  (* Every shard's run writes the scan gauge from whichever domain runs
     it; the merge must leave one value, the same at any domain count. *)
  let g = Obs.Metrics.gauge "cluseq.scan.wasted_pair_ratio" in
  let was_on = Obs.Metrics.is_enabled () in
  Obs.Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was_on then Obs.Metrics.disable ()) @@ fun () ->
  let read domains =
    Obs.Metrics.set g (-1.0);
    ignore (run_sharded ~shards:3 ~domains ());
    Obs.Metrics.gauge_value g
  in
  match List.map read [ 1; 1; 1; 4; 4; 4 ] with
  | [] -> ()
  | first :: _ as values ->
      Alcotest.(check bool) (Printf.sprintf "a ratio (%g)" first) true (first >= 0.0);
      List.iter (Alcotest.(check (float 0.0)) "one value every run" first) values

(* The golden fixture [shard_golden.txt] pins one sharded run bit for
   bit: 3 shards at one domain over the database above, with its
   journal. It holds the result's counts and [final_t], every cluster's
   members, every sequence's assignments and best cluster, each model's
   node count, and the journal records with timestamps blanked; floats
   print in [%h]. It was recorded while the merge kept its models,
   automata and member lists in parallel arrays, so it holds that
   path's answers, which the merge's clusters must reproduce. *)
let golden_transcript () =
  let path = Filename.temp_file "cluseq-shard" ".jsonl" in
  let r, journal =
    Fun.protect
      ~finally:(fun () ->
        Obs.Journal.close ();
        if Sys.file_exists path then Sys.remove path)
    @@ fun () ->
    Obs.Journal.open_file path;
    let r = run_sharded ~shards:3 ~domains:1 () in
    Obs.Journal.close ();
    (r, In_channel.with_open_text path In_channel.input_all)
  in
  let b = Buffer.create 65536 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let ints l = String.concat " " (List.map string_of_int l) in
  line "n_clusters %d iterations %d final_t %h" r.Cluseq.n_clusters r.Cluseq.iterations
    r.Cluseq.final_t;
  Array.iter
    (fun (id, members) -> line "cluster %d: %s" id (ints (Array.to_list members)))
    r.Cluseq.clusters;
  Array.iteri
    (fun i cs ->
      match r.Cluseq.best.(i) with
      | Some (c, v) -> line "seq %d [%s] best %d %h" i (ints cs) c v
      | None -> line "seq %d [%s] best -" i (ints cs))
    r.Cluseq.assignments;
  line "outliers %s" (ints r.Cluseq.outliers);
  Array.iter
    (fun (id, (st : Pst.stats)) -> line "model %d nodes %d" id st.Pst.nodes)
    r.Cluseq.pst_stats;
  List.iter
    (fun l -> if l <> "" then line "%s" (Gen_common.blank_ts l))
    (String.split_on_char '\n' journal);
  Buffer.contents b

let test_golden_transcript () =
  let fixture = In_channel.with_open_bin "shard_golden.txt" In_channel.input_all in
  Alcotest.(check string) "same sharded result" fixture (golden_transcript ())

let () =
  Alcotest.run "shard"
    [
      ( "shard",
        [
          Alcotest.test_case "partition deterministic" `Quick test_partition_deterministic;
          Alcotest.test_case "shards=1 is the plain path" `Quick test_shards_one_is_plain_run;
          Alcotest.test_case "1 vs 4 shards same memberships" `Slow
            test_sharded_matches_unsharded_memberships;
          Alcotest.test_case "shards invariant to domains" `Slow test_shards_invariant_to_domains;
          Alcotest.test_case "merged result invariants" `Quick test_merged_result_invariants;
          Alcotest.test_case "sharded quality" `Quick test_sharded_quality;
          Alcotest.test_case "wasted-pair ratio deterministic" `Slow
            test_wasted_ratio_deterministic;
          Alcotest.test_case "golden sharded run" `Slow test_golden_transcript;
        ] );
    ]
