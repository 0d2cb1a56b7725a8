(* Tests for the streaming (online) clustering extension. *)

let mk_workload ?(n = 300) ?(seed = 41) () =
  Workload.generate
    {
      Workload.default_params with
      n_sequences = n;
      avg_length = 250;
      n_clusters = 3;
      contexts_per_cluster = 120;
      concentration = 0.15;
      outlier_fraction = 0.0;
      seed;
    }

let online_config =
  {
    Cluseq.default_config with
    k_init = 2;
    significance = 8;
    min_residual = Some 8;
    t_init = exp 10.0 (* feed-time decision threshold, within the gap *);
    max_iterations = 20;
  }

let mk_state ?(mine_at = 60) () =
  Online.create ~config:online_config ~mine_at ~alphabet_size:26 ()

let test_create_validation () =
  Alcotest.(check bool) "bad alphabet" true
    (try ignore (Online.create ~alphabet_size:0 ()); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad mine_at" true
    (try ignore (Online.create ~mine_at:1 ~alphabet_size:4 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "buffer < mine_at" true
    (try ignore (Online.create ~mine_at:10 ~buffer_capacity:5 ~alphabet_size:4 ()); false
     with Invalid_argument _ -> true);
  (* A config every mining run would reject fails at creation, with
     the batch run's own message. *)
  List.iter
    (fun (name, config, msg) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (Online.create ~config ~alphabet_size:4 ())))
    [
      ( "t_init below 1",
        { Cluseq.default_config with t_init = 0.5 },
        "Cluseq.run: t_init must be a finite value >= 1" );
      ( "k_init 0",
        { Cluseq.default_config with k_init = 0 },
        "Cluseq.run: k_init must be >= 1" );
    ]

let test_initial_state () =
  let t = mk_state () in
  let s = Online.stats t in
  Alcotest.(check int) "no clusters" 0 s.n_clusters;
  Alcotest.(check int) "nothing fed" 0 s.fed;
  Alcotest.(check bool) "classify with no clusters" true (Online.classify t [| 0; 1 |] = None)

let test_stream_discovers_clusters () =
  let w = mk_workload () in
  let t = mk_state () in
  Seq_database.iteri (fun _ s -> ignore (Online.feed t s)) w.db;
  let st = Online.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "discovered clusters (got %d)" st.n_clusters)
    true (st.n_clusters >= 2);
  Alcotest.(check int) "all fed" 300 st.fed;
  Alcotest.(check bool)
    (Printf.sprintf "most sequences assigned live (%d/300)" st.assigned)
    true
    (st.assigned > 150)

let test_stream_assignments_pure () =
  (* After the stream, held-out sequences from one planted cluster should
     classify into a single live cluster each. *)
  let w = mk_workload () in
  let t = mk_state () in
  Seq_database.iteri (fun _ s -> ignore (Online.feed t s)) w.db;
  let held_out = Workload.resample w ~n_sequences:60 ~seed:77 in
  let votes = Hashtbl.create 8 in
  let classified = ref 0 in
  Seq_database.iteri
    (fun i s ->
      let label = held_out.labels.(i) in
      if label >= 0 then
        match Online.classify t s with
        | Some (c, _) ->
            incr classified;
            Hashtbl.replace votes (label, c)
              (1 + Option.value ~default:0 (Hashtbl.find_opt votes (label, c)))
        | None -> ())
    held_out.db;
  Alcotest.(check bool)
    (Printf.sprintf "most held-out classified (%d/60)" !classified)
    true
    (!classified > 30);
  for label = 0 to 2 do
    let total = ref 0 and best = ref 0 in
    Hashtbl.iter
      (fun (l, _) n ->
        if l = label then begin
          total := !total + n;
          if n > !best then best := n
        end)
      votes;
    if !total > 5 then
      Alcotest.(check bool)
        (Printf.sprintf "label %d coherent (%d/%d)" label !best !total)
        true
        (float_of_int !best /. float_of_int !total > 0.7)
  done

let test_buffer_eviction () =
  (* Junk sequences never cluster; the buffer must stay bounded and count
     evictions. *)
  let t = Online.create ~config:online_config ~mine_at:20 ~buffer_capacity:30
      ~alphabet_size:26 ()
  in
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let s = Array.init 100 (fun _ -> Rng.int rng 26) in
    ignore (Online.feed t s)
  done;
  let st = Online.stats t in
  Alcotest.(check bool) "buffer bounded" true (st.buffered <= 30);
  Alcotest.(check bool)
    (Printf.sprintf "junk largely unassigned (%d assigned)" st.assigned)
    true
    (st.assigned < 60)

let test_feed_counts () =
  let t = mk_state () in
  let w = mk_workload ~n:50 () in
  Seq_database.iteri (fun _ s -> ignore (Online.feed t s)) w.db;
  let st = Online.stats t in
  Alcotest.(check int) "fed" 50 st.fed;
  (* Every fed sequence is live-assigned, buffered, dropped, or was claimed
     by a mining run (multi-cluster joins may double-count absorbed, so
     the absorbed totals only bound the remainder from above). *)
  let mined_members =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Online.cluster_sizes t) - st.assigned
  in
  Alcotest.(check bool) "accounting covers the feed" true
    (st.assigned + st.buffered + st.dropped_outliers + mined_members >= st.fed);
  Alcotest.(check bool) "symbol out of range" true
    (try ignore (Online.feed t [| 99 |]); false with Invalid_argument _ -> true)

let test_forced_mine () =
  let w = mk_workload ~n:80 () in
  let t = Online.create ~config:online_config ~mine_at:1000 ~buffer_capacity:2000
      ~alphabet_size:26 ()
  in
  Seq_database.iteri (fun _ s -> ignore (Online.feed t s)) w.db;
  Alcotest.(check int) "nothing mined yet" 0 (Online.stats t).n_clusters;
  let fresh = Online.mine t in
  Alcotest.(check bool) (Printf.sprintf "mining found clusters (%d)" fresh) true (fresh >= 2);
  Alcotest.(check bool) "buffer shrank" true ((Online.stats t).buffered < 80)

(* The golden fixture [online_golden.txt] holds one stream's decisions:
   every feed result of the 300-sequence workload above at [mine_at]
   60, the final stats and cluster sizes, and [classify] on 60 held-out
   sequences, each log-similarity printed in [%h] so it is pinned bit
   for bit. It was recorded while absorbed clusters were scored by the
   tree walk, so it holds the tree walk's answers, which the clusters'
   automata must reproduce. *)
let golden_transcript () =
  let w = mk_workload () in
  let t = mk_state () in
  let b = Buffer.create 8192 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  Seq_database.iteri
    (fun i s ->
      match Online.feed t s with
      | Some c -> line "feed %d %d" i c
      | None -> line "feed %d -" i)
    w.db;
  let st = Online.stats t in
  line "stats fed=%d assigned=%d mined=%d buffered=%d dropped=%d clusters=%d" st.fed
    st.assigned st.mined_clusters st.buffered st.dropped_outliers st.n_clusters;
  line "sizes %s"
    (String.concat " "
       (List.map (fun (c, n) -> Printf.sprintf "%d:%d" c n) (Online.cluster_sizes t)));
  let held_out = Workload.resample w ~n_sequences:60 ~seed:77 in
  Seq_database.iteri
    (fun i s ->
      match Online.classify t s with
      | Some (c, v) -> line "classify %d %d %h" i c v
      | None -> line "classify %d -" i)
    held_out.db;
  Buffer.contents b

let test_golden_transcript () =
  let fixture = In_channel.with_open_bin "online_golden.txt" In_channel.input_all in
  Alcotest.(check string) "same decisions" fixture (golden_transcript ())

let () =
  Alcotest.run "online"
    [
      ( "unit",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "feed counts" `Slow test_feed_counts;
          Alcotest.test_case "buffer eviction" `Slow test_buffer_eviction;
          Alcotest.test_case "forced mine" `Slow test_forced_mine;
        ] );
      ( "integration",
        [
          Alcotest.test_case "discovers clusters" `Slow test_stream_discovers_clusters;
          Alcotest.test_case "held-out purity" `Slow test_stream_assignments_pure;
          Alcotest.test_case "golden decisions" `Slow test_golden_transcript;
        ] );
    ]
