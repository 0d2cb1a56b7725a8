(* Bechamel micro-benchmarks of the core primitives: PST insertion,
   prediction-node walks, the similarity DP, and the baseline distance
   kernels. Complements the macro experiment harness with ns/op numbers. *)

open Bechamel
open Toolkit

let mk_workload () =
  Workload.generate
    {
      Workload.default_params with
      n_sequences = 64;
      avg_length = 200;
      n_clusters = 4;
      contexts_per_cluster = 120;
      concentration = 0.15;
      seed = 77;
    }

let tests () =
  let w = mk_workload () in
  let db = w.db in
  let lbg = Seq_database.log_background db in
  let seqs = Seq_database.sequences db in
  let pst_cfg = { (Pst.default_config ~alphabet_size:26) with significance = 8 } in
  (* A trained cluster PST for the query-side benches. *)
  let trained = Pst.create pst_cfg in
  Array.iteri (fun i s -> if w.labels.(i) = 0 then Pst.insert_sequence trained s) seqs;
  let probe = seqs.(0) in
  let mid = (Array.length probe - 1) / 2 in
  let counter = ref 0 in
  let next_seq () =
    let s = seqs.(!counter mod Array.length seqs) in
    incr counter;
    s
  in
  [
    Test.make ~name:"pst-insert-200sym"
      (Staged.stage (fun () ->
           let t = Pst.create pst_cfg in
           Pst.insert_sequence t (next_seq ())));
    Test.make ~name:"pst-prediction-walk"
      (Staged.stage (fun () -> ignore (Pst.prediction_node trained probe ~lo:0 ~pos:mid)));
    Test.make ~name:"pst-log-prob"
      (Staged.stage (fun () -> ignore (Pst.log_prob trained probe ~lo:0 ~pos:mid)));
    Test.make ~name:"similarity-dp-200sym"
      (Staged.stage (fun () -> ignore (Similarity.score trained ~log_background:lbg (next_seq ()))));
    (* The compiled-automaton pair for the scan above: the same scoring
       on a precompiled PSA (the gated kernel metric; the acceptance
       target is >= 2x faster than similarity-dp-200sym), and the cost
       of compiling the trained tree once. *)
    Test.make ~name:"similarity-psa-200sym"
      (let psa = Psa.compile trained in
       Staged.stage (fun () ->
           ignore (Similarity.score_psa psa ~log_background:lbg (next_seq ()))));
    (* The batched kernel over the whole 64-sequence block (~12.8k
       symbols per run), reusing one scratch — the shape of one
       (cluster, block) task of Cluster.score_columns. Compare per
       symbol against similarity-psa-200sym × 64. The lanes are all of
       about one length, so the kernel's lane pairs rarely run a tail
       alone; the mixed row beside it has an odd lane count and lengths
       from 0 to 200, as blocks of real inputs do. *)
    Test.make ~name:"psa-batch-scan"
      (let psa = Psa.compile trained in
       let batch = Psa.batch_create ~capacity:(Array.length seqs) () in
       Staged.stage (fun () ->
           ignore (Similarity.score_batch psa ~log_background:lbg ~batch seqs)));
    Test.make ~name:"psa-batch-scan-mixed"
      (let psa = Psa.compile trained in
       let lengths = [| 0; 1; 200; 13; 120; 64; 180; 7; 95 |] in
       let mixed =
         Array.init (Array.length seqs - 1) (fun i ->
             Array.sub seqs.(i) 0 (min (Array.length seqs.(i)) lengths.(i mod 9)))
       in
       let batch = Psa.batch_create ~capacity:(Array.length mixed) () in
       Staged.stage (fun () ->
           ignore (Similarity.score_batch psa ~log_background:lbg ~batch mixed)));
    Test.make ~name:"psa-compile"
      (Staged.stage (fun () -> ignore (Psa.compile trained)));
    Test.make ~name:"edit-distance-200x200"
      (Staged.stage (fun () -> ignore (Edit_distance.distance (next_seq ()) (next_seq ()))));
    Test.make ~name:"block-edit-200x200"
      (Staged.stage (fun () -> ignore (Block_edit.distance (next_seq ()) (next_seq ()))));
    Test.make ~name:"qgram-profile-200sym"
      (Staged.stage (fun () -> ignore (Qgram.profile ~q:3 (next_seq ()))));
    Test.make ~name:"hmm-loglik-10st-200sym"
      (let m = Hmm.random (Rng.create 5) ~n_states:10 ~n_symbols:26 in
       Staged.stage (fun () -> ignore (Hmm.log_likelihood m (next_seq ()))));
  ]

(* Direct minor-allocation measurement of the two scan shapes, in words
   per scored symbol: the per-sequence score_psa loop (each call one
   lane of the batch kernel on its per-domain scratch, plus one result
   record — the dirty-rescore shape) against score_batch over the whole
   block with a reused scratch. Bechamel measures time; Gc.minor_words deltas
   are the honest unit for the off-heap claim. Reported as extra rows so
   `bench --record` folds them into the micro block (they are words, not
   ns — the name says so; the micro compare's 10 ns floor skips them, the
   experiment-level gc.minor_words_per_symbol verdict is the gate). *)
let alloc_rows () =
  let w = mk_workload () in
  let lbg = Seq_database.log_background w.db in
  let seqs = Seq_database.sequences w.db in
  let pst_cfg = { (Pst.default_config ~alphabet_size:26) with significance = 8 } in
  let trained = Pst.create pst_cfg in
  Array.iteri (fun i s -> if w.labels.(i) = 0 then Pst.insert_sequence trained s) seqs;
  let psa = Psa.compile trained in
  let symbols = Array.fold_left (fun acc s -> acc + Array.length s) 0 seqs in
  let words_per_symbol f =
    f ();
    (* warm: one-time allocation (scratch growth) settles *)
    let reps = 50 in
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int (reps * symbols)
  in
  let serial =
    words_per_symbol (fun () ->
        Array.iter (fun s -> ignore (Similarity.score_psa psa ~log_background:lbg s)) seqs)
  in
  let batch_scratch = Psa.batch_create ~capacity:(Array.length seqs) () in
  let batched =
    words_per_symbol (fun () ->
        ignore (Similarity.score_batch psa ~log_background:lbg ~batch:batch_scratch seqs))
  in
  (* Absorb into a grown tree: another cluster's members inserted into a
     fresh copy of the trained model, so most of their contexts are new
     nodes. The copy is taken outside the measured window. *)
  let members =
    List.filter_map
      (fun i -> if w.labels.(i) = 1 then Some seqs.(i) else None)
      (List.init (Array.length seqs) Fun.id)
  in
  let member_symbols = List.fold_left (fun acc s -> acc + Array.length s) 0 members in
  let insert_words =
    let reps = 20 and words = ref 0.0 in
    for _ = 1 to reps do
      let t = Pst.copy trained in
      let before = Gc.minor_words () in
      List.iter (Pst.insert_sequence t) members;
      words := !words +. (Gc.minor_words () -. before)
    done;
    !words /. float_of_int (reps * member_symbols)
  in
  [
    ("cluseq/alloc-psa-serial-words-per-symbol", serial);
    ("cluseq/alloc-psa-batch-words-per-symbol", batched);
    ("cluseq/alloc-pst-insert-words-per-symbol", insert_words);
  ]

(* One crossing brought into a trained cluster's automaton: the model of
   [tests] without its last member gets the shortest leading segment of
   that member which makes exactly one context significant. The tree is
   copied and compiled and the segment inserted outside the timed
   window, reporting its crossing to a buffer; the row times the
   [Psa.refresh] that patches the context in from that buffer — the
   work a crossing costs a cluster instead of a [psa-compile]. No part
   of the tree is walked to find the context: the time is the
   closure-free check and the row scan over every state, the one
   state's row copy and sweep, and rewriting the rows the segment's
   counts moved. Timed directly (ns per refresh, like the Bechamel
   rows) because every run needs a fresh tree and automaton. *)
let patch_row () =
  let w = mk_workload () in
  let seqs = Seq_database.sequences w.db in
  let pst_cfg = { (Pst.default_config ~alphabet_size:26) with significance = 8 } in
  let members =
    List.filter (fun i -> w.labels.(i) = 0) (List.init (Array.length seqs) Fun.id)
  in
  let held_out = seqs.(List.nth members (List.length members - 1)) in
  let trained = Pst.create pst_cfg in
  List.iter
    (fun i -> if seqs.(i) != held_out then Pst.insert_sequence trained seqs.(i))
    members;
  (* The tree and automaton before the crossing, the segment inserted. *)
  let crossing hi =
    let t = Pst.copy trained and crossings = Pst.Crossings.create () in
    let psa = Psa.compile t in
    Pst.insert_segment ~crossings t held_out ~lo:0 ~hi;
    (t, psa, crossings)
  in
  let added (t, psa, crossings) =
    let states = Psa.n_states psa in
    if Psa.refresh ~crossings psa t then Psa.n_states psa - states else -1
  in
  let hi = ref 0 in
  while added (crossing !hi) <> 1 do
    incr hi;
    if !hi = Array.length held_out then failwith "psa-patch: no segment crosses once"
  done;
  let reps = 200 and ns = ref 0L in
  for _ = 1 to reps do
    let t, psa, crossings = crossing !hi in
    let t0 = Timer.now_ns () in
    ignore (Psa.refresh ~crossings psa t);
    ns := Int64.add !ns (Int64.sub (Timer.now_ns ()) t0)
  done;
  ("cluseq/psa-patch", Int64.to_float !ns /. float_of_int reps)

(* One pruning of a grown tree: the micro workload's sequences inserted,
   under [tests]' config with no node budget, until the tree holds just
   over the default budget of [Pst.default_config]; the row times the
   [Pst.prune_to] down to 80% of that budget which [Pst.maybe_prune]
   runs there. Each run prunes a fresh copy, taken outside the timed
   window. Timed directly (ns per pruning), like psa-patch. *)
let prune_row () =
  let w = mk_workload () in
  let seqs = Seq_database.sequences w.db in
  let default = Pst.default_config ~alphabet_size:26 in
  let budget = default.max_nodes in
  let grown = Pst.create { default with significance = 8; max_nodes = max_int } in
  let i = ref 0 in
  while Pst.n_nodes grown <= budget do
    if !i = Array.length seqs then failwith "pst-prune: the workload never fills the budget";
    Pst.insert_sequence grown seqs.(!i);
    incr i
  done;
  let reps = 50 and ns = ref 0L in
  for _ = 1 to reps do
    let t = Pst.copy grown in
    let t0 = Timer.now_ns () in
    Pst.prune_to t (budget * 4 / 5);
    ns := Int64.add !ns (Int64.sub (Timer.now_ns ()) t0)
  done;
  ("cluseq/pst-prune", Int64.to_float !ns /. float_of_int reps)

(* Runs the suite, prints the table, and returns the (name, ns/run) rows
   so `bench --record` can fold them into the BENCH_*.json under "micro". *)
let run () =
  Printf.printf "\n== Micro-benchmarks (Bechamel, ns/run) ==\n%!";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~stabilize:false ~quota:(Time.second 0.25) () in
  let grouped = Test.make_grouped ~name:"cluseq" ~fmt:"%s/%s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ x ] -> x | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare (patch_row () :: prune_row () :: !rows) in
  List.iter (fun (name, ns) -> Printf.printf "  %-40s %12.0f ns/run\n" name ns) rows;
  let alloc = alloc_rows () in
  Printf.printf "\n== Scan allocation (Gc.minor_words deltas) ==\n%!";
  List.iter
    (fun (name, words) -> Printf.printf "  %-40s %12.4f words/symbol\n" name words)
    alloc;
  rows @ alloc
