(* Outlier detection with the CLUSEQ similarity boundary.

   Run with:  dune exec examples/anomaly_detection.exe

   CLUSEQ separates clustered sequences from outliers with the similarity
   threshold t (paper Sec. 2: a sequence whose SIM to every cluster is
   below t is an outlier). This example uses that boundary as an anomaly
   detector: train on a workload of "normal" session-like sequences from a
   few behavioral modes, inject anomalies, and measure detection. *)

let () =
  let params =
    {
      Workload.default_params with
      n_sequences = 400;
      avg_length = 250;
      n_clusters = 4;
      contexts_per_cluster = 120;
      concentration = 0.15;
      outlier_fraction = 0.08;
      seed = 31;
    }
  in
  let data = Workload.generate params in
  Format.printf "workload: %a, %d injected anomalies@." Seq_database.pp data.db
    (Workload.outlier_count data);

  let config =
    {
      Cluseq.default_config with
      k_init = 2;
      significance = 8;
      min_residual = Some 8;
      t_init = 1.2;
      seed = 3;
    }
  in
  let result, seconds = Timer.time (fun () -> Cluseq.run ~config data.db) in
  Format.printf "CLUSEQ: %d behavioral modes found, final t = %.3g, %.2f s@."
    result.n_clusters result.final_t seconds;

  let n = Seq_database.n_sequences data.db in
  let hard = Cluseq.hard_labels result ~n in
  let pred_class = Matching.relabel ~truth:data.labels ~pred:hard in
  let det = Metrics.outlier_detection ~truth:data.labels ~pred_class in
  Format.printf "anomaly detection: precision %.1f%%  recall %.1f%%  (tp=%d fp=%d fn=%d)@."
    (100.0 *. det.precision) (100.0 *. det.recall) det.tp det.fp det.fn;

  (* Show the similarity margin for a few sequences of each kind. *)
  let lbg = Seq_database.log_background data.db in
  let pst_config = { (Pst.default_config ~alphabet_size:26) with significance = 8 } in
  let clusters =
    Array.map
      (fun (id, members) ->
        let seqs = Array.map (Seq_database.get data.db) members in
        Cluster.create ~id ~capacity:0 pst_config seqs)
      result.clusters
  in
  let best_logsim s =
    Array.fold_left
      (fun acc cl -> Float.max acc (Cluster.log_similarity cl ~log_background:lbg s))
      neg_infinity clusters
  in
  Format.printf "@.sample similarity margins (log SIM of best cluster):@.";
  let shown_normal = ref 0 and shown_anom = ref 0 in
  Array.iteri
    (fun i label ->
      if (label >= 0 && !shown_normal < 3) || (label = -1 && !shown_anom < 3) then begin
        if label >= 0 then incr shown_normal else incr shown_anom;
        Format.printf "  seq %3d (%s): log SIM = %8.1f@." i
          (if label >= 0 then "normal " else "anomaly")
          (best_logsim (Seq_database.get data.db i))
      end)
    data.labels
