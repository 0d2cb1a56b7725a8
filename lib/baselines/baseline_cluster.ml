type method_ =
  | Edit_distance
  | Block_edit
  | Hmm of int
  | Qgram of int

let method_name = function
  | Edit_distance -> "ED"
  | Block_edit -> "EDBO"
  | Hmm _ -> "HMM"
  | Qgram _ -> "q-gram"

let m_runs = Obs.Metrics.counter "baseline.runs"
let h_run = Obs.Metrics.histogram "baseline.run_seconds"

let run_method rng ~k m db =
  let n = Seq_database.n_sequences db in
  let seqs = Seq_database.sequences db in
  match m with
  | Edit_distance ->
      let dist i j = float_of_int (Edit_distance.distance seqs.(i) seqs.(j)) in
      (Kmedoids.run rng ~k ~n ~max_iterations:6 dist).labels
  | Block_edit ->
      (* Each extraction round is a full O(l^2) scan; 16 rounds bound the
         per-pair cost while covering the planted shared blocks. *)
      let dist i j =
        let a = seqs.(i) and b = seqs.(j) in
        let d = Block_edit.distance ~max_blocks:16 a b in
        (* Normalize by total length so length variation doesn't dominate
           (the paper's ED keeps its raw length bias — that is its flaw). *)
        float_of_int d /. float_of_int (max 1 (Array.length a + Array.length b))
      in
      (Kmedoids.run rng ~k ~n ~max_iterations:5 dist).labels
  | Hmm n_states ->
      let n_symbols = Alphabet.size (Seq_database.alphabet db) in
      let init = (Qgram.cluster (Rng.split rng) ~k ~q:3 seqs).labels in
      (Hmm.cluster rng ~k ~n_states ~n_symbols ~rounds:1 ~em_iterations:8 ~init_labels:init seqs)
        .labels
  | Qgram q -> (Qgram.cluster rng ~k ~q seqs).labels

let run rng ~k m db =
  Obs.Metrics.incr m_runs;
  Obs.Trace.with_span ~hist:h_run ("baseline." ^ method_name m) @@ fun () ->
  run_method rng ~k m db
