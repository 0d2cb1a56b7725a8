(* Shared test scaffolding: QCheck generators, PST build helpers, and
   pipeline fixtures used across the suites (and mirrored by the seeded
   generator of the lib/check fuzz harness). Any module in test/ can
   refer to [Gen_common.*] — the dune tests stanza links unlisted
   modules into every test executable. *)

let alpha = Alphabet.lowercase

(* Lowercase text over a small prefix of the alphabet: most properties
   want dense repetition ('a'..'d'), not 26 rarely-colliding symbols. *)
let seq_gen ?(min_len = 1) ?(max_len = 40) ?(last = 'd') () =
  QCheck.(string_gen_of_size (Gen.int_range min_len max_len) (Gen.char_range 'a' last))

let texts_gen ?(min_seqs = 1) ?(max_seqs = 5) ?min_len ?max_len ?last () =
  QCheck.list_of_size
    (QCheck.Gen.int_range min_seqs max_seqs)
    (seq_gen ?min_len ?max_len ?last ())

(* Background distribution of a memoryless uniform source over the full
   26-symbol alphabet — the reference generator of the similarity
   measure in most unit tests. *)
let uniform_lbg = Array.make 26 (log (1.0 /. 26.0))

let pst_cfg ?(max_depth = 10) ?(significance = 2) ?(max_nodes = 100000) ?(p_min = 0.0)
    ?(pruning = Pruning.Smallest_count_first) ?(alphabet_size = 26) () : Pst.config =
  { Pst.alphabet_size; max_depth; significance; max_nodes; p_min; pruning }

let build_pst ?max_depth ?significance ?max_nodes ?p_min ?pruning ?alphabet_size texts =
  let t =
    Pst.create (pst_cfg ?max_depth ?significance ?max_nodes ?p_min ?pruning ?alphabet_size ())
  in
  List.iter (fun s -> Pst.insert_sequence t (Sequence.of_string alpha s)) texts;
  t

(* Run [f] with the global domain-pool default forced to [d], restoring
   the previous default (and letting the pool lazily recreate) after. *)
let with_domains d f =
  let saved = Par.default_domains () in
  Par.set_default_domains d;
  Fun.protect ~finally:(fun () -> Par.set_default_domains saved) f

(* A small three-cluster synthetic workload plus a config scaled to it —
   shared by the determinism suite and the correctness-tooling suite so
   both exercise the same end-to-end pipeline fixture. *)
let small_db_and_truth =
  lazy
    (let w =
       Workload.generate
         {
           Workload.default_params with
           n_sequences = 90;
           avg_length = 100;
           n_clusters = 3;
           contexts_per_cluster = 120;
           concentration = 0.15;
           seed = 11;
         }
     in
     (w.db, w.labels))

let small_config =
  {
    Cluseq.default_config with
    k_init = 2;
    significance = 8;
    min_residual = Some 8;
    t_init = 1.2;
    max_iterations = 12;
    seed = 4;
  }

(* [small_config] under a PST node budget the fixture's cluster models
   outgrow (unpruned they reach ~2700 nodes), so pruning runs inside
   absorbs during reclustering. *)
let small_pruned_config = { small_config with max_nodes = 1000 }

(* [f ()] with metrics on, paired with how far the counter [c] moved
   meanwhile. *)
let counting c f =
  let was_enabled = Obs.Metrics.is_enabled () in
  Obs.Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Obs.Metrics.disable ()) @@ fun () ->
  let before = Obs.Metrics.counter_value c in
  let r = f () in
  (r, Obs.Metrics.counter_value c - before)

(* [f ()] paired with the number of PST nodes pruning removed meanwhile. *)
let counting_prunes f = counting (Obs.Metrics.counter "pst.nodes_pruned") f

(* [line] with the value of its ["ts_ns"] field blanked. *)
let blank_ts line =
  let key = "\"ts_ns\":" in
  let kl = String.length key and n = String.length line in
  let rec find i =
    if i + kl > n then None else if String.sub line i kl = key then Some i else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
      let j = ref (i + kl) in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      String.sub line 0 (i + kl) ^ String.sub line !j (n - !j)
