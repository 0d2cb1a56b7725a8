(* The benchmark of record: five workloads, one process per run.

   Usage:
     suite.exe WORKLOAD [--seed N] [--seconds S] [--traced]
                        [--size full|smoke] [--trace-out FILE]

   A run draws a fixed set of inputs from --seed (the program only ever
   sees generated inputs) and sets them up [setups] + 1 times. It then runs
   rounds, one job per input, until --seconds have passed. CLUSEQ's
   time to solution and quality swing widely with the input, because the
   threshold sometimes settles after a dozen iterations and sometimes
   runs to the cap, so one database per run would make every run a
   different experiment. Pooling many small inputs per run keeps the
   run-to-run spread inside the bounds in BENCHMARK.json.

   Every job's outputs are checked: result invariants, identical outputs
   each time the same input is run, and the classifier's one-sequence
   path against its batch path. A failed check, or an exception, counts
   the job's requests as failed.

   Untraced runs (the default) keep every Obs switch off and report the
   end-to-end metrics, their timings scaled to a reference host speed
   (see [host_calib_ms]). --traced runs first time a few jobs untraced,
   then enable Obs.Metrics and Obs.Trace, set up again and rerun the same
   jobs inside bench.* spans, read the counters and histograms the
   library keeps, and replay each layer's public functions on the run's
   own final models (the probes). They report the per-layer metrics.

   Every metric is printed as "workload metric value unit". The last
   line of stdout is one JSON object with the keys correct, attempted,
   failed and metrics. The exit status is 1 when a check failed and 2
   on a usage error. README.md lists the workloads, the metrics and the
   end-to-end metric each layer metric should move. *)

type size = Full | Smoke

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

(* The configurations of the paper-table harness in bench/experiments.ml,
   restated because that harness is an executable, not a library, and
   pinned here so that retuning the paper tables cannot move the
   benchmark's workloads. *)
let synth_config =
  {
    Cluseq.default_config with
    k_init = 2;
    significance = 8;
    min_residual = Some 8;
    t_init = 1.2;
    max_iterations = 30;
    seed = 3;
  }

(* batch-k8 and the classifiers' training start from the planted k. *)
let batch_config = { synth_config with k_init = 8 }

(* Table 2 of the paper: k = 10, c = 5 and the deliberately wrong t. *)
let protein_config =
  {
    Cluseq.default_config with
    k_init = 10;
    significance = 5;
    min_residual = Some 5;
    t_init = 1.0005;
    seed = 1;
  }

let online_config =
  {
    Cluseq.default_config with
    k_init = 2;
    significance = 8;
    min_residual = Some 8;
    t_init = exp 10.0;
    max_iterations = 20;
  }

let synth ~n ~len ~k ~outliers ~seed =
  Workload.generate
    {
      Workload.default_params with
      n_sequences = n;
      avg_length = len;
      n_clusters = k;
      outlier_fraction = outliers;
      contexts_per_cluster = 120;
      concentration = 0.15;
      seed;
    }

(* The seed of a run's [i]-th input. *)
let sub_seed seed i = (seed * 1000) + i

(* ------------------------------------------------------------------ *)
(* Jobs and instances                                                  *)
(* ------------------------------------------------------------------ *)

type job = {
  requests : float array;  (** Seconds per request, in order. *)
  seqs : int;  (** Sequences the job handled. *)
  symbols : int;  (** Symbols in those sequences. *)
  gc : Obs.Resource.gc_delta;  (** What the library calls cost the GC. *)
  model_words : float;  (** Heap words per cluster model the job's output holds. *)
  signature : string;  (** Digest of the outputs; rerunning the job must repeat it. *)
  problems : string list;  (** Output checks that failed. *)
}

type instance = {
  jobs : (unit -> job) array;  (** One job per input of the run. *)
  quality : unit -> float * float;
      (** Median accuracy and ARI over the inputs, from the latest
          outputs of every job. *)
  layers : unit -> (string * float) list;
      (** Per-layer values taken from the latest job that ran, probes
          included; called only by traced runs, after the traced
          jobs. *)
}

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let per_model words models = float_of_int words /. float_of_int (max 1 models)
let span name f = Obs.Trace.with_span name f

let percentile xs p = if xs = [||] then 0.0 else Stats.percentile xs p
let median xs = percentile xs 50.0
let safe_div a b = if b = 0.0 then 0.0 else a /. b
let mean xs = safe_div (Array.fold_left ( +. ) 0.0 xs) (float_of_int (Array.length xs))
let geomean xs = if xs = [||] then 0.0 else exp (mean (Array.map log xs))

let quality ~truth labels =
  ( Metrics.accuracy ~truth ~pred_class:(Matching.relabel ~truth ~pred:labels),
    Metrics.adjusted_rand_index ~truth ~pred:labels )

(* Median accuracy and ARI over the inputs that have outputs: one
   input whose clustering collapses moves it no more than any other. *)
let typical scores =
  let scores = Array.of_list (List.filter_map Fun.id (Array.to_list scores)) in
  (median (Array.map fst scores), median (Array.map snd scores))

(* Seconds per call of [f], repeating it until [min_s] have passed so
   that a sub-millisecond kernel is timed over many calls. *)
let per_call ?(min_s = 0.05) f =
  let t0 = Timer.now_ns () in
  let calls = ref 0 in
  while !calls = 0 || Timer.span_s t0 (Timer.now_ns ()) < min_s do
    f ();
    incr calls
  done;
  Timer.span_s t0 (Timer.now_ns ()) /. float_of_int !calls

(* Replays of each layer's public functions on a finished run's own
   models: a probe on a fresh tree would mislead, because insertion into
   a grown tree costs far more per symbol than into an empty one. *)
let model_probes (result : Cluseq.result) db =
  let models = Array.sub result.models 0 (min 8 (Array.length result.models)) in
  if models = [||] then []
  else begin
    let lbg = Seq_database.log_background db in
    let seqs = Seq_database.sequences db in
    let sample = Array.sub seqs 0 (min 256 (Array.length seqs)) in
    let symbols a = Array.fold_left (fun acc s -> acc + Array.length s) 0 a in
    let n_models = float_of_int (Array.length models) in
    let probe name f = span ("bench.probe." ^ name) f in
    let compiled, compile_s =
      probe "compile" (fun () -> Timer.time (fun () -> Array.map (fun (_, t) -> Psa.compile t) models))
    in
    let states = Array.fold_left (fun acc p -> acc + Psa.n_states p) 0 compiled in
    let batch_s =
      probe "score_batch" (fun () ->
          let batch = Psa.batch_create () in
          let blocks =
            List.init
              ((Array.length sample + 63) / 64)
              (fun b -> Array.sub sample (b * 64) (min 64 (Array.length sample - (b * 64))))
          in
          per_call (fun () ->
              Array.iter
                (fun psa ->
                  List.iter
                    (fun blk ->
                      ignore (Similarity.score_batch psa ~log_background:lbg ~batch blk))
                    blocks)
                compiled))
    in
    let walk_sample = Array.sub sample 0 (min 32 (Array.length sample)) in
    let walk_s =
      probe "score" (fun () ->
          per_call (fun () ->
              Array.iter
                (fun (_, t) ->
                  Array.iter
                    (fun s -> ignore (Similarity.score t ~log_background:lbg s))
                    walk_sample)
                models))
    in
    (* Each member's best segment under the final model, inserted into a
       copy of that model: the absorb step on a tree at its real size. *)
    let insert_s, inserted =
      probe "insert_segment" (fun () ->
          Array.fold_left
            (fun (secs, syms) (id, tree) ->
              let members =
                match Array.find_opt (fun (cid, _) -> cid = id) result.clusters with
                | Some (_, m) -> Array.sub m 0 (min 64 (Array.length m))
                | None -> [||]
              in
              let segments =
                Array.to_list members
                |> List.map (fun i -> (seqs.(i), Similarity.score tree ~log_background:lbg seqs.(i)))
                |> List.filter (fun (_, (r : Similarity.result)) -> r.seg_lo >= 0)
              in
              let copy = Pst.copy tree in
              let (), dt =
                Timer.time (fun () ->
                    List.iter
                      (fun (s, (r : Similarity.result)) ->
                        Pst.insert_segment copy s ~lo:r.seg_lo ~hi:r.seg_hi)
                      segments)
              in
              let n =
                List.fold_left
                  (fun acc (_, (r : Similarity.result)) -> acc + r.seg_hi - r.seg_lo + 1)
                  0 segments
              in
              (secs +. dt, syms + n))
            (0.0, 0) models)
    in
    let pairs =
      let k = min 4 (Array.length models) in
      List.concat (List.init k (fun i -> List.init (k - i - 1) (fun j -> (i, i + j + 1))))
    in
    let over_pairs name f =
      probe name (fun () ->
          snd (Timer.time (fun () -> List.iter (fun (i, j) -> f (snd models.(i)) (snd models.(j))) pairs)))
    in
    let kl_s = over_pairs "kl_symmetric" (fun a b -> ignore (Divergence.kl_symmetric a b)) in
    let merge_s = over_pairs "merge" (fun a b -> ignore (Pst.merge a b)) in
    let n_pairs = float_of_int (List.length pairs) in
    [
      ("psa.compile_us_per_state", safe_div (compile_s *. 1e6) (float_of_int states));
      ("psa.batch_ns_per_symbol", batch_s *. 1e9 /. (float_of_int (symbols sample) *. n_models));
      ( "similarity.treewalk_ns_per_symbol",
        walk_s *. 1e9 /. (float_of_int (symbols walk_sample) *. n_models) );
      ("pst.insert_ns_per_symbol", safe_div (insert_s *. 1e9) (float_of_int inserted));
      ("divergence.kl_ms_per_pair", safe_div (kl_s *. 1e3) n_pairs);
      ("pst.merge_ms", safe_div (merge_s *. 1e3) n_pairs);
      ( "pst.final_nodes",
        float_of_int
          (Array.fold_left (fun acc (_, (s : Pst.stats)) -> acc + s.nodes) 0 result.pst_stats) );
    ]
  end

let converged (config : Cluseq.config) (result : Cluseq.result) =
  if result.iterations < config.max_iterations then 1.0 else 0.0

(* One clustering of one database per job (batch-k8, protein-8fam,
   shard-2x). *)
let clustering ~config ~shards inputs =
  let scores = Array.map (fun _ -> None) inputs in
  let last = ref None in
  let job i () =
    let db, truth = inputs.(i) in
    let n = Seq_database.n_sequences db in
    let (result, gc), secs =
      Timer.time (fun () ->
          Obs.Resource.measure (fun () -> span "bench.cluster" (fun () -> Shard.run ~config ~shards db)))
    in
    span "bench.check" @@ fun () ->
    last := Some (result, db);
    let labels = Cluseq.hard_labels result ~n in
    scores.(i) <- Some (quality ~truth labels);
    let census = List.map (fun (s : Cluseq.iteration_stats) -> s.census) result.history in
    {
      requests = [| secs |];
      seqs = n;
      symbols = Seq_database.total_symbols db;
      gc;
      model_words = per_model (Obj.reachable_words (Obj.repr result.models)) result.n_clusters;
      signature = digest (labels, result.clusters, result.iterations, census);
      problems = Check.result_invariants ~n result;
    }
  in
  {
    jobs = Array.init (Array.length inputs) job;
    quality = (fun () -> typical scores);
    layers =
      (fun () ->
        match !last with
        | Some (result, db) ->
            ("threshold.converged", converged config result) :: model_probes result db
        | None -> []);
  }

(* Training is the batch clustering path, which the clustering workloads
   time, and its time swings with the training set. A process therefore
   trains on each training set once, in the untimed first set-up, and
   later set-ups reuse the result: classify's set-up time is input
   generation and the classifier build. *)
let trainings : (int * int, Cluseq.result * string list) Hashtbl.t = Hashtbl.create 16

let trained ~key (data : Workload.t) =
  match Hashtbl.find_opt trainings key with
  | Some r -> r
  | None ->
      let result = span "bench.cluster" (fun () -> Cluseq.run ~config:batch_config data.db) in
      let r = (result, Check.result_invariants ~n:(Seq_database.n_sequences data.db) result) in
      Hashtbl.add trainings key r;
      r

type classifier_set = {
  train : Workload.t;
  result : Cluseq.result;
  invariants : string list;  (** Output checks of the training run that failed. *)
  classifier : Classifier.t;
  build_s : float;
  queries : (Seq_database.t * int array) list;  (** Held-out requests and their truth. *)
}

(* Set-up builds one classifier per (key, training set, held-out set) and
   cuts each held-out set into requests of [request] sequences; a job
   classifies one request: the read-only query path. *)
let classification ~request sets =
  let sets =
    Array.map
      (fun (key, (train : Workload.t), (held_out : Workload.t)) ->
        let result, invariants = trained ~key train in
        let classifier, build_s =
          span "bench.classifier_build" (fun () ->
              Timer.time (fun () -> Classifier.of_result result train.db))
        in
        let n = Seq_database.n_sequences held_out.db in
        let queries =
          List.init
            ((n + request - 1) / request)
            (fun r ->
              let ids = Array.init (min request (n - (r * request))) (fun i -> (r * request) + i) in
              (Seq_database.subset held_out.db ids, Array.map (fun i -> held_out.labels.(i)) ids))
        in
        { train; result; invariants; classifier; build_s; queries })
      sets
  in
  let slots =
    Array.concat
      (Array.to_list
         (Array.mapi (fun k set -> Array.of_list (List.map (fun r -> (k, r)) set.queries)) sets))
  in
  let outputs = Array.make (Array.length slots) None in
  (* Heap per model of each classifier, measured on its first request. *)
  let footprint = Array.make (Array.length sets) None in
  let job j () =
    let k, (db, truth) = slots.(j) in
    let { classifier; invariants; _ } = sets.(k) in
    let (verdicts, gc), secs =
      Timer.time (fun () ->
          Obs.Resource.measure (fun () ->
              span "bench.classify" (fun () -> Classifier.classify_all classifier db)))
    in
    span "bench.check" @@ fun () ->
    let labels =
      Array.map (fun (v : Classifier.verdict) -> Option.value v.cluster ~default:(-1)) verdicts
    in
    outputs.(j) <- Some (truth, labels);
    if footprint.(k) = None then
      footprint.(k) <-
        Some (per_model (Obj.reachable_words (Obj.repr classifier)) (Classifier.n_clusters classifier));
    (* The batch path must agree with the one-sequence path. *)
    let mid = Array.length labels / 2 in
    let single = Classifier.classify classifier (Seq_database.get db mid) in
    {
      requests = [| secs |];
      seqs = Array.length labels;
      symbols = Seq_database.total_symbols db;
      gc;
      model_words = Option.get footprint.(k);
      signature =
        digest (Array.map (fun (v : Classifier.verdict) -> (v.cluster, v.log_sim)) verdicts);
      problems =
        invariants
        @ List.filter_map
            (fun (ok, msg) -> if ok then None else Some msg)
            [
              (Array.length verdicts = Array.length truth, "classify_all returned too few verdicts");
              (verdicts.(mid) = single, "classify_all disagrees with classify");
            ];
    }
  in
  {
    jobs = Array.init (Array.length slots) job;
    quality =
      (fun () ->
        (* Each classifier is scored on its whole held-out set. *)
        typical
          (Array.mapi
             (fun k _ ->
               let got =
                 List.filter_map
                   (fun j -> if fst slots.(j) = k then outputs.(j) else None)
                   (List.init (Array.length slots) Fun.id)
               in
               if got = [] then None
               else
                 Some
                   (quality
                      ~truth:(Array.concat (List.map fst got))
                      (Array.concat (List.map snd got))))
             sets));
    layers =
      (fun () ->
        let last = sets.(Array.length sets - 1) in
        ("classifier.build_s", median (Array.map (fun s -> s.build_s) sets))
        :: ("threshold.converged", mean (Array.map (fun s -> converged batch_config s.result) sets))
        :: model_probes last.result last.train.db);
  }

(* One stream per job: a fresh Online state fed every sequence, one at
   a time, by a single client that waits for each reply (closed loop). *)
let streaming ~mine_at streams =
  let h_mine = Obs.Metrics.histogram "online.mine_seconds" in
  let scores = Array.map (fun _ -> None) streams in
  let last = ref None in
  let job i () =
    let data : Workload.t = streams.(i) in
    let seqs = Seq_database.sequences data.db in
    let n = Array.length seqs in
    let state = Online.create ~config:online_config ~mine_at ~alphabet_size:26 () in
    let latencies = Array.make n 0.0 in
    let mined = Array.make n false in
    let trace = Array.make n None in
    let (), gc =
      Obs.Resource.measure (fun () ->
          Array.iteri
            (fun j s ->
              let mines = Obs.Metrics.histogram_count h_mine in
              let r, dt = Timer.time (fun () -> span "bench.feed" (fun () -> Online.feed state s)) in
              latencies.(j) <- dt;
              trace.(j) <- r;
              mined.(j) <- Obs.Metrics.histogram_count h_mine > mines)
            seqs)
    in
    span "bench.check" @@ fun () ->
    let stats = Online.stats state in
    last := Some (latencies, mined, stats);
    scores.(i) <- Some (quality ~truth:data.labels (Array.map (Option.value ~default:(-1)) trace));
    let live = List.map fst (Online.cluster_sizes state) in
    let assigned = Array.fold_left (fun acc r -> if r = None then acc else acc + 1) 0 trace in
    {
      requests = latencies;
      seqs = n;
      symbols = Seq_database.total_symbols data.db;
      gc;
      model_words = per_model (Obj.reachable_words (Obj.repr state)) stats.n_clusters;
      signature = digest (trace, stats);
      problems =
        List.filter_map
          (fun (ok, msg) -> if ok then None else Some msg)
          [
            (stats.fed = n, "Online.stats miscounts the sequences fed");
            (stats.assigned = assigned, "Online.stats miscounts the assignments");
            ( Array.for_all (function Some c -> List.mem c live | None -> true) trace,
              "a feed reported a cluster that is not live" );
          ];
    }
  in
  {
    jobs = Array.init (Array.length streams) job;
    quality = (fun () -> typical scores);
    layers =
      (fun () ->
        match !last with
        | None -> []
        | Some (latencies, mined, stats) ->
            let pick want =
              Array.of_list
                (List.filteri (fun j _ -> mined.(j) = want) (Array.to_list latencies))
            in
            let plain = pick false and mining = pick true in
            [
              ("online.feed_p99_ms", percentile latencies 99.0 *. 1e3);
              ("online.feed_plain_p50_ms", median plain *. 1e3);
              ("online.feed_plain_p99_ms", percentile plain 99.0 *. 1e3);
              ("online.feed_mine_p50_ms", median mining *. 1e3);
              ("online.mines", float_of_int (Array.length mining));
              ( "online.assigned_frac",
                safe_div (float_of_int stats.assigned) (float_of_int stats.fed) );
              ("online.dropped", float_of_int stats.dropped_outliers);
            ]);
  }

(* ------------------------------------------------------------------ *)
(* The five workloads                                                  *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  default_seed : int;
  domains : int;
  setup : seed:int -> size -> instance;
}

let pick size ~full ~smoke = match size with Full -> full | Smoke -> smoke

(* Pool sizes make one round of a full-size clustering or streaming run
   last 10 to 15 seconds on a 2-core host (classify's rounds are short
   and repeat): distinct inputs, not repeats, are what steady the
   medians. *)
let workloads =
  [
    {
      name = "batch-k8";
      default_seed = 6;
      domains = 2;
      setup =
        (fun ~seed size ->
          clustering ~config:batch_config ~shards:1
            (Array.init (pick size ~full:30 ~smoke:2) (fun i ->
                 let d = synth ~n:240 ~len:150 ~k:8 ~outliers:0.10 ~seed:(sub_seed seed i) in
                 (d.db, d.labels))));
    };
    {
      name = "protein-8fam";
      default_seed = 11;
      domains = 1;
      setup =
        (fun ~seed size ->
          clustering ~config:protein_config ~shards:1
            (Array.init (pick size ~full:24 ~smoke:2) (fun i ->
                 let d =
                   Protein_sim.generate
                     {
                       Protein_sim.default_params with
                       n_families = 8;
                       total_sequences = pick size ~full:400 ~smoke:150;
                       seed = sub_seed seed i;
                     }
                 in
                 (d.db, d.labels))));
    };
    {
      name = "shard-2x";
      default_seed = 16;
      domains = 2;
      setup =
        (fun ~seed size ->
          clustering ~config:synth_config ~shards:2
            (Array.init (pick size ~full:10 ~smoke:2) (fun i ->
                 let d =
                   synth ~n:(pick size ~full:600 ~smoke:300) ~len:150 ~k:8 ~outliers:0.05
                     ~seed:(sub_seed seed i)
                 in
                 (d.db, d.labels))));
    };
    {
      name = "classify-heldout";
      default_seed = 31;
      domains = 2;
      setup =
        (fun ~seed size ->
          classification ~request:500
            (Array.init (pick size ~full:14 ~smoke:1) (fun i ->
                 let train =
                   synth ~n:(pick size ~full:200 ~smoke:150) ~len:150 ~k:8 ~outliers:0.05
                     ~seed:(sub_seed seed i)
                 in
                 ( (seed, i),
                   train,
                   Workload.resample train ~n_sequences:500
                     ~seed:(sub_seed seed (i + 500)) ))));
    };
    {
      name = "online-stream";
      default_seed = 41;
      domains = 1;
      setup =
        (fun ~seed size ->
          streaming ~mine_at:64
            (Array.init (pick size ~full:4 ~smoke:1) (fun i ->
                 synth ~n:(pick size ~full:1000 ~smoke:200) ~len:150 ~k:8 ~outliers:0.05
                   ~seed:(sub_seed seed i))));
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("latency_ms", "ms");
    ("seqs_per_s", "seq/s");
    ("accuracy", "ratio");
    ("ari", "ratio");
    ("model_kb", "KB");
  ]

let per_layer =
  [
    ("cluseq.generation_s", "s");
    ("cluseq.reclustering_s", "s");
    ("cluseq.consolidation_s", "s");
    ("cluseq.threshold_s", "s");
    ("cluseq.convergence_s", "s");
    ("cluseq.unattributed_s", "s");
    ("cluseq.iterations", "count");
    ("obs.overhead_frac", "ratio");
    ("bench.span_coverage", "ratio");
    ("bench.setup_self_s", "s");
    ("bench.job_self_s", "s");
    ("bench.check_s", "s");
    ("bench.probe_s", "s");
    ("scan.pairs_scored", "count");
    ("scan.pairs_reused", "count");
    ("scan.dirty_rescores", "count");
    ("scan.join_ratio", "ratio");
    ("psa.batch_ns_per_symbol", "ns");
    ("similarity.treewalk_ns_per_symbol", "ns");
    ("psa.compile_us_per_state", "us");
    ("psa.compilations", "count");
    ("psa.compiled_states", "count");
    ("psa.compile_s", "s");
    ("pst.insert_ns_per_symbol", "ns");
    ("pst.symbols_inserted", "count");
    ("cluster.absorbs", "count");
    ("pst.prune_waste_ratio", "ratio");
    ("pst.final_nodes", "count");
    ("divergence.kl_ms_per_pair", "ms");
    ("threshold.converged", "flag");
    ("shard.merge_s", "s");
    ("shard.consolidations", "count");
    ("shard.fixup_rescored", "count");
    ("pst.merge_ms", "ms");
    ("par.steal_wait_s", "s");
    ("par.tasks", "count");
    ("par.busy_ratio_min", "ratio");
    ("classifier.build_s", "s");
    ("online.feed_p99_ms", "ms");
    ("online.feed_plain_p50_ms", "ms");
    ("online.feed_plain_p99_ms", "ms");
    ("online.feed_mine_p50_ms", "ms");
    ("online.mines", "count");
    ("online.mine_s", "s");
    ("online.assigned_frac", "ratio");
    ("online.dropped", "count");
    ("gc.minor_words_per_symbol", "words");
    ("gc.major_collections", "count");
    ("mem.peak_rss_mb", "MB");
    ("host.calib_ms", "ms");
  ]

(* Peak resident set in MB, the off-heap PSA tables included. It is a
   maximum over the run's inputs, so it swings with the largest one: it
   is reported per layer, and model_kb is the end-to-end figure. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:"VmHWM:" line then
           Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
               Some (kb /. 1024.0))
         else None)
  |> Option.value ~default:0.0

(* Host speed. On a shared VM the speed a process gets moves by 10 to
   20% within seconds and by more over minutes, as neighbours contend for
   the cores and the shared cache, which would swamp any code change.
   Every timing behind an end-to-end metric is therefore scaled to a
   reference host by a fixed loop: 60 000 binary searches for
   pseudo-random keys in a sorted 8 MB table held off the OCaml heap, so
   the GC never scans it. Like CLUSEQ's tree walks, it is a chain of
   dependent, branchy loads through a working set larger than the
   private caches. It is re-timed at most every half second, and a
   job's times are multiplied by [reference_calib_ms] over the mean of
   the readings just before and just after it. On the 2-vCPU VM the
   bounds were set on, the loop's median was [reference_calib_ms]. There,
   over two sets of 623 and 497 repeats of the same three jobs, this
   scaling cut the variation of means over 8 consecutive repeats from
   0.072 and 0.093 (raw times) to 0.037 and 0.041. A register-only
   integer loop left 0.043 and 0.059; a 16 MB pointer chase left 0.052
   and 0.050, and inside this suite its reading swung by 2.7x with how
   much of its table the preceding work had left in cache. *)
let reference_calib_ms = 21.6

let calib_table =
  let n = 1 lsl 20 in
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    t.{i} <- 3 * i
  done;
  t

let calib_once () =
  let n = Bigarray.Array1.dim calib_table in
  let (), secs =
    Timer.time (fun () ->
        let x = ref 12345 and hits = ref 0 in
        for _ = 1 to 60_000 do
          x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
          let key = !x mod (3 * n) in
          let lo = ref 0 and hi = ref (n - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) lsr 1 in
            if Bigarray.Array1.unsafe_get calib_table mid < key then lo := mid + 1 else hi := mid
          done;
          if Bigarray.Array1.unsafe_get calib_table !lo = key then incr hits
        done;
        ignore (Sys.opaque_identity !hits))
  in
  secs *. 1e3

let calib_readings = ref []
let last_calib = ref 0L

let host_calib_ms () =
  if !calib_readings = [] || Timer.span_s !last_calib (Timer.now_ns ()) >= 0.5 then begin
    calib_readings := span "bench.calib" calib_once :: !calib_readings;
    last_calib := Timer.now_ns ()
  end;
  List.hd !calib_readings

(* Runs [f] and returns its result with a factor that scales the seconds
   it measured to the reference host. *)
let at_reference_speed f =
  let before = host_calib_ms () in
  let v = f () in
  (v, reference_calib_ms /. (0.5 *. (before +. host_calib_ms ())))

(* ------------------------------------------------------------------ *)
(* Running jobs, with failure accounting                               *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let problems = ref []
let note_problem msg = problems := msg :: !problems

(* Signature of each input's first successful job, by job index. *)
let signatures : (int, string) Hashtbl.t = Hashtbl.create 16

let checked_job inst i =
  match at_reference_speed inst.jobs.(i) with
  | job, scale ->
      let job = { job with requests = Array.map (( *. ) scale) job.requests } in
      let n = Array.length job.requests in
      attempted := !attempted + n;
      let repeats =
        match Hashtbl.find_opt signatures i with
        | None ->
            Hashtbl.add signatures i job.signature;
            true
        | Some s -> s = job.signature
      in
      if not repeats then note_problem (Printf.sprintf "job %d's outputs changed on a rerun" i);
      List.iter note_problem job.problems;
      if job.problems <> [] || not repeats then failed := !failed + n;
      Some job
  | exception e ->
      incr attempted;
      incr failed;
      note_problem (Printf.sprintf "job %d raised %s" i (Printexc.to_string e));
      None

(* A full collection, so that timed work does not pay for the garbage
   of what ran before it. *)
let collect () = span "bench.gc" Gc.full_major

(* Whole rounds over [jobs] for about [seconds]: another round starts
   only if at least half of it should fit. *)
let rounds inst ~jobs ~seconds =
  collect ();
  let t0 = Timer.now_ns () in
  let rec go acc n =
    let acc = List.rev_append (List.filter_map (checked_job inst) jobs) acc in
    let elapsed = Timer.span_s t0 (Timer.now_ns ()) in
    if elapsed +. (0.5 *. elapsed /. float_of_int n) >= seconds then List.rev acc
    else go acc (n + 1)
  in
  go [] 1

let all_jobs inst = List.init (Array.length inst.jobs) Fun.id
let requests jobs = Array.concat (List.map (fun j -> j.requests) jobs)
let total = Array.fold_left ( +. ) 0.0

(* Timed set-ups per run; setup_s is their median. *)
let setups = 7

let untraced w ~seed ~size ~seconds =
  (* Each set-up starts from a collected heap that holds no earlier
     instance. The first one is not timed: it pays for heap growth and
     lazy initialisation, and trains the classifiers. *)
  let inst = ref None in
  let set_up () =
    inst := None;
    collect ();
    let (i, secs), scale = at_reference_speed (fun () -> Timer.time (fun () -> w.setup ~seed size)) in
    inst := Some i;
    secs *. scale
  in
  ignore (set_up ());
  let setup_s = median (Array.init setups (fun _ -> set_up ())) in
  let inst = Option.get !inst in
  (* Warm-up, and the first rerun check of input 0. *)
  collect ();
  ignore (checked_job inst 0);
  let jobs = rounds inst ~jobs:(all_jobs inst) ~seconds in
  let latencies = requests jobs in
  let seqs = List.fold_left (fun acc j -> acc + j.seqs) 0 jobs in
  let accuracy, ari = inst.quality () in
  [
    ("setup_s", setup_s);
    ("latency_ms", geomean latencies *. 1e3);
    ("seqs_per_s", safe_div (float_of_int seqs) (total latencies));
    ("accuracy", accuracy);
    ("ari", ari);
    ( "model_kb",
      mean (Array.of_list (List.map (fun j -> j.model_words) jobs))
      *. float_of_int (Sys.word_size / 8)
      /. 1024.0 );
  ]

(* Self time of the spans under [roots] whose name satisfies [keep]: a
   span's duration minus the part its children cover. *)
let self_time keep roots =
  let rec go acc sp =
    let kids = Obs.Trace.children sp in
    let acc =
      if keep (Obs.Trace.name sp) then
        acc
        +. Obs.Trace.duration_s sp
        -. List.fold_left (fun a c -> a +. Obs.Trace.duration_s c) 0.0 kids
      else acc
    in
    List.fold_left go acc kids
  in
  List.fold_left go 0.0 roots

let traced w ~seed ~size ~seconds ~trace_out =
  (* Untraced baseline over the first inputs: the overhead denominator
     and the GC deltas. The traced section reruns the same inputs. *)
  let inst = w.setup ~seed size in
  collect ();
  ignore (checked_job inst 0);
  collect ();
  let baseline =
    let t0 = Timer.now_ns () in
    let rec go acc i =
      if i = Array.length inst.jobs || (i > 0 && Timer.span_s t0 (Timer.now_ns ()) >= 0.25 *. seconds)
      then List.rev acc
      else go (match checked_job inst i with Some j -> (i, j) :: acc | None -> acc) (i + 1)
    in
    go [] 0
  in
  let ran = List.map fst baseline and baseline = List.map snd baseline in
  let gc = List.fold_left (fun acc j -> Obs.Resource.add acc j.gc) Obs.Resource.zero baseline in
  let base_symbols = float_of_int (List.fold_left (fun acc j -> acc + j.symbols) 0 baseline) in
  if trace_out <> None then Obs.Recorder.enable ();
  Obs.enable_all ();
  let t0 = Timer.now_ns () in
  let inst = span "bench.setup" (fun () -> w.setup ~seed size) in
  collect ();
  Obs.Metrics.reset ();
  let jobs = List.filter_map (checked_job inst) ran in
  let per_job x = safe_div x (float_of_int (List.length jobs)) in
  let counter name = per_job (float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter name))) in
  let hist name = per_job (Obs.Metrics.histogram_sum (Obs.Metrics.histogram name)) in
  let phases =
    List.map
      (fun p -> ("cluseq." ^ p ^ "_s", hist ("cluseq.iter." ^ p ^ "_seconds")))
      [ "generation"; "reclustering"; "consolidation"; "threshold"; "convergence" ]
  in
  let scored = counter "cluseq.scan.pairs_scored" and reused = counter "cluseq.scan.pairs_reused" in
  let library =
    phases
    @ [
        ( "cluseq.unattributed_s",
          hist "cluseq.run_seconds" -. List.fold_left (fun a (_, v) -> a +. v) 0.0 phases );
        ("cluseq.iterations", counter "cluseq.iterations");
        ( "obs.overhead_frac",
          safe_div (total (requests jobs)) (total (requests baseline)) -. 1.0 );
        ("scan.pairs_scored", scored);
        ("scan.pairs_reused", reused);
        ("scan.dirty_rescores", counter "cluseq.scan.dirty_rescores");
        ("scan.join_ratio", safe_div (counter "cluseq.scan.pairs_joined") (scored +. reused));
        ("psa.compilations", counter "pst.compilations");
        ("psa.compiled_states", counter "pst.compiled_states");
        ("psa.compile_s", hist "similarity.compile_seconds");
        ("pst.symbols_inserted", counter "pst.symbols_inserted");
        ("cluster.absorbs", counter "cluster.absorbs");
        ( "pst.prune_waste_ratio",
          safe_div (counter "pst.nodes_pruned") (counter "pst.node_creations") );
        ("shard.merge_s", hist "cluseq.shard.merge_seconds");
        ("shard.consolidations", counter "cluseq.shard.consolidations");
        ("shard.fixup_rescored", counter "cluseq.shard.fixup_rescored");
        ("par.steal_wait_s", hist "par.steal_wait_seconds");
        ("par.tasks", counter "par.tasks");
        ( "par.busy_ratio_min",
          Obs.Metrics.gauge_value (Obs.Metrics.gauge "par.domain_busy_ratio_min") );
        ("online.mine_s", hist "online.mine_seconds");
        ("gc.minor_words_per_symbol", safe_div gc.minor_words base_symbols);
        ( "gc.major_collections",
          safe_div (float_of_int gc.major_collections) (float_of_int (List.length baseline)) );
      ]
  in
  let layers = inst.layers () in
  let t1 = Timer.now_ns () in
  Obs.Trace.disable ();
  Obs.Metrics.disable ();
  let roots = Obs.Trace.roots () in
  let named n sp = Obs.Trace.name sp = n in
  let job_roots = List.filter (fun sp -> not (named "bench.setup" sp)) roots in
  let spans =
    [
      ( "bench.span_coverage",
        safe_div
          (List.fold_left (fun a sp -> a +. Obs.Trace.duration_s sp) 0.0 roots)
          (Timer.span_s t0 t1) );
      ("bench.setup_self_s", self_time (fun n -> n = "bench.setup") roots);
      ( "bench.job_self_s",
        per_job
          (self_time
             (fun n -> List.mem n [ "bench.cluster"; "bench.classify"; "bench.feed" ])
             job_roots) );
      ("bench.check_s", per_job (self_time (fun n -> n = "bench.check") roots));
      ("bench.probe_s", self_time (String.starts_with ~prefix:"bench.probe.") roots);
    ]
  in
  Option.iter
    (fun file -> Obs.Export.write_file file (Obs.Export.to_chrome_trace ()))
    trace_out;
  (* A layer a workload does not exercise reads 0. *)
  let known = (("mem.peak_rss_mb", peak_rss_mb ()) :: library) @ spans @ layers in
  List.map
    (fun (name, _) -> (name, Option.value (List.assoc_opt name known) ~default:0.0))
    per_layer

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let report ~workload ~units values =
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %.6g %s\n" workload name v (List.assoc name units))
    values;
  let correct = !problems = [] && List.for_all (fun (_, v) -> Float.is_finite v) values in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
              (List.assoc name units))
          values));
  List.iter (fun msg -> prerr_endline ("check failed: " ^ msg)) (List.rev !problems);
  correct

let usage () =
  prerr_endline
    "usage: suite.exe WORKLOAD [--seed N] [--seconds S] [--traced] [--size full|smoke] \
     [--trace-out FILE]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 in
  let traced_run = ref false and size = ref Full and trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        seed := Some (match int_of_string_opt v with Some s -> s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (seconds := match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
        parse rest
    | "--traced" :: rest ->
        traced_run := true;
        parse rest
    | "--size" :: (("full" | "smoke") as v) :: rest ->
        size := if v = "full" then Full else Smoke;
        parse rest
    | "--trace-out" :: file :: rest ->
        trace_out := Some file;
        parse rest
    | name :: rest when !workload = None && not (String.starts_with ~prefix:"-" name) ->
        workload := Some name;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match Option.bind !workload (fun name -> List.find_opt (fun w -> w.name = name) workloads) with
    | Some w -> w
    | None -> usage ()
  in
  let seed = Option.value !seed ~default:w.default_seed in
  let domains = min w.domains (Domain.recommended_domain_count ()) in
  Par.set_default_domains domains;
  Printf.printf "%s env.seed %d -\n%s env.domains %d -\n%s env.nproc %d -\n%!" w.name seed w.name
    domains w.name (Domain.recommended_domain_count ());
  let values, units =
    try
      if !traced_run then
        (traced w ~seed ~size:!size ~seconds:!seconds ~trace_out:!trace_out, per_layer)
      else (untraced w ~seed ~size:!size ~seconds:!seconds, end_to_end)
    with e ->
      incr failed;
      note_problem ("run raised " ^ Printexc.to_string e);
      ([], [])
  in
  let calib = median (Array.of_list !calib_readings) in
  Printf.printf "%s env.calib_ms %.4g ms\n" w.name calib;
  let values = List.map (fun (n, v) -> (n, if n = "host.calib_ms" then calib else v)) values in
  if not (report ~workload:w.name ~units values) then exit 1
