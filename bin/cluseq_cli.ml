(* cluseq — command-line front end.

   Subcommands:
     generate   synthesize a labeled sequence database (synthetic / protein /
                language workloads) into a label<TAB>sequence file
     cluster    run CLUSEQ on a sequence file, print cluster assignments
     evaluate   score a clustering against the ground-truth labels in the file
     explain    one sequence's join/leave provenance + per-position
                similarity attribution
     info       print database statistics

   All randomness is seeded; identical invocations produce identical
   output. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Observability arguments (shared by every subcommand)                *)
(* ------------------------------------------------------------------ *)

let emit_metrics dest () =
  (* Fold the process's GC/heap cost into the report: absolute
     Gc.quick_stat totals plus the sampled peak-heap watermark, as
     gc.* gauges (see DESIGN.md §6). *)
  Obs.Resource.publish_current ();
  match dest with
  | "" | "-" -> prerr_string (Obs.Export.summary ())
  | file -> (
      let contents =
        if Filename.check_suffix file ".prom" || Filename.check_suffix file ".txt" then
          Obs.Export.to_prometheus ()
        else Obs.Export.to_json ()
      in
      (* Runs from at_exit: an escaping exception would mask the run's
         result with a fatal-error banner. *)
      try
        Obs.Export.write_file file contents;
        Printf.eprintf "metrics written to %s\n" file
      with Sys_error msg -> Printf.eprintf "cluseq: cannot write metrics: %s\n" msg)

let emit_trace () = Format.eprintf "== trace ==@\n%a@?" Obs.Trace.pp ()

let emit_chrome_trace file () =
  (* Flush pending runtime events so GC spans reach the timeline. *)
  ignore (Obs.Runtime_bridge.poll ());
  Obs.Runtime_bridge.stop ();
  try
    Obs.Export.write_file file (Obs.Export.to_chrome_trace ());
    Printf.eprintf "trace written to %s (open at https://ui.perfetto.dev)\n" file
  with Sys_error msg -> Printf.eprintf "cluseq: cannot write trace: %s\n" msg

(* Out-of-range option values are a usage problem, not an internal
   error: name the option and exit 1 before any command reads or writes
   a file. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "cluseq: %s\n" msg;
      exit 1)
    fmt

let at_least option lo v =
  if v < lo then usage_error "%s must be at least %d (got %d)" option lo v

(* The domain pool and [Shard.run] clamp to this many domains and
   shards; a value past it would run silently clamped. *)
let max_parallel = 64

let in_parallel_range option v =
  if v < 1 || v > max_parallel then
    usage_error "%s must be between 1 and %d (got %d)" option max_parallel v

(* Returns the verbosity count; reports are emitted via [at_exit] so a
   subcommand needs no explicit teardown. *)
let setup_obs verbosity metrics trace trace_out journal domains check no_index =
  Option.iter (in_parallel_range "--domains") domains;
  let vcount = List.length verbosity in
  Obs.Logging.setup ~level:(Obs.Logging.level_of_verbosity vcount) ();
  (match domains with None -> () | Some d -> Par.set_default_domains d);
  if no_index then Cluster.set_cache_enabled false;
  if check then Check.install_auditor ();
  (match journal with
  | None -> ()
  | Some file -> (
      try
        Obs.Journal.open_file file;
        at_exit (fun () ->
            Obs.Journal.close ();
            let dropped = Obs.Journal.dropped () in
            if dropped > 0 then
              Printf.eprintf "cluseq: journal dropped %d records (write failures)\n" dropped)
      with Sys_error msg -> Printf.eprintf "cluseq: cannot open journal: %s\n" msg));
  (match metrics with
  | None -> ()
  | Some dest ->
      Obs.Metrics.enable ();
      Obs.Resource.start_sampler ();
      at_exit (emit_metrics dest));
  if trace then begin
    Obs.Trace.enable ();
    at_exit emit_trace
  end;
  (match trace_out with
  | None -> ()
  | Some file ->
      Obs.Trace.enable ();
      Obs.Recorder.enable ();
      if not (Obs.Runtime_bridge.start ()) then
        Printf.eprintf "cluseq: runtime-events bridge unavailable; trace will lack GC events\n";
      at_exit (emit_chrome_trace file));
  vcount

let obs_term =
  let verbosity =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ]
          ~doc:
            "Increase log verbosity (repeatable: -v info, -vv debug); for $(b,cluster), also \
             print per-iteration statistics. The $(b,CLUSEQ_LOG) environment variable \
             overrides the log level.")
  in
  let metrics =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Record pipeline metrics (PST growth, similarity scans, per-phase times). With \
             no $(docv), print a summary to stderr on exit; with $(docv), write a report: \
             Prometheus text format if $(docv) ends in .prom or .txt, JSON otherwise.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record a tree of timed spans (run / iteration / phase) and print it to stderr \
             on exit.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record a cross-domain flight-recorder trace and write it to $(docv) as Chrome \
             trace-format JSON on exit (open at https://ui.perfetto.dev). The timeline \
             merges the main-domain span tree, per-domain worker events from the scoring \
             pool, and GC/domain-lifecycle events from the OCaml runtime.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Record a decision-provenance journal to $(docv): one JSON object per line \
             describing every model decision (clusters seeded / grown / frozen / dismissed, \
             threshold moves, per-sequence joins and leaves with the deciding similarity, \
             per-iteration drift gauges). Zero cost when absent; read it back with \
             $(b,cluseq explain).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Size of the scoring domain pool, 1 to 64; 1 runs fully serial. Results are \
             identical for any value. Defaults to the $(b,CLUSEQ_DOMAINS) environment \
             variable, or the machine's recommended domain count.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Install the runtime correctness auditor: every reclustering pass is replayed by \
             a serial reference implementation and every iteration's cluster invariants are \
             verified; any divergence aborts the run. Slow — for debugging and CI.")
  in
  let no_index =
    Arg.(
      value & flag
      & info [ "no-index" ]
          ~doc:
            "Disable the score-column cache and score every (sequence, cluster) pair every \
             iteration, instead of reusing the previous pass's scores against clusters whose \
             model did not change. Results are bit-identical either way; this exists for \
             debugging and for measuring the cache end to end.")
  in
  Term.(
    const setup_obs $ verbosity $ metrics $ trace $ trace_out $ journal $ domains $ check
    $ no_index)

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let shards_arg =
  let shards =
    Arg.(
      value
      & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the database into $(docv) deterministic shards (1 to 64), run the \
             full CLUSEQ loop per shard concurrently on the domain pool, and merge the \
             per-shard models into consolidated clusters (counts-added PSTs; cross-shard \
             cluster pairs under a symmetrized-KL threshold are unioned — see DESIGN.md \
             §14). 1 is exactly the unsharded run.")
  in
  Term.(
    const (fun v ->
        in_parallel_range "--shards" v;
        v)
    $ shards)

let file_arg p =
  Arg.(required & pos p (some string) None & info [] ~docv:"FILE" ~doc:"Sequence file (label<TAB>sequence lines).")

(* A missing, unreadable, unwritable or malformed file is a problem with
   the input, not an internal error: name the file and exit 1. *)
let with_file file f =
  try f file with
  | Failure msg | Invalid_argument msg ->
      Printf.eprintf "cluseq: %s: %s\n" file msg;
      exit 1
  | Sys_error msg ->
      (* The message already starts with the file name. *)
      Printf.eprintf "cluseq: %s\n" msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("synthetic", `Synthetic); ("protein", `Protein); ("language", `Language) ]) `Synthetic
      & info [ "kind" ] ~docv:"KIND" ~doc:"Workload kind: synthetic, protein, or language.")
  in
  let n = Arg.(value & opt int 1000 & info [ "num" ] ~docv:"N" ~doc:"Number of sequences.") in
  let len = Arg.(value & opt int 200 & info [ "len" ] ~docv:"L" ~doc:"Average sequence length.") in
  let k = Arg.(value & opt int 10 & info [ "clusters" ] ~docv:"K" ~doc:"Embedded clusters / families.") in
  let sigma = Arg.(value & opt int 26 & info [ "sigma" ] ~docv:"S" ~doc:"Alphabet size (synthetic only).") in
  let outliers =
    Arg.(value & opt float 0.05 & info [ "outliers" ] ~docv:"F" ~doc:"Outlier fraction (synthetic only).")
  in
  let contexts =
    Arg.(value & opt int 120 & info [ "contexts" ] ~docv:"N" ~doc:"Generator contexts per cluster (synthetic only).")
  in
  let concentration =
    Arg.(value & opt float 0.15 & info [ "separation" ] ~docv:"F" ~doc:"Context peakedness; smaller = better-separated clusters (synthetic only).")
  in
  let out = Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.") in
  let run _vcount kind n len k sigma outliers contexts concentration seed out =
    (* Only the options the chosen kind reads are checked. *)
    (match kind with
    | `Synthetic ->
        at_least "--num" 1 n;
        at_least "--clusters" 1 k;
        at_least "--sigma" 1 sigma;
        at_least "--len" 1 len;
        at_least "--contexts" 0 contexts;
        (* [not (... && ...)] rather than [< 0. || >= 1.]: the latter lets NaN through. *)
        if not (outliers >= 0.0 && outliers < 1.0) then
          usage_error "--outliers must be at least 0 and below 1 (got %g)" outliers;
        if not (Float.is_finite concentration && concentration > 0.0) then
          usage_error "--separation must be finite and above 0 (got %g)" concentration
    | `Protein ->
        at_least "--clusters" 1 k;
        if n < 2 * k then
          usage_error "--num must be at least 2 per family, %d for --clusters %d (got %d)"
            (2 * k) k n;
        at_least "--len" 1 len
    | `Language ->
        (* One third of the sequences per language. *)
        at_least "--num" 3 n);
    let rows, alphabet =
      match kind with
      | `Synthetic ->
          let w =
            Workload.generate
              {
                Workload.default_params with
                n_sequences = n;
                avg_length = len;
                alphabet_size = sigma;
                n_clusters = k;
                outlier_fraction = outliers;
                contexts_per_cluster = contexts;
                concentration;
                seed;
              }
          in
          ( Array.mapi
              (fun i s -> (string_of_int w.labels.(i), s))
              (Seq_database.sequences w.db),
            Seq_database.alphabet w.db )
      | `Protein ->
          let p =
            Protein_sim.generate
              {
                Protein_sim.default_params with
                n_families = k;
                total_sequences = n;
                avg_length = len;
                seed;
              }
          in
          ( Array.mapi
              (fun i s -> (string_of_int p.labels.(i), s))
              (Seq_database.sequences p.db),
            Seq_database.alphabet p.db )
      | `Language ->
          let l =
            Language_sim.generate
              { Language_sim.default_params with per_language = n / 3; seed }
          in
          ( Array.mapi
              (fun i s -> (string_of_int l.labels.(i), s))
              (Seq_database.sequences l.db),
            Seq_database.alphabet l.db )
    in
    with_file out (fun out -> Seq_io.write_labeled out alphabet rows);
    Printf.printf "wrote %d sequences to %s\n" (Array.length rows) out
  in
  let term =
    Term.(
      const run $ obs_term $ kind $ n $ len $ k $ sigma $ outliers $ contexts $ concentration
      $ seed_arg $ out)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a labeled synthetic sequence database.") term

(* ------------------------------------------------------------------ *)
(* cluster                                                             *)
(* ------------------------------------------------------------------ *)

let config_args =
  let k_init = Arg.(value & opt int 1 & info [ "k-init" ] ~docv:"K" ~doc:"Initial number of clusters.") in
  let c = Arg.(value & opt int 30 & info [ "significance" ] ~docv:"C" ~doc:"Significance threshold (paper: >= 30; scale down with the data).") in
  let t = Arg.(value & opt float 1.2 & info [ "threshold" ] ~docv:"T" ~doc:"Initial similarity threshold (linear, >= 1).") in
  let depth = Arg.(value & opt int 10 & info [ "depth" ] ~docv:"L" ~doc:"Max PST context length.") in
  let max_nodes = Arg.(value & opt int 20000 & info [ "max-nodes" ] ~docv:"N" ~doc:"PST node budget per cluster.") in
  let residual = Arg.(value & opt (some int) None & info [ "min-residual" ] ~docv:"R" ~doc:"Consolidation keep-threshold (default: C).") in
  let no_adjust = Arg.(value & flag & info [ "no-adjust" ] ~doc:"Disable automatic threshold adjustment.") in
  let order =
    Arg.(
      value
      & opt (enum [ ("fixed", Order.Fixed); ("random", Order.Random); ("cluster-based", Order.Cluster_based) ]) Order.Fixed
      & info [ "order" ] ~docv:"ORDER" ~doc:"Sequence examination order.")
  in
  let iters = Arg.(value & opt int 50 & info [ "max-iterations" ] ~docv:"M" ~doc:"Iteration cap.") in
  let make k_init c t depth max_nodes residual no_adjust order iters seed =
    at_least "--k-init" 1 k_init;
    at_least "--significance" 1 c;
    at_least "--depth" 1 depth;
    at_least "--max-nodes" 1 max_nodes;
    Option.iter (at_least "--min-residual" 0) residual;
    at_least "--max-iterations" 0 iters;
    (* [not (>= 1.0)] rather than [< 1.0]: the latter lets NaN through. *)
    if not (Float.is_finite t && t >= 1.0) then
      usage_error "--threshold must be a finite value >= 1 (got %g)" t;
    {
      Cluseq.default_config with
      k_init;
      significance = c;
      t_init = t;
      max_depth = depth;
      max_nodes;
      min_residual = residual;
      adjust_threshold = not no_adjust;
      order;
      max_iterations = iters;
      seed;
    }
  in
  Term.(const make $ k_init $ c $ t $ depth $ max_nodes $ residual $ no_adjust $ order $ iters $ seed_arg)

let cluster_cmd =
  let assignments_out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write per-sequence assignments (id, clusters) to FILE.")
  in
  let run vcount file config shards assignments_out =
    let alphabet, rows = with_file file Seq_io.read_labeled in
    let db, _labels = Seq_io.to_database alphabet rows in
    let result, seconds = Timer.time (fun () -> Shard.run ~config ~shards db) in
    Printf.printf "clusters: %d  iterations: %d  final t: %.4g  outliers: %d  time: %.2fs\n"
      result.n_clusters result.iterations result.final_t (List.length result.outliers) seconds;
    if vcount > 0 then
      List.iter
        (fun (h : Cluseq.iteration_stats) ->
          Printf.printf "  iter %2d: new=%d consolidated=%d clusters=%d unclustered=%d t=%.4g changes=%d\n"
            h.iteration h.new_clusters h.consolidated h.clusters h.unclustered h.threshold
            h.membership_changes;
          Printf.printf
            "           scan: pairs=%d joined=%d scored_joins=%d rescores=%d wasted=%.1f%%\n"
            h.census.pairs_scored h.census.pairs_joined h.census.scored_joins
            h.census.dirty_rescores
            (100.0 *. Cluseq.wasted_pair_ratio h.census))
        result.history;
    Array.iter
      (fun (id, members) -> Printf.printf "cluster %d: %d sequences\n" id (Array.length members))
      result.clusters;
    match assignments_out with
    | None -> ()
    | Some out ->
        with_file out (fun out ->
            Out_channel.with_open_text out (fun oc ->
                Array.iteri
                  (fun i cs ->
                    Printf.fprintf oc "%d\t%s\n" i
                      (String.concat "," (List.map string_of_int cs)))
                  result.assignments));
        Printf.printf "assignments written to %s\n" out
  in
  let term = Term.(const run $ obs_term $ file_arg 0 $ config_args $ shards_arg $ assignments_out) in
  Cmd.v (Cmd.info "cluster" ~doc:"Run CLUSEQ on a sequence file.") term

(* ------------------------------------------------------------------ *)
(* train / classify                                                    *)
(* ------------------------------------------------------------------ *)

let train_cmd =
  let model_out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trained classifier model to FILE.")
  in
  let run _vcount file config shards model_out =
    let alphabet, rows = with_file file Seq_io.read_labeled in
    let db, _ = Seq_io.to_database alphabet rows in
    let result, seconds = Timer.time (fun () -> Shard.run ~config ~shards db) in
    Printf.printf "clusters: %d  final t: %.4g  time: %.2fs
" result.n_clusters
      result.final_t seconds;
    if result.n_clusters = 0 then begin
      Printf.eprintf "cluseq: %s: no clusters found, nothing to train\n" file;
      exit 1
    end;
    let clf = Classifier.of_result result db in
    with_file model_out (fun out -> Classifier.save out clf);
    Printf.printf "model written to %s (%d cluster models)
" model_out
      (Classifier.n_clusters clf)
  in
  let term = Term.(const run $ obs_term $ file_arg 0 $ config_args $ shards_arg $ model_out) in
  Cmd.v
    (Cmd.info "train" ~doc:"Cluster a sequence file and save the models for later classification.")
    term

let classify_cmd =
  let model_arg =
    Arg.(required & opt (some string) None & info [ "m"; "model" ] ~docv:"FILE" ~doc:"Classifier model from 'cluseq train'.")
  in
  let run _vcount file model =
    let clf = with_file model Classifier.load in
    (* Encode with the model's own alphabet: an independently inferred
       alphabet would permute symbol codes. *)
    let alphabet, rows =
      with_file file (Seq_io.read_labeled ?alphabet:(Classifier.alphabet clf))
    in
    let db, labels = Seq_io.to_database alphabet rows in
    let verdicts = Classifier.classify_all clf db in
    let outliers = ref 0 in
    Array.iteri
      (fun i (v : Classifier.verdict) ->
        match v.cluster with
        | Some c -> Printf.printf "%d	%s	cluster %d	log-sim %.2f
" i labels.(i) c v.log_sim
        | None ->
            incr outliers;
            Printf.printf "%d	%s	outlier	log-sim %.2f
" i labels.(i) v.log_sim)
      verdicts;
    Printf.printf "# %d sequences, %d outliers, threshold %.4g, %d cluster models
"
      (Array.length verdicts) !outliers (Classifier.threshold clf) (Classifier.n_clusters clf)
  in
  let term = Term.(const run $ obs_term $ file_arg 0 $ model_arg) in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify sequences against a trained model.")
    term

(* ------------------------------------------------------------------ *)
(* evaluate                                                            *)
(* ------------------------------------------------------------------ *)

let evaluate_cmd =
  let run _vcount file config shards =
    let alphabet, rows = with_file file Seq_io.read_labeled in
    let db, label_names = Seq_io.to_database alphabet rows in
    (* Ground truth: numeric labels, "-1" marking outliers. *)
    let truth =
      Array.map (fun l -> match int_of_string_opt l with Some v -> v | None -> -1) label_names
    in
    let result, seconds = Timer.time (fun () -> Shard.run ~config ~shards db) in
    let n = Seq_database.n_sequences db in
    let hard = Cluseq.hard_labels result ~n in
    let pred_class = Matching.relabel ~truth ~pred:hard in
    Printf.printf "clusters: %d (time %.2fs)\n" result.n_clusters seconds;
    Printf.printf "accuracy: %.1f%%\n" (100.0 *. Metrics.accuracy ~truth ~pred_class);
    Printf.printf "ARI: %.3f\n" (Metrics.adjusted_rand_index ~truth ~pred:hard);
    Printf.printf "%-8s %11s %8s\n" "class" "precision%" "recall%";
    List.iter
      (fun (cls, (pr : Metrics.pr)) ->
        Printf.printf "%-8d %11.1f %8.1f\n" cls (100.0 *. pr.precision) (100.0 *. pr.recall))
      (Metrics.per_class ~truth ~pred_class);
    let out = Metrics.outlier_detection ~truth ~pred_class in
    Printf.printf "outlier detection: precision %.1f%% recall %.1f%%\n"
      (100.0 *. out.precision) (100.0 *. out.recall)
  in
  let term = Term.(const run $ obs_term $ file_arg 0 $ config_args $ shards_arg) in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Cluster a labeled file and score against its ground truth.")
    term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let seq_arg =
    Arg.(
      required & pos 1 (some int) None
      & info [] ~docv:"SEQ_ID" ~doc:"Sequence id: 0-based line position in FILE.")
  in
  let cluster_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cluster" ] ~docv:"ID"
          ~doc:
            "Explain the similarity to this cluster (default: the sequence's best final \
             cluster).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Number of top contributing positions to print.")
  in
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "cluseq: %s\n" msg;
        exit 1)
      fmt
  in
  let fint k fields = Option.bind (List.assoc_opt k fields) Bench_json.to_int in
  let ffloat k fields = Option.bind (List.assoc_opt k fields) Bench_json.to_float in
  let run _vcount file seq_id config shards cluster_opt top =
    let alphabet, rows = with_file file Seq_io.read_labeled in
    let db, _ = Seq_io.to_database alphabet rows in
    let n = Seq_database.n_sequences db in
    if seq_id < 0 || seq_id >= n then
      die "SEQ_ID %d out of range (file has %d sequences)" seq_id n;
    (* The run is deterministic for a fixed config, so re-deriving
       provenance is exact: journal the rerun — to the --journal file
       when one was given, else to a throwaway temp file — and read the
       records back. *)
    let temp =
      match Obs.Journal.current_path () with
      | Some _ -> None
      | None ->
          let tmp = Filename.temp_file "cluseq-explain" ".jsonl" in
          (try Obs.Journal.open_file tmp
           with Sys_error msg -> die "cannot open journal: %s" msg);
          Some tmp
    in
    let result = Shard.run ~config ~shards db in
    Obs.Journal.flush ();
    let jpath =
      match Obs.Journal.current_path () with Some p -> p | None -> die "journal vanished"
    in
    let entries =
      match Obs.Journal.read_file jpath with
      | Ok es -> es
      | Error msg -> die "cannot read journal %s: %s" jpath msg
    in
    (match temp with
    | Some tmp ->
        Obs.Journal.close ();
        (try Sys.remove tmp with Sys_error _ -> ())
    | None -> ());
    (* --- assignment history --- *)
    Printf.printf "sequence %d: assignment history\n" seq_id;
    let joined_ever = Hashtbl.create 8 in
    let printed = ref 0 in
    List.iter
      (fun (e : Obs.Journal.entry) ->
        let iter = Option.value ~default:0 (fint "iter" e.j_fields) in
        let cl = Option.value ~default:(-1) (fint "cluster" e.j_fields) in
        match e.j_event with
        | "seq.joined" when fint "seq" e.j_fields = Some seq_id ->
            incr printed;
            Hashtbl.replace joined_ever cl ();
            Printf.printf "  iter %2d: joined cluster %d (log-sim %.4f >= log t %.4f)\n" iter
              cl
              (Option.value ~default:Float.nan (ffloat "log_sim" e.j_fields))
              (Option.value ~default:Float.nan (ffloat "log_t" e.j_fields))
        | "seq.left" when fint "seq" e.j_fields = Some seq_id ->
            incr printed;
            Printf.printf "  iter %2d: left cluster %d (log-sim %.4f < log t %.4f)\n" iter cl
              (Option.value ~default:Float.nan (ffloat "log_sim" e.j_fields))
              (Option.value ~default:Float.nan (ffloat "log_t" e.j_fields))
        | "cluster.dismissed" when Hashtbl.mem joined_ever cl ->
            incr printed;
            let absorbers =
              match List.assoc_opt "absorbed_by" e.j_fields with
              | Some (Bench_json.Arr l) -> List.filter_map Bench_json.to_int l
              | _ -> []
            in
            Printf.printf "  iter %2d: cluster %d dismissed in consolidation%s\n" iter cl
              (match absorbers with
              | [] -> ""
              | l ->
                  Printf.sprintf " (members absorbed by %s)"
                    (String.concat ", " (List.map string_of_int l)))
        (* Sharded runs suspend the per-shard journal, so the history
           above is empty; the merge-phase provenance still answers
           "why did my shard-local cluster disappear" — print the
           consolidations that formed any cluster this sequence ended
           up in. *)
        | "shard.consolidated"
          when List.mem
                 (Option.value ~default:(-1) (fint "into" e.j_fields))
                 result.assignments.(seq_id) ->
            incr printed;
            Printf.printf
              "  merge: shard-local cluster %d (shard %d) consolidated into cluster %d \
               (divergence %.3f)\n"
              cl
              (Option.value ~default:(-1) (fint "shard" e.j_fields))
              (Option.value ~default:(-1) (fint "into" e.j_fields))
              (Option.value ~default:Float.nan (ffloat "divergence" e.j_fields))
        | _ -> ())
      entries;
    if !printed = 0 then
      if shards > 1 then
        Printf.printf
          "  (no merge-phase events for this sequence; per-shard iteration journals are \
           suspended in sharded runs)\n"
      else Printf.printf "  (no membership changes — never joined a cluster)\n";
    (match result.assignments.(seq_id) with
    | [] -> Printf.printf "final: outlier (member of no cluster)\n"
    | cs ->
        Printf.printf "final: member of cluster%s %s\n"
          (if List.length cs > 1 then "s" else "")
          (String.concat ", " (List.map string_of_int cs)));
    (* --- per-position attribution --- *)
    let lbg = Seq_database.log_background db in
    let s = Seq_database.get db seq_id in
    let compiled target =
      match Array.find_opt (fun (id, _) -> id = target) result.models with
      | Some (_, pst) -> Psa.compile pst
      | None -> die "cluster %d is not among the final clusters" target
    in
    let target, psa =
      match cluster_opt with
      | Some c -> (c, compiled c)
      | None -> (
          match result.best.(seq_id) with
          | Some (c, _) when Array.exists (fun (id, _) -> id = c) result.models -> (c, compiled c)
          | _ -> (
              (* [best] is the last reclustering pass's winner, which the
                 final consolidation may have dismissed: take the final
                 model that scores the sequence highest (the first of
                 equal scores), keeping the automaton that scored it for
                 the attribution. *)
              let pick acc (id, pst) =
                let psa = Psa.compile pst in
                let v = Similarity.score_lane psa ~log_background:lbg s in
                match acc with Some (best, _, _) when best >= v -> acc | _ -> Some (v, id, psa)
              in
              match Array.fold_left pick None result.models with
              | Some (v, id, psa) when Float.is_finite v -> (id, psa)
              | _ ->
                  die
                    "sequence %d has no finite similarity to any final cluster; pass \
                     --cluster"
                    seq_id))
    in
    let a = Similarity.score_attributed psa ~log_background:lbg s in
    let r = a.attr_result in
    Printf.printf
      "\nsimilarity to cluster %d: log-sim %.4f (linear %.4g), maximizing segment [%d..%d] \
       of %d symbols\n"
      target r.log_sim
      (Similarity.linear_of_log r.log_sim)
      r.seg_lo r.seg_hi (Array.length s);
    let k = min top (Array.length s) in
    Printf.printf "top %d contributing positions (X = log P(sym|ctx) - log p(sym)):\n" k;
    let idx = Array.init (Array.length s) Fun.id in
    Array.sort
      (fun i j ->
        let c = compare a.attr_xs.(j) a.attr_xs.(i) in
        if c <> 0 then c else compare i j)
      idx;
    Array.iteri
      (fun rank i ->
        if rank < k then begin
          let d = a.attr_depths.(i) in
          let ctx =
            if d = 0 then "(empty)" else Alphabet.decode alphabet (Array.sub s (i - d) d)
          in
          Printf.printf "  pos %5d  sym %-3s X=%+.4f  ctx(%d)=%s%s\n" i
            (Alphabet.symbol alphabet s.(i))
            a.attr_xs.(i) d ctx
            (if i >= r.seg_lo && i <= r.seg_hi then "  [in segment]" else "")
        end)
      idx
  in
  let term =
    Term.(
      const run $ obs_term $ file_arg 0 $ seq_arg $ config_args $ shards_arg $ cluster_arg
      $ top_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain one sequence's clustering: its join/leave history (from a decision \
          journal) and the per-position log-odds contributions behind its similarity to a \
          cluster.")
    term

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let fuzz =
    Arg.(
      value & opt int 100
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Number of deterministic fuzz cases. Case $(i,i) is generated from seed \
             $(i,seed+i), so a failure at case $(i,i) replays with $(b,--fuzz 1 --seed) \
             $(i,seed+i).")
  in
  let file =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Optional sequence file: instead of fuzzing, run one audited clustering over it \
             (serial reclustering replay + invariants every iteration) and verify the final \
             result.")
  in
  let run _vcount fuzz_n seed shards file =
    match file with
    | Some f ->
        let alphabet, rows = with_file f Seq_io.read_labeled in
        let db, _ = Seq_io.to_database alphabet rows in
        let n = Seq_database.n_sequences db in
        (* Scale the statistical thresholds to the file like the docs
           recommend; the audit checks mechanics, not clustering quality. *)
        let config =
          { (Cluseq.scaled_config ~expected_cluster_size:(max 1 (n / 10)) ()) with seed }
        in
        Check.install_auditor ();
        (match Shard.run ~config ~shards db with
        | exception Check.Violation msgs ->
            List.iter (Printf.eprintf "violation: %s\n") msgs;
            exit 1
        | result -> (
            match Check.result_invariants ~n result with
            | [] ->
                Printf.printf
                  "ok: audited %srun over %s: %d clusters in %d iterations, every oracle \
                   and invariant holds\n"
                  (if shards > 1 then Printf.sprintf "%d-shard " shards else "")
                  f result.n_clusters result.iterations
            | msgs ->
                List.iter (Printf.eprintf "violation: %s\n") msgs;
                exit 1))
    | None -> (
        Printf.printf "fuzzing %d cases from seed %d\n%!" fuzz_n seed;
        let progress i =
          if (i + 1) mod 50 = 0 then Printf.printf "  %d/%d ok\n%!" (i + 1) fuzz_n
        in
        match Fuzz.run ~progress ~n:fuzz_n ~seed () with
        | Ok n -> Printf.printf "ok: %d fuzz cases, zero oracle mismatches\n" n
        | Error failure ->
            Format.eprintf "%a@." Fuzz.pp_failure failure;
            exit 1)
  in
  let term = Term.(const run $ obs_term $ fuzz $ seed_arg $ shards_arg $ file) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the correctness tooling: differential fuzzing of the whole pipeline, or an \
          audited clustering of a real file.")
    term

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let run _vcount file =
    let alphabet, rows = with_file file Seq_io.read_labeled in
    let db, labels = Seq_io.to_database alphabet rows in
    Printf.printf "sequences: %d\n" (Seq_database.n_sequences db);
    Printf.printf "alphabet:  %d symbols\n" (Alphabet.size alphabet);
    Printf.printf "avg length: %.1f\n" (Seq_database.avg_length db);
    Printf.printf "total symbols: %d\n" (Seq_database.total_symbols db);
    let distinct = List.sort_uniq compare (Array.to_list labels) in
    Printf.printf "distinct labels: %d\n" (List.length distinct)
  in
  let term = Term.(const run $ obs_term $ file_arg 0) in
  Cmd.v (Cmd.info "info" ~doc:"Print statistics of a sequence file.") term

let () =
  let doc = "CLUSEQ: probabilistic-suffix-tree sequence clustering (ICDE 2003)" in
  let info = Cmd.info "cluseq" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
          [
            generate_cmd;
            cluster_cmd;
            train_cmd;
            classify_cmd;
            evaluate_cmd;
            explain_cmd;
            check_cmd;
            info_cmd;
          ]))
