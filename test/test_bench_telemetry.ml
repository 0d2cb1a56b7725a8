(* Tests for the benchmark telemetry layer (lib/benchtel): the JSON
   codec, the BENCH report schema round-trip, capture from the live
   metrics registry, and the regression comparer. *)

let with_clean_obs f =
  Obs.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Trace.disable ();
      Obs.Recorder.disable ();
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let json_testable = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Bench_json.to_string j)) Bench_json.equal

let test_json_parse_basics () =
  let check input expected =
    match Bench_json.parse input with
    | Ok v -> Alcotest.check json_testable input expected v
    | Error msg -> Alcotest.failf "parse %S failed: %s" input msg
  in
  check "null" Bench_json.Null;
  check "true" (Bench_json.Bool true);
  check "-12.5e2" (Bench_json.Num (-1250.0));
  check "\"a\\nb\\u0041\"" (Bench_json.Str "a\nbA");
  check "[1, 2, []]" Bench_json.(Arr [ Num 1.0; Num 2.0; Arr [] ]);
  check "{\"a\": {\"b\": 1}, \"c\": []}"
    Bench_json.(Obj [ ("a", Obj [ ("b", Num 1.0) ]); ("c", Arr []) ])

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Bench_json.parse bad with
      | Ok _ -> Alcotest.failf "expected %S to fail" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "1 2"; "\"unterminated" ]

let test_json_roundtrip () =
  let v =
    Bench_json.(
      Obj
        [
          ("str", Str "quote \" backslash \\ newline \n tab \t");
          ("int", Num 42.0);
          ("neg", Num (-0.001));
          ("pi", Num 3.141592653589793);
          ("flag", Bool false);
          ("nothing", Null);
          ("arr", Arr [ Num 1.0; Str "x"; Obj [ ("k", Null) ] ]);
        ])
  in
  match Bench_json.parse (Bench_json.to_string v) with
  | Ok v' -> Alcotest.check json_testable "print |> parse is identity" v v'
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Report schema                                                       *)
(* ------------------------------------------------------------------ *)

let gc_delta ?(minor = 1e6) () =
  {
    Obs.Resource.minor_words = minor;
    promoted_words = 1e5;
    major_words = 2e5;
    minor_collections = 12;
    major_collections = 3;
    compactions = 0;
    heap_words = 4096;
    top_heap_words = 8192;
  }

let drift ?(churn = 0.12) () =
  {
    Bench_report.churn_rate = churn;
    cluster_age = 4.5;
    intercluster_kl = 1.8;
    member_score = 2.3;
  }

let experiment ?(id = "table2") ?(wall = 10.0) ?(cluseq_s = 8.0) ?drift:(dr = drift ())
    ?(quality = Some ("accuracy", 0.82)) () =
  {
    Bench_report.id;
    wall_s = wall;
    runs = 1;
    iterations = 7;
    cluseq_seconds = cluseq_s;
    phases =
      [
        ("generation", 0.5); ("reclustering", 6.0); ("consolidation", 0.6);
        ("threshold", 0.4); ("convergence", 0.5);
      ];
    sequences = 600;
    symbols = 120_000;
    gc = gc_delta ();
    peak_heap_words = 2_000_000;
    pst_nodes_built = 12_345;
    pst_est_words_built = 400_000;
    census =
      {
        Bench_report.pairs_scored = 10_000;
        pairs_joined = 800;
        scored_joins = 700;
        dirty_rescores = 150;
        assignments_changed = 420;
        pairs_reused = 2_500;
      };
    drift = dr;
    quality;
  }

let report ?(scale = 0.25) ?(domains = 1) ?(shards = 1) ?experiments
    ?(micro = [ ("cluseq/pst-insert", 5200.0) ]) () =
  {
    Bench_report.env =
      {
        label = "test";
        git_rev = "deadbeef";
        ocaml_version = Sys.ocaml_version;
        scale;
        hostname = "testhost";
        word_size = Sys.word_size;
        domains;
        shards;
      };
    experiments =
      (match experiments with
      | Some es -> es
      | None -> [ experiment (); experiment ~id:"fig4" ~quality:(Some ("macro_recall", 0.9)) () ]);
    micro;
  }

let test_report_roundtrip () =
  let r = report () in
  let json_text = Bench_json.to_string (Bench_report.to_json r) in
  match Bench_json.parse json_text with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok json -> (
      match Bench_report.of_json json with
      | Error msg -> Alcotest.failf "of_json failed: %s" msg
      | Ok r' ->
          Alcotest.(check bool) "env round-trips" true (r.env = r'.env);
          Alcotest.(check int) "experiment count" (List.length r.experiments)
            (List.length r'.experiments);
          List.iter2
            (fun (a : Bench_report.experiment) (b : Bench_report.experiment) ->
              Alcotest.(check bool) (a.id ^ " round-trips") true (a = b))
            r.experiments r'.experiments;
          Alcotest.(check bool) "micro round-trips" true (r.micro = r'.micro))

let test_report_file_io () =
  let r = report () in
  let path = Filename.temp_file "bench_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_report.write path r;
      match Bench_report.read path with
      | Ok r' -> Alcotest.(check bool) "write |> read is identity" true (r = r')
      | Error msg -> Alcotest.failf "read failed: %s" msg)

let test_report_rejects_foreign () =
  (match Bench_report.of_json (Bench_json.Obj [ ("schema", Bench_json.Str "other") ]) with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error _ -> ());
  let bad_version =
    Bench_json.Obj
      [ ("schema", Bench_json.Str Bench_report.schema_name); ("version", Bench_json.Num 99.0) ]
  in
  match Bench_report.of_json bad_version with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Capture from the live registry                                      *)
(* ------------------------------------------------------------------ *)

let tiny_db () =
  let w =
    Workload.generate
      {
        Workload.default_params with
        n_sequences = 60;
        avg_length = 120;
        n_clusters = 2;
        contexts_per_cluster = 120;
        concentration = 0.15;
        seed = 3;
      }
  in
  w.db

let tiny_config =
  {
    Cluseq.default_config with
    k_init = 2;
    significance = 8;
    min_residual = Some 8;
    t_init = 1.2;
    max_iterations = 10;
    seed = 1;
  }

let capture_now ~id =
  Bench_report.capture ~id ~wall_s:1.0 ~gc:(gc_delta ()) ~peak_heap_words:1_000
    ~quality:None

let test_capture_from_run () =
  with_clean_obs @@ fun () ->
  let db = tiny_db () in
  let result = Cluseq.run ~config:tiny_config db in
  let e = capture_now ~id:"live" in
  Alcotest.(check int) "one run captured" 1 e.Bench_report.runs;
  Alcotest.(check int) "iterations captured" result.Cluseq.iterations e.iterations;
  Alcotest.(check int) "sequences captured" 60 e.sequences;
  Alcotest.(check bool) "symbols captured" true (e.symbols > 0);
  Alcotest.(check bool) "run seconds captured" true (e.cluseq_seconds > 0.0);
  Alcotest.(check int) "five phases" 5 (List.length e.phases);
  Alcotest.(check bool) "phase time recorded" true
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 e.phases > 0.0);
  Alcotest.(check bool) "pst nodes accounted" true (e.pst_nodes_built > 0);
  Alcotest.(check bool) "pst words accounted" true (e.pst_est_words_built > 0);
  (* The per-phase sum can't exceed the whole run's wall time. *)
  Alcotest.(check bool) "phases within run wall time" true
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 e.phases <= e.cluseq_seconds +. 1e-9)

let test_capture_no_bleed_through () =
  with_clean_obs @@ fun () ->
  let db = tiny_db () in
  ignore (Cluseq.run ~config:tiny_config db);
  let before = capture_now ~id:"first" in
  Alcotest.(check bool) "first experiment saw work" true (before.Bench_report.sequences > 0);
  (* Between experiments the driver resets the registry: nothing of the
     first experiment may leak into the second capture. *)
  Obs.reset ();
  let after = capture_now ~id:"second" in
  Alcotest.(check int) "runs reset" 0 after.Bench_report.runs;
  Alcotest.(check int) "sequences reset" 0 after.sequences;
  Alcotest.(check int) "pst nodes reset" 0 after.pst_nodes_built;
  Alcotest.(check (float 0.0)) "run seconds reset" 0.0 after.cluseq_seconds;
  Alcotest.(check (float 0.0)) "phases reset" 0.0
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 after.phases)

let tree_spans name =
  let rec go sp =
    (if Obs.Trace.name sp = name then [ sp ] else [])
    @ List.concat_map go (Obs.Trace.children sp)
  in
  List.concat_map go (Obs.Trace.roots ())

(* Each timed region is one pair of clock reads feeding both its span and
   its histogram: per phase, one observation per iteration, summing to
   the phase spans' durations. *)
let test_spans_match_histograms () =
  with_clean_obs @@ fun () ->
  Obs.Trace.enable ();
  let result = Cluseq.run ~config:tiny_config (tiny_db ()) in
  let agree ~span ~hist ~count =
    let spans = tree_spans span and h = Obs.Metrics.histogram hist in
    Alcotest.(check int) (span ^ " spans") count (List.length spans);
    Alcotest.(check int) (hist ^ " observations") count (Obs.Metrics.histogram_count h);
    let span_ns =
      List.fold_left (fun acc sp -> Int64.add acc (Obs.Trace.duration_ns sp)) 0L spans
    in
    Alcotest.(check (float (1e-9 *. float_of_int count)))
      (hist ^ " sums the span durations")
      (Int64.to_float span_ns /. 1e9)
      (Obs.Metrics.histogram_sum h)
  in
  List.iter
    (fun p -> agree ~span:p ~hist:("cluseq.iter." ^ p ^ "_seconds") ~count:result.iterations)
    Bench_report.phase_names;
  agree ~span:"cluseq.drift" ~hist:"cluseq.drift_seconds" ~count:result.iterations;
  agree ~span:"cluseq.run" ~hist:"cluseq.run_seconds" ~count:1

(* The drift panel runs after the five phases, under its own span: one
   observation per iteration with metrics on, and with every sink off
   neither an observation nor a panel. *)
let test_drift_timed_once_per_iteration () =
  with_clean_obs @@ fun () ->
  let h = Obs.Metrics.histogram "cluseq.drift_seconds" in
  let drifts (r : Cluseq.result) =
    List.length (List.filter (fun (s : Cluseq.iteration_stats) -> s.drift <> None) r.history)
  in
  let on = Cluseq.run ~config:tiny_config (tiny_db ()) in
  Alcotest.(check bool) "the run iterates" true (on.iterations > 1);
  Alcotest.(check int) "one observation per iteration" on.iterations
    (Obs.Metrics.histogram_count h);
  Alcotest.(check int) "a panel per iteration" on.iterations (drifts on);
  Obs.Metrics.disable ();
  Obs.reset ();
  let off = Cluseq.run ~config:tiny_config (tiny_db ()) in
  Alcotest.(check int) "same iterations" on.iterations off.iterations;
  Alcotest.(check int) "no observation with every sink off" 0 (Obs.Metrics.histogram_count h);
  Alcotest.(check int) "no panel with every sink off" 0 (drifts off)

(* A span opened on a worker domain lands on that domain's ring: with
   two shards on two domains, every iteration shows up once, in the tree
   for the shard the main domain ran and on a worker's ring otherwise. *)
let test_worker_spans_cover_every_iteration () =
  with_clean_obs @@ fun () ->
  Obs.Trace.enable ();
  Obs.Recorder.enable ();
  Gen_common.with_domains 2 (fun () ->
      ignore (Shard.run ~config:tiny_config ~shards:2 (tiny_db ())));
  let ring =
    List.filter
      (fun (e : Obs.Recorder.event) -> e.ev_name = "iteration" && e.kind = Obs.Recorder.Begin)
      (Obs.Recorder.events ())
  in
  Alcotest.(check int) "tree + ring iterations = cluseq.iterations"
    (Obs.Metrics.counter_value (Obs.Metrics.counter "cluseq.iterations"))
    (List.length (tree_spans "iteration") + List.length ring)

(* ------------------------------------------------------------------ *)
(* Comparer                                                            *)
(* ------------------------------------------------------------------ *)

let compare_ok ?threshold_pct ?quality_threshold_pct base candidate =
  match Bench_compare.compare_reports ?threshold_pct ?quality_threshold_pct ~base ~candidate () with
  | Ok verdicts -> verdicts
  | Error msg -> Alcotest.failf "unexpected compare error: %s" msg

let test_compare_identical () =
  let r = report () in
  let verdicts = compare_ok r r in
  Alcotest.(check bool) "no regression on identical runs" false
    (Bench_compare.has_regression verdicts);
  Alcotest.(check bool) "verdicts produced" true (List.length verdicts > 0);
  Alcotest.(check bool) "nothing improved either" true
    (List.for_all (fun v -> v.Bench_compare.status <> `Improvement) verdicts)

let test_compare_flags_slowdown () =
  let base = report () in
  let slowed =
    {
      base with
      experiments =
        List.map
          (fun (e : Bench_report.experiment) ->
            if e.id = "table2" then
              {
                e with
                wall_s = e.wall_s *. 2.0;
                cluseq_seconds = e.cluseq_seconds *. 2.0;
                phases = List.map (fun (p, s) -> (p, s *. 2.0)) e.phases;
              }
            else e)
          base.experiments;
    }
  in
  let verdicts = compare_ok ~threshold_pct:25.0 base slowed in
  Alcotest.(check bool) "2x slowdown flagged" true (Bench_compare.has_regression verdicts);
  let regressed v = v.Bench_compare.status = `Regression in
  Alcotest.(check bool) "wall time regressed" true
    (List.exists (fun v -> regressed v && v.Bench_compare.metric = "wall_s" && v.experiment = "table2") verdicts);
  Alcotest.(check bool) "reclustering phase regressed" true
    (List.exists (fun v -> regressed v && v.Bench_compare.metric = "phase.reclustering") verdicts);
  Alcotest.(check bool) "throughput regressed" true
    (List.exists
       (fun v -> regressed v && v.Bench_compare.metric = "throughput.sequences_per_s")
       verdicts);
  Alcotest.(check bool) "untouched experiment stays clean" true
    (List.for_all (fun v -> (not (regressed v)) || v.Bench_compare.experiment = "table2") verdicts);
  (* and the render mentions it *)
  let rendered = Bench_compare.render verdicts in
  Alcotest.(check bool) "render names the regression" true
    (let contains ~needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     contains ~needle:"REGRESSION" rendered && contains ~needle:"wall_s" rendered)

let test_compare_flags_quality_drop () =
  let base = report () in
  let worse =
    {
      base with
      experiments =
        List.map
          (fun (e : Bench_report.experiment) ->
            if e.id = "table2" then { e with quality = Some ("accuracy", 0.70) } else e)
          base.experiments;
    }
  in
  let verdicts = compare_ok base worse in
  Alcotest.(check bool) "quality drop is a regression" true
    (List.exists
       (fun v ->
         v.Bench_compare.status = `Regression && v.Bench_compare.metric = "quality.accuracy")
       verdicts)

let test_compare_flags_drift_shift () =
  let base = report () in
  let churned =
    {
      base with
      experiments =
        List.map
          (fun (e : Bench_report.experiment) ->
            if e.id = "table2" then
              {
                e with
                drift =
                  {
                    e.drift with
                    churn_rate = e.drift.churn_rate *. 2.0;
                    member_score = e.drift.member_score *. 0.5;
                  };
              }
            else e)
          base.experiments;
    }
  in
  let verdicts = compare_ok base churned in
  let regressed m v =
    v.Bench_compare.status = `Regression && v.Bench_compare.metric = m
  in
  Alcotest.(check bool) "doubled churn is a regression" true
    (List.exists (regressed "drift.churn_rate") verdicts);
  Alcotest.(check bool) "halved member score is a regression" true
    (List.exists (regressed "drift.member_score") verdicts);
  (* and the good directions read as improvements, not regressions *)
  let calmer = compare_ok churned base in
  Alcotest.(check bool) "reverse comparison has no drift regressions" true
    (List.for_all
       (fun v ->
         v.Bench_compare.status <> `Regression
         || not (String.length v.Bench_compare.metric >= 6
                 && String.sub v.Bench_compare.metric 0 6 = "drift."))
       calmer)

let test_compare_skips_empty_drift () =
  (* A base recorded before the drift gauges existed reads as all-zero:
     no drift verdicts at all, so old baselines keep comparing. *)
  let empty =
    {
      Bench_report.churn_rate = 0.0;
      cluster_age = 0.0;
      intercluster_kl = 0.0;
      member_score = 0.0;
    }
  in
  Alcotest.(check bool) "all-zero drift is empty" true (Bench_report.drift_is_empty empty);
  Alcotest.(check bool) "measured drift is not empty" false
    (Bench_report.drift_is_empty (drift ()));
  let base = report ~experiments:[ experiment ~drift:empty () ] () in
  let candidate = report ~experiments:[ experiment () ] () in
  let verdicts = compare_ok base candidate in
  Alcotest.(check bool) "no drift verdicts against a pre-drift base" true
    (List.for_all
       (fun v ->
         not (String.length v.Bench_compare.metric >= 6
              && String.sub v.Bench_compare.metric 0 6 = "drift."))
       verdicts)

(* A base recorded before the census counted its scored joins reads 0
   there, and its ratio divided by another base: the ratio gets no
   verdict, and the other census counts still do. *)
let test_compare_skips_old_census_ratio () =
  let e = experiment () in
  let old = { e with census = { e.census with scored_joins = 0 } } in
  let base = report ~experiments:[ old ] () in
  let candidate = report ~experiments:[ experiment () ] () in
  let status metric =
    (List.find (fun v -> v.Bench_compare.metric = metric) (compare_ok base candidate)).status
  in
  Alcotest.(check bool) "ratio skipped" true (status "census.wasted_pair_ratio" = `Skipped);
  Alcotest.(check bool) "counts judged" true (status "census.pairs_scored" = `Ok);
  Alcotest.(check (float 1e-12)) "ratio over scored joins" 0.93
    (Bench_report.wasted_pair_ratio e.census)

let test_compare_noise_floor () =
  (* Tiny timings double but stay under the 50 ms floor: skipped, not
     flagged. *)
  let base = report ~experiments:[ experiment ~wall:0.01 ~cluseq_s:0.02 () ] () in
  let base =
    {
      base with
      experiments =
        List.map
          (fun (e : Bench_report.experiment) ->
            { e with phases = List.map (fun (p, _) -> (p, 0.004)) e.phases })
          base.experiments;
    }
  in
  let doubled =
    {
      base with
      experiments =
        List.map
          (fun (e : Bench_report.experiment) ->
            {
              e with
              wall_s = e.wall_s *. 2.0;
              cluseq_seconds = e.cluseq_seconds *. 2.0;
              phases = List.map (fun (p, s) -> (p, s *. 2.0)) e.phases;
            })
          base.experiments;
    }
  in
  let verdicts = compare_ok base doubled in
  Alcotest.(check bool) "sub-floor slowdown not flagged" false
    (Bench_compare.has_regression verdicts)

let test_compare_tolerates_experiment_sets () =
  let base = report () in
  let subset =
    { base with experiments = [ experiment () ]; micro = [] }
  in
  let verdicts = compare_ok base subset in
  Alcotest.(check bool) "smaller candidate run passes" false
    (Bench_compare.has_regression verdicts);
  Alcotest.(check bool) "missing experiment noted" true
    (List.exists (fun v -> v.Bench_compare.status = `Removed) verdicts);
  let verdicts' = compare_ok subset base in
  Alcotest.(check bool) "larger candidate run passes" false
    (Bench_compare.has_regression verdicts');
  Alcotest.(check bool) "new experiment noted" true
    (List.exists (fun v -> v.Bench_compare.status = `Added) verdicts')

let test_compare_rejects_scale_mismatch () =
  match
    Bench_compare.compare_reports ~base:(report ~scale:0.25 ())
      ~candidate:(report ~scale:1.0 ()) ()
  with
  | Ok _ -> Alcotest.fail "scale mismatch accepted"
  | Error _ -> ()

let test_compare_rejects_domains_mismatch () =
  (match
     Bench_compare.compare_reports ~base:(report ~domains:1 ())
       ~candidate:(report ~domains:4 ()) ()
   with
  | Ok _ -> Alcotest.fail "domains mismatch accepted"
  | Error msg ->
      Alcotest.(check bool) "error names --domains" true
        (let contains ~needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         contains ~needle:"--domains" msg));
  (* Files written before the field existed read back as 0: wildcard. *)
  match
    Bench_compare.compare_reports ~base:(report ~domains:0 ())
      ~candidate:(report ~domains:4 ()) ()
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "legacy domains=0 should compare: %s" msg

let test_compare_rejects_shards_mismatch () =
  (match
     Bench_compare.compare_reports ~base:(report ~shards:1 ())
       ~candidate:(report ~shards:4 ()) ()
   with
  | Ok _ -> Alcotest.fail "shards mismatch accepted"
  | Error msg ->
      Alcotest.(check bool) "error names --shards" true
        (let contains ~needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         contains ~needle:"--shards" msg));
  (* Files written before the field existed read back as 0: wildcard. *)
  match
    Bench_compare.compare_reports ~base:(report ~shards:0 ())
      ~candidate:(report ~shards:4 ()) ()
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "legacy shards=0 should compare: %s" msg

let test_compare_micro_regression () =
  let base = report ~micro:[ ("cluseq/similarity-dp", 1000.0) ] () in
  let slowed = { base with micro = [ ("cluseq/similarity-dp", 2100.0) ] } in
  let verdicts = compare_ok base slowed in
  Alcotest.(check bool) "micro slowdown flagged" true
    (List.exists
       (fun v ->
         v.Bench_compare.status = `Regression && v.Bench_compare.experiment = "micro"
         && v.Bench_compare.metric = "cluseq/similarity-dp")
       verdicts)

let () =
  Alcotest.run "bench_telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round trip" `Quick test_report_roundtrip;
          Alcotest.test_case "file round trip" `Quick test_report_file_io;
          Alcotest.test_case "rejects foreign documents" `Quick test_report_rejects_foreign;
        ] );
      ( "capture",
        [
          Alcotest.test_case "captures a live run" `Quick test_capture_from_run;
          Alcotest.test_case "reset stops bleed-through" `Quick test_capture_no_bleed_through;
          Alcotest.test_case "drift timed once per iteration" `Quick
            test_drift_timed_once_per_iteration;
          Alcotest.test_case "phase spans and histograms agree" `Quick
            test_spans_match_histograms;
          Alcotest.test_case "worker spans cover every iteration" `Quick
            test_worker_spans_cover_every_iteration;
        ] );
      ( "compare",
        [
          Alcotest.test_case "identical pair passes" `Quick test_compare_identical;
          Alcotest.test_case "2x slowdown flagged" `Quick test_compare_flags_slowdown;
          Alcotest.test_case "quality drop flagged" `Quick test_compare_flags_quality_drop;
          Alcotest.test_case "drift shift flagged" `Quick test_compare_flags_drift_shift;
          Alcotest.test_case "empty drift base skipped" `Quick test_compare_skips_empty_drift;
          Alcotest.test_case "census ratio of an old base skipped" `Quick
            test_compare_skips_old_census_ratio;
          Alcotest.test_case "noise floor respected" `Quick test_compare_noise_floor;
          Alcotest.test_case "added/removed experiments tolerated" `Quick
            test_compare_tolerates_experiment_sets;
          Alcotest.test_case "scale mismatch rejected" `Quick test_compare_rejects_scale_mismatch;
          Alcotest.test_case "domains mismatch rejected" `Quick
            test_compare_rejects_domains_mismatch;
          Alcotest.test_case "shards mismatch rejected" `Quick
            test_compare_rejects_shards_mismatch;
          Alcotest.test_case "micro regression flagged" `Quick test_compare_micro_regression;
        ] );
    ]
