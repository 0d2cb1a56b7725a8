(* Integration tests for the cross-domain flight recorder (DESIGN.md
   §10): the Chrome-trace exporter must produce JSON that parses back
   through Bench_json with the structure Perfetto expects, the
   reclustering scan census must be bit-identical for every domain
   count, and the whole result must not depend on whether
   instrumentation is enabled. *)

let with_domains = Gen_common.with_domains

let with_flight_recorder f =
  Obs.reset ();
  Obs.Metrics.enable ();
  Obs.Trace.enable ();
  Obs.Recorder.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Trace.disable ();
      Obs.Recorder.disable ();
      Obs.reset ())
    f

(* --- Chrome-trace export ------------------------------------------- *)

let field name = function Bench_json.Obj fields -> List.assoc_opt name fields | _ -> None

let str_field name ev =
  match field name ev with Some (Bench_json.Str s) -> Some s | _ -> None

let num_field name ev =
  match field name ev with Some (Bench_json.Num n) -> Some n | _ -> None

(* Record activity on several domains deterministically: one explicitly
   spawned domain records a span, which lands on its own ring; the main
   domain records a tree span enclosing a small pool job (par.job ring
   events). *)
let record_workload () =
  Domain.join (Domain.spawn (fun () -> Obs.Trace.with_span "test.fr_worker" (fun () -> ())));
  Obs.Trace.with_span "fr_root" (fun () ->
      let pool = Par.create ~domains:2 () in
      Fun.protect
        ~finally:(fun () -> Par.shutdown pool)
        (fun () -> ignore (Par.map_chunks pool ~n:64 (fun i -> i + 1))))

let test_trace_parses_back () =
  with_flight_recorder @@ fun () ->
  record_workload ();
  let text = Obs.Export.to_chrome_trace () in
  match Bench_json.parse text with
  | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg
  | Ok json ->
      let events =
        match field "traceEvents" json with
        | Some (Bench_json.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "trace has events" true (events <> []);
      List.iter
        (fun ev ->
          Alcotest.(check bool) "every event has a name" true (str_field "name" ev <> None);
          Alcotest.(check bool) "every event has a phase" true (str_field "ph" ev <> None);
          Alcotest.(check bool) "every event has a tid" true (num_field "tid" ev <> None))
        events;
      let real =
        List.filter (fun ev -> str_field "ph" ev <> Some "M") events
      in
      List.iter
        (fun ev ->
          (match num_field "ts" ev with
          | Some ts -> Alcotest.(check bool) "timestamps rebased to >= 0" true (ts >= 0.0)
          | None -> Alcotest.fail "timeline event without ts");
          if str_field "ph" ev = Some "i" then
            Alcotest.(check (option string)) "instants carry thread scope" (Some "t")
              (str_field "s" ev))
        real;
      let count ph = List.length (List.filter (fun ev -> str_field "ph" ev = Some ph) real) in
      Alcotest.(check int) "begin/end events balanced" (count "B") (count "E");
      Alcotest.(check bool) "span exported as a complete event" true
        (List.exists
           (fun ev -> str_field "ph" ev = Some "X" && str_field "name" ev = Some "fr_root")
           real);
      let tids =
        List.sort_uniq compare (List.filter_map (fun ev -> num_field "tid" ev) real)
      in
      Alcotest.(check bool) "events from at least two domains" true (List.length tids >= 2);
      List.iter
        (fun tid ->
          Alcotest.(check bool)
            (Printf.sprintf "thread_name metadata for tid %g" tid)
            true
            (List.exists
               (fun ev ->
                 str_field "ph" ev = Some "M"
                 && str_field "name" ev = Some "thread_name"
                 && num_field "tid" ev = Some tid)
               events))
        tids;
      match field "otherData" json with
      | Some other ->
          Alcotest.(check bool) "drop counters exported" true
            (num_field "ring_events_dropped" other <> None)
      | None -> Alcotest.fail "no otherData footer"

(* --- census determinism -------------------------------------------- *)

(* One run of the small fixture, with metrics, tracing and the recorder
   all on or all off. *)
let run_small ~domains ~instrumented =
  let db, _ = Lazy.force Gen_common.small_db_and_truth in
  let run () = Cluseq.run ~config:Gen_common.small_config db in
  with_domains domains (fun () -> if instrumented then with_flight_recorder run else run ())

let census (r : Cluseq.result) =
  List.map (fun (h : Cluseq.iteration_stats) -> h.census) r.history

let test_census_identical_across_domains () =
  let base = run_small ~domains:1 ~instrumented:false in
  Alcotest.(check bool) "run produced iterations" true (census base <> []);
  Alcotest.(check bool) "census identical at 1 vs 4 domains" true
    (census base = census (run_small ~domains:4 ~instrumented:false));
  (* Instrumentation observes, it never steers: the whole result is the
     same with every sink on. The drift panel is the one part computed
     only for a listener, and the models are compared structurally (a
     PST's parent links make it cyclic). *)
  let on = run_small ~domains:4 ~instrumented:true in
  Alcotest.(check bool) "drift only with a listener" true
    (List.for_all (fun (h : Cluseq.iteration_stats) -> h.drift = None) base.history
    && List.for_all (fun (h : Cluseq.iteration_stats) -> h.drift <> None) on.history);
  let comparable (r : Cluseq.result) =
    {
      r with
      history =
        List.map (fun (h : Cluseq.iteration_stats) -> { h with drift = None }) r.history;
      models = [||];
    }
  in
  Alcotest.(check bool) "result independent of instrumentation" true
    (comparable base = comparable on);
  Alcotest.(check bool) "models independent of instrumentation" true
    (Array.for_all2
       (fun (id, m) (id', m') -> id = id' && Pst.equal_structure m m')
       base.models on.models)

(* Joins are counted over every pair, evaluated or reused; the joins a
   fresh evaluation decided, over the evaluated pairs alone, so the
   wasted-pair ratio divides counts of one set of pairs. *)
let check_census (c : Cluseq.scan_census) =
  Alcotest.(check bool) "joins within scored and reused pairs" true
    (c.pairs_joined >= 0 && c.pairs_joined <= c.pairs_scored + c.pairs_reused);
  Alcotest.(check bool) "scored joins within scored pairs and joins" true
    (c.scored_joins >= 0 && c.scored_joins <= c.pairs_scored
    && c.scored_joins <= c.pairs_joined);
  Alcotest.(check bool) "rescores within scored pairs" true
    (c.dirty_rescores >= 0 && c.dirty_rescores <= c.pairs_scored);
  let w = Cluseq.wasted_pair_ratio c in
  Alcotest.(check bool) "wasted ratio in [0, 1]" true (w >= 0.0 && w <= 1.0)

let test_census_internal_consistency () =
  List.iter check_census (census (run_small ~domains:2 ~instrumented:false))

(* A pass that reuses a cached column holding joins counts them in
   [pairs_joined] but not in [pairs_scored]. Without consolidation the
   fixture keeps its early clusters clean for many passes, so some
   pass's joins outnumber its scored pairs: the census must still hold
   together, and its ratio must leave those joins out (counted against
   [pairs_scored] it would be negative). *)
let test_census_reused_joins () =
  let db, _ = Lazy.force Gen_common.small_db_and_truth in
  let r = Cluseq.run ~config:{ Gen_common.small_config with consolidate = false } db in
  Alcotest.(check bool) "a pass joins more pairs than it scores" true
    (List.exists
       (fun (c : Cluseq.scan_census) -> c.pairs_reused > 0 && c.pairs_joined > c.pairs_scored)
       (census r));
  List.iter check_census (census r)

let () =
  Alcotest.run "flight_recorder"
    [
      ( "chrome-trace",
        [ Alcotest.test_case "export parses back" `Quick test_trace_parses_back ] );
      ( "census",
        [
          Alcotest.test_case "identical across domain counts" `Quick
            test_census_identical_across_domains;
          Alcotest.test_case "internally consistent" `Quick test_census_internal_consistency;
          Alcotest.test_case "reused joins left out of the ratio" `Quick
            test_census_reused_joins;
        ] );
    ]
