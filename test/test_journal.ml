(* The decision-provenance journal (Obs.Journal): write/read round
   trips, the zero-cost-when-disabled contract, and — the property the
   whole feature hangs on — journals of the same run being identical
   at any domain count modulo timestamps. All journal emissions come
   from the pipeline's serial sections, so nothing about domain
   scheduling may leak into the record stream. *)

let with_domains = Gen_common.with_domains

let with_temp_journal f =
  let path = Filename.temp_file "cluseq-journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.close ();
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_ok path =
  match Obs.Journal.read_file path with
  | Ok entries -> entries
  | Error msg -> Alcotest.failf "journal unreadable: %s" msg

(* --- round trip ----------------------------------------------------- *)

let test_write_read_roundtrip () =
  with_temp_journal @@ fun path ->
  Obs.Journal.open_file path;
  Alcotest.(check bool) "enabled after open" true (Obs.Journal.is_enabled ());
  Alcotest.(check (option string)) "current path" (Some path) (Obs.Journal.current_path ());
  Obs.Journal.emit "test.first" (fun () ->
      [ ("answer", Bench_json.Num 42.0); ("label", Bench_json.Str "x") ]);
  Obs.Journal.emit "test.second" (fun () -> []);
  (* An event field named like an envelope component of another event
     must survive: the envelope uses "rec"/"ts_ns"/"event", not "seq". *)
  Obs.Journal.emit "test.seqish" (fun () -> [ ("seq", Bench_json.Num 7.0) ]);
  Obs.Journal.close ();
  Alcotest.(check bool) "disabled after close" false (Obs.Journal.is_enabled ());
  let entries = read_ok path in
  Alcotest.(check int) "three records" 3 (List.length entries);
  List.iteri
    (fun i (e : Obs.Journal.entry) ->
      Alcotest.(check int) "ordinals are sequential" i e.j_seq;
      Alcotest.(check bool) "timestamp positive" true (Int64.compare e.j_ts_ns 0L > 0))
    entries;
  (match entries with
  | [ a; b; c ] ->
      Alcotest.(check string) "first event name" "test.first" a.j_event;
      Alcotest.(check bool) "first fields preserved" true
        (List.assoc_opt "answer" a.j_fields = Some (Bench_json.Num 42.0)
        && List.assoc_opt "label" a.j_fields = Some (Bench_json.Str "x"));
      Alcotest.(check bool) "envelope keys stripped from fields" true
        (List.assoc_opt "event" a.j_fields = None
        && List.assoc_opt "rec" a.j_fields = None
        && List.assoc_opt "ts_ns" a.j_fields = None);
      Alcotest.(check bool) "empty field list allowed" true (b.j_fields = []);
      Alcotest.(check bool) "a field named seq survives" true
        (List.assoc_opt "seq" c.j_fields = Some (Bench_json.Num 7.0));
      Alcotest.(check bool) "timestamps monotone" true
        (Int64.compare a.j_ts_ns b.j_ts_ns <= 0 && Int64.compare b.j_ts_ns c.j_ts_ns <= 0)
  | _ -> Alcotest.fail "expected exactly three entries");
  (* Closing again is a no-op, and a second journal starts fresh
     ordinals. *)
  Obs.Journal.close ();
  Obs.Journal.open_file path;
  Obs.Journal.emit "test.reopen" (fun () -> []);
  Obs.Journal.close ();
  match read_ok path with
  | [ e ] ->
      Alcotest.(check string) "reopen truncates" "test.reopen" e.j_event;
      Alcotest.(check int) "ordinals restart per file" 0 e.j_seq
  | es -> Alcotest.failf "expected one entry after reopen, got %d" (List.length es)

let test_disabled_is_inert () =
  Obs.Journal.close ();
  let before = Obs.Journal.events_written () in
  let ran = ref false in
  Obs.Journal.emit "test.ignored" (fun () ->
      ran := true;
      []);
  Alcotest.(check bool) "emit on a closed journal is a no-op" false !ran;
  Alcotest.(check int) "nothing written" before (Obs.Journal.events_written ());
  Alcotest.(check bool) "not enabled" false (Obs.Journal.is_enabled ());
  Alcotest.(check (option string)) "no path" None (Obs.Journal.current_path ());
  (* flush/close without an open journal must not raise *)
  Obs.Journal.flush ();
  Obs.Journal.close ()

let test_read_reports_bad_line () =
  with_temp_journal @@ fun path ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"rec\":0,\"ts_ns\":1,\"event\":\"ok\"}\n";
      output_string oc "\n";
      output_string oc "not json at all\n");
  match Obs.Journal.read_file path with
  | Ok _ -> Alcotest.fail "corrupt journal accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the offending line" true
        (let contains ~needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         contains ~needle:"line 3" msg)

(* --- determinism across domain counts ------------------------------- *)

(* One full clustering run's journal, as entries with the timestamp
   zeroed: everything that must not depend on scheduling. *)
let journal_of ~domains run =
  let db, _ = Lazy.force Gen_common.small_db_and_truth in
  with_domains domains (fun () ->
      Obs.reset ();
      with_temp_journal (fun path ->
          Obs.Journal.open_file path;
          ignore (run db);
          Obs.Journal.close ();
          List.map
            (fun (e : Obs.Journal.entry) -> { e with j_ts_ns = 0L })
            (read_ok path)))

let journal_of_run ~domains =
  journal_of ~domains (fun db -> Cluseq.run ~config:Gen_common.small_config db)

(* The journal bytes, line by line with timestamps blanked, of a run
   under [Gen_common.small_pruned_config], plus the PST nodes pruning
   removed during it. *)
let pruned_journal_lines ~domains =
  let db, _ = Lazy.force Gen_common.small_db_and_truth in
  with_domains domains (fun () ->
      Obs.reset ();
      with_temp_journal (fun path ->
          Obs.Journal.open_file path;
          let _, pruned =
            Gen_common.counting_prunes (fun () ->
                Cluseq.run ~config:Gen_common.small_pruned_config db)
          in
          Obs.Journal.close ();
          let text = In_channel.with_open_text path In_channel.input_all in
          (List.map Gen_common.blank_ts (String.split_on_char '\n' text), pruned)))

let test_journal_identical_across_domains () =
  let base = journal_of_run ~domains:1 in
  Alcotest.(check bool) "run journaled events" true (base <> []);
  Alcotest.(check bool) "lifecycle events present" true
    (List.exists (fun (e : Obs.Journal.entry) -> e.j_event = "run.start") base
    && List.exists (fun (e : Obs.Journal.entry) -> e.j_event = "seq.joined") base
    && List.exists (fun (e : Obs.Journal.entry) -> e.j_event = "iteration.drift") base
    && List.exists (fun (e : Obs.Journal.entry) -> e.j_event = "run.end") base);
  let par = journal_of_run ~domains:4 in
  Alcotest.(check int) "same record count at 1 vs 4 domains" (List.length base)
    (List.length par);
  List.iter2
    (fun (a : Obs.Journal.entry) (b : Obs.Journal.entry) ->
      if a <> b then
        Alcotest.failf "journal diverges at record %d: %s vs %s" a.j_seq a.j_event b.j_event)
    base par;
  (* Pruning inside absorbs on the per-cluster apply tasks: the journal
     bytes must still not depend on the domain count. *)
  let base, base_pruned = pruned_journal_lines ~domains:1 in
  Alcotest.(check bool) "pruning ran" true (base_pruned > 0);
  List.iter
    (fun domains ->
      let lines, pruned = pruned_journal_lines ~domains in
      Alcotest.(check int)
        (Printf.sprintf "pruned run: nodes pruned at 1 vs %d domains" domains)
        base_pruned pruned;
      Alcotest.(check int)
        (Printf.sprintf "pruned run: line count at 1 vs %d domains" domains)
        (List.length base) (List.length lines);
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            Alcotest.failf "pruned run journal at %d domains diverges at line %d:\n%s\n%s"
              domains (i + 1) a b)
        (List.combine base lines))
    [ 2; 4 ]

(* --- sharded runs ---------------------------------------------------- *)

let journal_of_sharded ~domains ~shards =
  journal_of ~domains (fun db -> Shard.run ~config:Gen_common.small_config ~shards db)

let test_shards_one_journal_matches_plain () =
  (* --shards 1 is the plain path: the journal must be byte-identical
     (the entries carry everything but the timestamps). *)
  let plain = journal_of_run ~domains:1 in
  let sharded = journal_of_sharded ~domains:1 ~shards:1 in
  Alcotest.(check int) "same record count" (List.length plain) (List.length sharded);
  List.iter2
    (fun (a : Obs.Journal.entry) (b : Obs.Journal.entry) ->
      if a <> b then
        Alcotest.failf "shards=1 journal diverges at record %d: %s vs %s" a.j_seq a.j_event
          b.j_event)
    plain sharded

let test_shard_journal_identical_across_domains () =
  (* Per-shard journals are suspended during the fan-out; what remains
     is orchestrator-level provenance emitted from the main domain, so
     the stream must not depend on the domain count either. *)
  let base = journal_of_sharded ~domains:1 ~shards:4 in
  Alcotest.(check bool) "run journaled events" true (base <> []);
  Alcotest.(check bool) "shard lifecycle events present" true
    (List.exists (fun (e : Obs.Journal.entry) -> e.j_event = "run.start") base
    && List.exists (fun (e : Obs.Journal.entry) -> e.j_event = "shard.started") base
    && List.exists (fun (e : Obs.Journal.entry) -> e.j_event = "shard.merged") base
    && List.exists (fun (e : Obs.Journal.entry) -> e.j_event = "run.end") base);
  Alcotest.(check bool) "run.start carries the shard count" true
    (List.exists
       (fun (e : Obs.Journal.entry) ->
         e.j_event = "run.start"
         && List.assoc_opt "shards" e.j_fields = Some (Bench_json.Num 4.0))
       base);
  Alcotest.(check bool) "no per-shard iteration events leak" true
    (not
       (List.exists
          (fun (e : Obs.Journal.entry) -> e.j_event = "seq.joined" || e.j_event = "iteration.drift")
          base));
  let par = journal_of_sharded ~domains:4 ~shards:4 in
  Alcotest.(check int) "same record count at 1 vs 4 domains" (List.length base)
    (List.length par);
  List.iter2
    (fun (a : Obs.Journal.entry) (b : Obs.Journal.entry) ->
      if a <> b then
        Alcotest.failf "sharded journal diverges at record %d: %s vs %s" a.j_seq a.j_event
          b.j_event)
    base par

let () =
  Alcotest.run "journal"
    [
      ( "io",
        [
          Alcotest.test_case "write/read round trip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "disabled journal is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "corrupt line reported" `Quick test_read_reports_bad_line;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical across domain counts" `Quick
            test_journal_identical_across_domains;
          Alcotest.test_case "shards=1 journal matches the plain path" `Quick
            test_shards_one_journal_matches_plain;
          Alcotest.test_case "sharded journal identical across domain counts" `Quick
            test_shard_journal_identical_across_domains;
        ] );
    ]
