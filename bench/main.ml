(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe                 # every experiment, scale 1
     dune exec bench/main.exe -- table2 fig4  # selected experiments
     dune exec bench/main.exe -- --scale 0.5  # half-size workloads
     dune exec bench/main.exe -- --domains 4  # domain-pool size (1 = serial)
     dune exec bench/main.exe -- --shards 4   # shard count experiments honor (1 = unsharded)
     dune exec bench/main.exe -- --no-index   # score every pair afresh (no score-column cache)
     dune exec bench/main.exe -- --list       # experiment inventory
     dune exec bench/main.exe -- --csv out/   # also write tables as CSV
     dune exec bench/main.exe -- --metrics-dir out/  # per-experiment metrics JSON
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks
     dune exec bench/main.exe -- --scale 0.25 --record BENCH_baseline.json
                                              # canonical telemetry record
     dune exec bench/main.exe -- compare BENCH_baseline.json BENCH_new.json \
                                 [--threshold PCT] [--quality-threshold PCT]
                                              # perf regression gate

     dune exec bench/main.exe -- table4 --trace-out trace.json
                                              # Perfetto flight-recorder trace
     dune exec bench/main.exe -- trace-validate trace.json
                                              # sanity-check a trace file
     dune exec bench/main.exe -- table4 --journal journal.jsonl
                                              # decision-provenance journal (JSONL)

   Each experiment regenerates one table or figure of the paper's
   evaluation (see DESIGN.md Sec. 4 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured results). `--record` writes the
   machine-readable BENCH_*.json described in DESIGN.md §6; `compare`
   exits 1 on a perf regression, 2 on usage or parse errors.
   `--trace-out` records the whole harness run with the flight
   recorder (DESIGN.md §10) and writes a Chrome-trace-format timeline
   loadable at https://ui.perfetto.dev; `trace-validate` re-parses
   such a file and exits 2 unless it contains events from at least two
   domains. *)

let list_experiments () =
  Printf.printf "available experiments:\n";
  List.iter (fun (id, doc, _) -> Printf.printf "  %-10s %s\n" id doc) Experiments.all;
  Printf.printf "  %-10s %s\n" "micro" "Bechamel micro-benchmarks of core primitives"

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* An option's operand must exist and not look like the next option —
   `bench --csv --scale 2` is a mistake, not a directory named --scale. *)
let operand ~flag = function
  | v :: rest when not (String.length v > 1 && v.[0] = '-' && v.[1] = '-') -> (v, rest)
  | _ -> die "%s expects an operand" flag

let positive_float ~flag v =
  match float_of_string_opt v with
  | Some f when f > 0.0 -> f
  | _ -> die "%s expects a positive number" flag

let positive_int ~flag v =
  match int_of_string_opt v with
  | Some i when i > 0 -> i
  | _ -> die "%s expects a positive integer" flag

(* ------------------------------------------------------------------ *)
(* compare subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let run_compare args =
  let threshold = ref 25.0 in
  let quality_threshold = ref 2.0 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: rest ->
        let v, rest = operand ~flag:"--threshold" rest in
        threshold := positive_float ~flag:"--threshold" v;
        parse rest
    | "--quality-threshold" :: rest ->
        let v, rest = operand ~flag:"--quality-threshold" rest in
        quality_threshold := positive_float ~flag:"--quality-threshold" v;
        parse rest
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' && flag.[1] = '-' ->
        die "compare: unknown option %s" flag
    | file :: rest ->
        files := file :: !files;
        parse rest
  in
  parse args;
  match List.rev !files with
  | [ base_file; cand_file ] -> (
      let load file =
        match Bench_report.read file with Ok r -> r | Error msg -> die "%s" msg
      in
      let base = load base_file and candidate = load cand_file in
      match
        Bench_compare.compare_reports ~threshold_pct:!threshold
          ~quality_threshold_pct:!quality_threshold ~base ~candidate ()
      with
      | Error msg -> die "%s" msg
      | Ok verdicts ->
          Printf.printf "comparing %s (%s) -> %s (%s), threshold %.0f%%\n" base_file
            base.env.git_rev cand_file candidate.env.git_rev !threshold;
          print_string (Bench_compare.render verdicts);
          if Bench_compare.has_regression verdicts then begin
            prerr_endline "bench compare: performance regression detected";
            exit 1
          end)
  | _ -> die "usage: bench compare BASE.json NEW.json [--threshold PCT] [--quality-threshold PCT]"

(* ------------------------------------------------------------------ *)
(* trace-validate subcommand                                           *)
(* ------------------------------------------------------------------ *)

(* Structural sanity check of a Chrome-trace file written by
   --trace-out: it must parse, carry events, and show work on at least
   two distinct threads (main + ≥1 worker domain) — the property the
   trace-smoke gate cares about. *)
let run_trace_validate args =
  let file =
    match args with [ f ] -> f | _ -> die "usage: bench trace-validate TRACE.json"
  in
  let text =
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> die "trace-validate: %s" msg
  in
  let json =
    match Bench_json.parse text with
    | Ok j -> j
    | Error msg -> die "trace-validate: %s: invalid JSON: %s" file msg
  in
  let events =
    match json with
    | Bench_json.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Bench_json.Arr evs) -> evs
        | _ -> die "trace-validate: %s: no traceEvents array" file)
    | _ -> die "trace-validate: %s: top level is not an object" file
  in
  let field name = function
    | Bench_json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let real_events =
    (* Skip "M" metadata records: they name threads, they aren't work. *)
    List.filter
      (fun ev -> match field "ph" ev with Some (Bench_json.Str "M") -> false | _ -> true)
      events
  in
  if real_events = [] then die "trace-validate: %s: no timeline events" file;
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun ev -> match field "tid" ev with Some (Bench_json.Num n) -> Some n | _ -> None)
         real_events)
  in
  if List.length tids < 2 then
    die "trace-validate: %s: events on %d domain(s); expected >= 2 (run with --domains > 1)"
      file (List.length tids);
  Printf.printf "%s: ok (%d events across %d domains)\n" file (List.length real_events)
    (List.length tids)

(* ------------------------------------------------------------------ *)
(* experiment driver                                                   *)
(* ------------------------------------------------------------------ *)

(* BENCH_baseline.json -> "baseline"; anything else keeps its stem. *)
let label_of_record_path path =
  let stem = Filename.remove_extension (Filename.basename path) in
  if String.starts_with ~prefix:"BENCH_" stem then
    String.sub stem 6 (String.length stem - 6)
  else stem

let () =
  Obs.Logging.setup ();
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "compare" :: rest -> run_compare rest
  | "trace-validate" :: rest -> run_trace_validate rest
  | _ ->
      let scale = ref 1.0 in
      let metrics_dir = ref None in
      let record = ref None in
      let trace_out = ref None in
      let journal = ref None in
      let selected = ref [] in
      let rec parse = function
        | [] -> ()
        | "--list" :: _ ->
            list_experiments ();
            exit 0
        | "--csv" :: rest ->
            let dir, rest = operand ~flag:"--csv" rest in
            Bench_util.csv_dir := Some dir;
            parse rest
        | "--metrics-dir" :: rest ->
            let dir, rest = operand ~flag:"--metrics-dir" rest in
            metrics_dir := Some dir;
            parse rest
        | "--record" :: rest ->
            let file, rest = operand ~flag:"--record" rest in
            record := Some file;
            parse rest
        | "--trace-out" :: rest ->
            let file, rest = operand ~flag:"--trace-out" rest in
            trace_out := Some file;
            parse rest
        | "--journal" :: rest ->
            let file, rest = operand ~flag:"--journal" rest in
            journal := Some file;
            parse rest
        | "--scale" :: rest ->
            let v, rest = operand ~flag:"--scale" rest in
            scale := positive_float ~flag:"--scale" v;
            parse rest
        | "--domains" :: rest ->
            let v, rest = operand ~flag:"--domains" rest in
            Par.set_default_domains (positive_int ~flag:"--domains" v);
            parse rest
        | "--shards" :: rest ->
            let v, rest = operand ~flag:"--shards" rest in
            Bench_util.shards := positive_int ~flag:"--shards" v;
            parse rest
        | "--no-index" :: rest ->
            Cluster.set_cache_enabled false;
            parse rest
        | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
            die "unknown option %s (try --list for experiments)" flag
        | id :: rest ->
            selected := id :: !selected;
            parse rest
      in
      parse args;
      let selected = List.rev !selected in
      List.iter
        (fun id ->
          if id <> "micro" && not (List.exists (fun (eid, _, _) -> eid = id) Experiments.all)
          then die "unknown experiment %S (try --list)" id)
        selected;
      let run_micro = List.mem "micro" selected || selected = [] in
      let to_run =
        match List.filter (fun id -> id <> "micro") selected with
        | [] ->
            if selected = [] then List.map (fun (id, _, f) -> (id, f)) Experiments.all else []
        | ids ->
            List.map
              (fun id ->
                let _, _, f = List.find (fun (eid, _, _) -> eid = id) Experiments.all in
                (id, f))
              ids
      in
      let instrumented = !metrics_dir <> None || !record <> None in
      if !record <> None then Obs.Resource.start_sampler ();
      if !trace_out <> None then begin
        Obs.Trace.enable ();
        Obs.Recorder.enable ();
        if not (Obs.Runtime_bridge.start ()) then
          prerr_endline "warning: Runtime_events unavailable; trace will lack GC events"
      end;
      (match !journal with
      | None -> ()
      | Some file -> (
          try Obs.Journal.open_file file
          with Sys_error msg -> die "cannot open journal %s: %s" file msg));
      Printf.printf "CLUSEQ benchmark harness (scale %.2f, domains %d)\n" !scale
        (Par.default_domains ());
      let total = ref 0.0 in
      let recorded = ref [] in
      List.iter
        (fun (id, f) ->
          Printf.printf "\n################ %s ################\n%!" id;
          Bench_util.current_experiment := id;
          Bench_util.reset_quality ();
          if instrumented then begin
            (* Fresh, enabled registry per experiment so each report
               reflects that experiment alone. A live --trace-out
               recording keeps its spans and rings: only the metrics
               are scoped to the experiment. *)
            if !trace_out = None then Obs.reset () else Obs.Metrics.reset ();
            Obs.Metrics.enable ();
            Obs.Resource.reset_peak ()
          end;
          let ((), gc), secs =
            Timer.time (fun () -> Obs.Resource.measure (fun () -> f !scale))
          in
          if !record <> None then begin
            Obs.Resource.publish gc;
            recorded :=
              Bench_report.capture ~id ~wall_s:secs ~gc
                ~peak_heap_words:(Obs.Resource.peak_heap_words ())
                ~quality:!Bench_util.quality
              :: !recorded
          end;
          (match !metrics_dir with
          | None -> ()
          | Some dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let path = Filename.concat dir (id ^ ".json") in
              Obs.Export.write_file path (Obs.Export.to_json ());
              Printf.printf "[metrics written to %s]\n%!" path);
          total := !total +. secs;
          Printf.printf "[%s completed in %.1fs]\n%!" id secs)
        to_run;
      let micro_rows = if run_micro then Micro.run () else [] in
      (match !record with
      | None -> ()
      | Some file ->
          let report =
            {
              Bench_report.env =
                Bench_report.collect_env ~label:(label_of_record_path file) ~scale:!scale
                  ~domains:(Par.default_domains ()) ~shards:!Bench_util.shards;
              experiments = List.rev !recorded;
              micro = micro_rows;
            }
          in
          Bench_report.write file report;
          Printf.printf "\n[bench record written to %s]\n%!" file);
      (match !trace_out with
      | None -> ()
      | Some file ->
          ignore (Obs.Runtime_bridge.poll () : int);
          Obs.Runtime_bridge.stop ();
          Obs.Export.write_file file (Obs.Export.to_chrome_trace ());
          Printf.printf "[trace written to %s (open at https://ui.perfetto.dev)]\n%!" file);
      (match !journal with
      | None -> ()
      | Some file ->
          Obs.Journal.close ();
          (* Read the totals after close: the final flush is what moves
             still-buffered records into the written count. *)
          let written = Obs.Journal.events_written () and dropped = Obs.Journal.dropped () in
          Printf.printf "[journal written to %s (%d records%s)]\n%!" file written
            (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else ""));
      Printf.printf "\nall experiments done in %.1fs\n" !total
