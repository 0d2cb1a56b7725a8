(* BENCH_*.json schema: capture from the Obs registry + (de)serialization.
   See bench_report.mli and DESIGN.md §6. *)

let schema_name = "cluseq-bench"

(* v2: added the reclustering scan-census block (pairs scored / joined,
   dirty rescores, assignments changed, wasted-pair ratio), then the
   clustering-quality drift block (per-iteration means of the
   cluseq.drift.* gauges) and the census's scored joins. Readers
   default missing numerics to 0, so those additions stay within v2. *)
let schema_version = 2

type env = {
  label : string;
  git_rev : string;
  ocaml_version : string;
  scale : float;
  hostname : string;
  word_size : int;
  domains : int;
  shards : int;
}

type census = {
  pairs_scored : int;
  pairs_joined : int;
  scored_joins : int;
  dirty_rescores : int;
  assignments_changed : int;
  pairs_reused : int;
}

let wasted_pair_ratio c =
  if c.pairs_scored = 0 then 0.0
  else float_of_int (c.pairs_scored - c.scored_joins) /. float_of_int c.pairs_scored

type drift = {
  churn_rate : float;
  cluster_age : float;
  intercluster_kl : float;
  member_score : float;
}

let drift_is_empty d =
  d.churn_rate = 0.0 && d.cluster_age = 0.0 && d.intercluster_kl = 0.0
  && d.member_score = 0.0

type experiment = {
  id : string;
  wall_s : float;
  runs : int;
  iterations : int;
  cluseq_seconds : float;
  phases : (string * float) list;
  sequences : int;
  symbols : int;
  gc : Obs.Resource.gc_delta;
  peak_heap_words : int;
  pst_nodes_built : int;
  pst_est_words_built : int;
  census : census;
  drift : drift;
  quality : (string * float) option;
}

type t = { env : env; experiments : experiment list; micro : (string * float) list }

let sequences_per_s e =
  if e.cluseq_seconds > 0.0 then float_of_int e.sequences /. e.cluseq_seconds else 0.0

let symbols_per_s e =
  if e.cluseq_seconds > 0.0 then float_of_int e.symbols /. e.cluseq_seconds else 0.0

(* Allocation intensity of the scoring pipeline: minor-heap words
   allocated per symbol pushed through clustering. Derived from fields
   every schema-v2 record already carries, so it compares against old
   baselines without a schema bump. *)
let minor_words_per_symbol e =
  if e.symbols > 0 then e.gc.Obs.Resource.minor_words /. float_of_int e.symbols else 0.0

(* ------------------------------------------------------------------ *)
(* Environment probing                                                 *)
(* ------------------------------------------------------------------ *)

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None

let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (".git/" ^ r) with
          | Some h -> String.trim h
          | None -> (
              (* the ref may live in packed-refs: "<hash> <refname>" lines *)
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed -> (
                  let match_line line =
                    match String.split_on_char ' ' (String.trim line) with
                    | [ hash; name ] when name = r -> Some hash
                    | _ -> None
                  in
                  match
                    List.find_map match_line (String.split_on_char '\n' packed)
                  with
                  | Some hash -> hash
                  | None -> "unknown")))
      | _ -> head (* detached HEAD: the hash itself *))

let hostname () =
  match read_file "/proc/sys/kernel/hostname" with
  | Some h when String.trim h <> "" -> String.trim h
  | _ -> ( match Sys.getenv_opt "HOSTNAME" with Some h when h <> "" -> h | _ -> "unknown")

let collect_env ~label ~scale ~domains ~shards =
  {
    label;
    git_rev = git_rev ();
    ocaml_version = Sys.ocaml_version;
    scale;
    hostname = hostname ();
    word_size = Sys.word_size;
    domains;
    shards;
  }

(* ------------------------------------------------------------------ *)
(* Capture from the live registry                                      *)
(* ------------------------------------------------------------------ *)

(* Must match Cluseq.run's phase span names (asserted by the telemetry tests). *)
let phase_names = [ "generation"; "reclustering"; "consolidation"; "threshold"; "convergence" ]

let capture ~id ~wall_s ~gc ~peak_heap_words ~quality =
  let counter name = Obs.Metrics.(counter_value (counter name)) in
  let hist_sum name = Obs.Metrics.(histogram_sum (histogram name)) in
  let hist_mean name =
    let h = Obs.Metrics.histogram name in
    let n = Obs.Metrics.histogram_count h in
    if n = 0 then 0.0 else Obs.Metrics.histogram_sum h /. float_of_int n
  in
  {
    id;
    wall_s;
    runs = counter "cluseq.runs";
    iterations = counter "cluseq.iterations";
    cluseq_seconds = hist_sum "cluseq.run_seconds";
    phases = List.map (fun p -> (p, hist_sum ("cluseq.iter." ^ p ^ "_seconds"))) phase_names;
    sequences = counter "cluseq.sequences";
    symbols = counter "cluseq.symbols";
    gc;
    peak_heap_words;
    pst_nodes_built = counter "cluseq.pst.nodes_built";
    pst_est_words_built = counter "cluseq.pst.est_words_built";
    census =
      {
        pairs_scored = counter "cluseq.scan.pairs_scored";
        pairs_joined = counter "cluseq.scan.pairs_joined";
        scored_joins = counter "cluseq.scan.scored_joins";
        dirty_rescores = counter "cluseq.scan.dirty_rescores";
        assignments_changed = counter "cluseq.scan.assignments_changed";
        pairs_reused = counter "cluseq.scan.pairs_reused";
      };
    drift =
      {
        churn_rate = hist_mean "cluseq.drift.churn_rate";
        cluster_age = hist_mean "cluseq.drift.cluster_age";
        intercluster_kl = hist_mean "cluseq.drift.intercluster_kl";
        member_score = hist_mean "cluseq.drift.member_score";
      };
    quality;
  }

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

type report = t

open Bench_json

let num_i i = Num (float_of_int i)

let env_to_json (e : env) =
  Obj
    [
      ("label", Str e.label);
      ("git_rev", Str e.git_rev);
      ("ocaml_version", Str e.ocaml_version);
      ("scale", Num e.scale);
      ("hostname", Str e.hostname);
      ("word_size", num_i e.word_size);
      ("domains", num_i e.domains);
      ("shards", num_i e.shards);
    ]

let gc_to_json (d : Obs.Resource.gc_delta) ~peak =
  Obj
    [
      ("minor_words", Num d.minor_words);
      ("promoted_words", Num d.promoted_words);
      ("major_words", Num d.major_words);
      ("minor_collections", num_i d.minor_collections);
      ("major_collections", num_i d.major_collections);
      ("compactions", num_i d.compactions);
      ("heap_words_delta", num_i d.heap_words);
      ("top_heap_words_delta", num_i d.top_heap_words);
      ("peak_heap_words", num_i peak);
    ]

let experiment_to_json (e : experiment) =
  Obj
    [
      ("wall_s", Num e.wall_s);
      ( "cluseq",
        Obj
          [
            ("runs", num_i e.runs);
            ("iterations", num_i e.iterations);
            ("seconds", Num e.cluseq_seconds);
            ("phases", Obj (List.map (fun (p, s) -> (p ^ "_s", Num s)) e.phases));
          ] );
      ( "throughput",
        Obj
          [
            ("sequences", num_i e.sequences);
            ("symbols", num_i e.symbols);
            ("sequences_per_s", Num (sequences_per_s e));
            ("symbols_per_s", Num (symbols_per_s e));
          ] );
      ("gc", gc_to_json e.gc ~peak:e.peak_heap_words);
      ( "pst",
        Obj
          [
            ("nodes_built", num_i e.pst_nodes_built);
            ("est_words_built", num_i e.pst_est_words_built);
          ] );
      ( "census",
        Obj
          [
            ("pairs_scored", num_i e.census.pairs_scored);
            ("pairs_joined", num_i e.census.pairs_joined);
            ("scored_joins", num_i e.census.scored_joins);
            ("dirty_rescores", num_i e.census.dirty_rescores);
            ("assignments_changed", num_i e.census.assignments_changed);
            ("pairs_reused", num_i e.census.pairs_reused);
            ("wasted_pair_ratio", Num (wasted_pair_ratio e.census));
          ] );
      ( "drift",
        Obj
          [
            ("churn_rate", Num e.drift.churn_rate);
            ("cluster_age", Num e.drift.cluster_age);
            ("intercluster_kl", Num e.drift.intercluster_kl);
            ("member_score", Num e.drift.member_score);
          ] );
      ( "quality",
        match e.quality with
        | None -> Null
        | Some (metric, v) -> Obj [ ("metric", Str metric); ("value", Num v) ] );
    ]

let to_json (r : report) =
  Obj
    [
      ("schema", Str schema_name);
      ("version", num_i schema_version);
      ("env", env_to_json r.env);
      ("experiments", Obj (List.map (fun e -> (e.id, experiment_to_json e)) r.experiments));
      ("micro", Obj (List.map (fun (name, ns) -> (name, Num ns)) r.micro));
    ]

(* --- deserialization: missing numeric fields read as 0 so files from
   future minor schema additions still compare --- *)

let get_f path json =
  let v = List.fold_left (fun acc key -> Option.bind acc (member key)) (Some json) path in
  match Option.bind v to_float with Some f -> f | None -> 0.0

let get_i path json = int_of_float (get_f path json)

let get_s path json =
  let v = List.fold_left (fun acc key -> Option.bind acc (member key)) (Some json) path in
  match Option.bind v to_str with Some s -> s | None -> "unknown"

let env_of_json json =
  {
    label = get_s [ "label" ] json;
    git_rev = get_s [ "git_rev" ] json;
    ocaml_version = get_s [ "ocaml_version" ] json;
    scale = get_f [ "scale" ] json;
    hostname = get_s [ "hostname" ] json;
    word_size = get_i [ "word_size" ] json;
    (* Files written before the parallel engine lack this field; 0 means
       "unknown" and comparisons treat it as a wildcard. *)
    domains = get_i [ "domains" ] json;
    (* Same wildcard convention for files written before shard-and-merge. *)
    shards = get_i [ "shards" ] json;
  }

let experiment_of_json id json =
  {
    id;
    wall_s = get_f [ "wall_s" ] json;
    runs = get_i [ "cluseq"; "runs" ] json;
    iterations = get_i [ "cluseq"; "iterations" ] json;
    cluseq_seconds = get_f [ "cluseq"; "seconds" ] json;
    phases =
      (match member "cluseq" json |> Option.map (member "phases") |> Option.join with
      | Some (Obj fields) ->
          List.filter_map
            (fun (k, v) ->
              match (Filename.chop_suffix_opt ~suffix:"_s" k, to_float v) with
              | Some p, Some s -> Some (p, s)
              | _ -> None)
            fields
      | _ -> []);
    sequences = get_i [ "throughput"; "sequences" ] json;
    symbols = get_i [ "throughput"; "symbols" ] json;
    gc =
      {
        Obs.Resource.minor_words = get_f [ "gc"; "minor_words" ] json;
        promoted_words = get_f [ "gc"; "promoted_words" ] json;
        major_words = get_f [ "gc"; "major_words" ] json;
        minor_collections = get_i [ "gc"; "minor_collections" ] json;
        major_collections = get_i [ "gc"; "major_collections" ] json;
        compactions = get_i [ "gc"; "compactions" ] json;
        heap_words = get_i [ "gc"; "heap_words_delta" ] json;
        top_heap_words = get_i [ "gc"; "top_heap_words_delta" ] json;
      };
    peak_heap_words = get_i [ "gc"; "peak_heap_words" ] json;
    pst_nodes_built = get_i [ "pst"; "nodes_built" ] json;
    pst_est_words_built = get_i [ "pst"; "est_words_built" ] json;
    census =
      {
        pairs_scored = get_i [ "census"; "pairs_scored" ] json;
        pairs_joined = get_i [ "census"; "pairs_joined" ] json;
        scored_joins = get_i [ "census"; "scored_joins" ] json;
        dirty_rescores = get_i [ "census"; "dirty_rescores" ] json;
        assignments_changed = get_i [ "census"; "assignments_changed" ] json;
        pairs_reused = get_i [ "census"; "pairs_reused" ] json;
      };
    (* Files recorded before the drift gauges read as all-zero; compare
       treats that as "no baseline" and skips drift verdicts. *)
    drift =
      {
        churn_rate = get_f [ "drift"; "churn_rate" ] json;
        cluster_age = get_f [ "drift"; "cluster_age" ] json;
        intercluster_kl = get_f [ "drift"; "intercluster_kl" ] json;
        member_score = get_f [ "drift"; "member_score" ] json;
      };
    quality =
      (match member "quality" json with
      | Some (Obj _ as q) -> (
          match (member "metric" q |> Option.map to_str, member "value" q) with
          | Some (Some metric), Some (Num v) -> Some (metric, v)
          | _ -> None)
      | _ -> None);
  }

let of_json json =
  match (member "schema" json |> Option.map to_str |> Option.join, member "version" json) with
  | Some schema, _ when schema <> schema_name ->
      Error (Printf.sprintf "not a %s file (schema %S)" schema_name schema)
  | None, _ -> Error (Printf.sprintf "not a %s file (no schema field)" schema_name)
  | Some _, version -> (
      match Option.bind version to_int with
      | Some v when v = schema_version ->
          let env = match member "env" json with Some e -> env_of_json e | None -> env_of_json Null in
          let experiments =
            match member "experiments" json with
            | Some (Obj fields) -> List.map (fun (id, e) -> experiment_of_json id e) fields
            | _ -> []
          in
          let micro =
            match member "micro" json with
            | Some (Obj fields) ->
                List.filter_map (fun (name, v) -> Option.map (fun ns -> (name, ns)) (to_float v)) fields
            | _ -> []
          in
          Ok { env; experiments; micro }
      | Some v ->
          Error
            (Printf.sprintf
               "schema version %d, but this build reads version %d — regenerate the file \
                with the current bench harness (e.g. `dune exec bench/main.exe -- --scale \
                <s> --record <file>`)"
               v schema_version)
      | None -> Error "missing schema version")

let write path r = Obs.Export.write_file path (Bench_json.to_string (to_json r))

let read path =
  match read_file path with
  | None -> Error (Printf.sprintf "cannot read %s" path)
  | Some contents -> (
      match Bench_json.parse contents with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok json -> (
          match of_json json with
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | Ok r -> Ok r))
