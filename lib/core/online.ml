let log_src = Logs.Src.create "online" ~doc:"Streaming CLUSEQ feed and mining"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_fed = Obs.Metrics.counter "online.fed"
let m_assigned = Obs.Metrics.counter "online.assigned"
let m_mined_clusters = Obs.Metrics.counter "online.mined_clusters"
let m_dropped_outliers = Obs.Metrics.counter "online.dropped_outliers"
let h_mine = Obs.Metrics.histogram "online.mine_seconds"

type live_cluster = {
  id : int;
  pst : Pst.t;
  mutable absorbed : int;
  (* Automaton for the current tree, [None] while stale. Emissions do not
     fold in the background, so a cached automaton survives the lazy
     background rebuilds; only tree mutation (feed absorption) drops it.
     Rebuilt at mine time and on [classify] — not inside [feed], where a
     joining stream would force a recompile per absorbed sequence. *)
  mutable compiled : Psa.t option;
}

type stats = {
  fed : int;
  assigned : int;
  mined_clusters : int;
  buffered : int;
  dropped_outliers : int;
  n_clusters : int;
}

type t = {
  config : Cluseq.config;
  alphabet_size : int;
  buffer_capacity : int;
  mine_at : int;
  mutable clusters : live_cluster list; (* ascending id *)
  mutable next_id : int;
  buffer : Sequence.t Queue.t;
  symbol_counts : int array;
  mutable total_symbols : int;
  mutable log_background : float array; (* cached, rebuilt lazily *)
  mutable background_stale : bool;
  mutable fed : int;
  mutable assigned : int;
  mutable mined_clusters : int;
  mutable dropped_outliers : int;
}

let create ?(config = Cluseq.default_config) ?buffer_capacity ?(mine_at = 64) ~alphabet_size
    () =
  if alphabet_size <= 0 then invalid_arg "Online.create: alphabet_size";
  if mine_at < 2 then invalid_arg "Online.create: mine_at";
  let buffer_capacity = Option.value ~default:(4 * mine_at) buffer_capacity in
  if buffer_capacity < mine_at then invalid_arg "Online.create: buffer_capacity < mine_at";
  {
    config;
    alphabet_size;
    buffer_capacity;
    mine_at;
    clusters = [];
    next_id = 0;
    buffer = Queue.create ();
    symbol_counts = Array.make alphabet_size 0;
    total_symbols = 0;
    log_background = Array.make alphabet_size (-.log (float_of_int alphabet_size));
    background_stale = false;
    fed = 0;
    assigned = 0;
    mined_clusters = 0;
    dropped_outliers = 0;
  }

let log_t t = Similarity.log_of_linear t.config.Cluseq.t_init

let background t =
  if t.background_stale then begin
    let total = float_of_int (max 1 t.total_symbols) in
    let eps = 1e-9 in
    let raw = Array.map (fun c -> Float.max eps (float_of_int c /. total)) t.symbol_counts in
    let s = Array.fold_left ( +. ) 0.0 raw in
    t.log_background <- Array.map (fun x -> log (x /. s)) raw;
    t.background_stale <- false
  end;
  t.log_background

let observe_symbols t s =
  Array.iter
    (fun c ->
      if c < 0 || c >= t.alphabet_size then invalid_arg "Online.feed: symbol out of range";
      t.symbol_counts.(c) <- t.symbol_counts.(c) + 1)
    s;
  t.total_symbols <- t.total_symbols + Array.length s;
  t.background_stale <- true

let refresh_compiled cl =
  match cl.compiled with
  | Some _ -> ()
  | None -> if Psa.enabled () then cl.compiled <- Some (Psa.compile cl.pst)

let score_against t s =
  let lbg = background t in
  List.map
    (fun cl ->
      let r =
        match cl.compiled with
        | Some psa -> Similarity.score_psa psa ~log_background:lbg s
        | None -> Similarity.score cl.pst ~log_background:lbg s
      in
      (cl, r))
    t.clusters

(* Mining: run batch CLUSEQ over the buffered sequences; each discovered
   cluster becomes a live cluster, and its members leave the buffer. *)
let mine t =
  Obs.Trace.with_span "online.mine" @@ fun () ->
  let t0 = if Obs.Metrics.is_enabled () then Timer.now_ns () else 0L in
  let pending = Array.of_seq (Queue.to_seq t.buffer) in
  if Array.length pending < 2 then 0
  else begin
    let alphabet =
      if t.alphabet_size <= 26 then
        Alphabet.of_char_range 'a' (Char.chr (Char.code 'a' + t.alphabet_size - 1))
      else Alphabet.of_symbols (List.init t.alphabet_size (Printf.sprintf "s%d"))
    in
    let db = Seq_database.create alphabet pending in
    let result = Cluseq.run ~config:t.config db in
    let taken = Array.make (Array.length pending) false in
    let fresh = ref 0 in
    Array.iter
      (fun (_, members) ->
        if Array.length members > 0 then begin
          let pst =
            Pst.create
              {
                Pst.alphabet_size = t.alphabet_size;
                max_depth = t.config.Cluseq.max_depth;
                significance = t.config.Cluseq.significance;
                max_nodes = t.config.Cluseq.max_nodes;
                p_min =
                  Float.min t.config.Cluseq.p_min (0.99 /. float_of_int t.alphabet_size);
                pruning = t.config.Cluseq.pruning;
              }
          in
          Array.iter
            (fun i ->
              Pst.insert_sequence pst pending.(i);
              taken.(i) <- true)
            members;
          let cl = { id = t.next_id; pst; absorbed = Array.length members; compiled = None } in
          refresh_compiled cl;
          t.clusters <- t.clusters @ [ cl ];
          if Obs.Journal.is_enabled () then
            Obs.Journal.emit "online.mined" (fun () ->
                [
                  ("cluster", Bench_json.Num (float_of_int cl.id));
                  ("members", Bench_json.Num (float_of_int (Array.length members)));
                ]);
          t.next_id <- t.next_id + 1;
          incr fresh
        end)
      result.clusters;
    (* Rebuild the buffer with the sequences no mined cluster claimed. *)
    Queue.clear t.buffer;
    Array.iteri (fun i s -> if not taken.(i) then Queue.add s t.buffer) pending;
    t.mined_clusters <- t.mined_clusters + !fresh;
    Obs.Metrics.incr ~by:!fresh m_mined_clusters;
    if Obs.Metrics.is_enabled () then
      Obs.Metrics.observe h_mine (Timer.span_s t0 (Timer.now_ns ()));
    Log.debug (fun m ->
        m "mined %d clusters from %d buffered sequences (%d still buffered)" !fresh
          (Array.length pending) (Queue.length t.buffer));
    !fresh
  end

let feed t s =
  t.fed <- t.fed + 1;
  Obs.Metrics.incr m_fed;
  observe_symbols t s;
  let scored = score_against t s in
  let joined =
    List.filter (fun (_, (r : Similarity.result)) -> r.log_sim >= log_t t) scored
  in
  match joined with
  | [] ->
      Queue.add s t.buffer;
      while Queue.length t.buffer > t.buffer_capacity do
        ignore (Queue.pop t.buffer);
        t.dropped_outliers <- t.dropped_outliers + 1;
        Obs.Metrics.incr m_dropped_outliers;
        if Obs.Journal.is_enabled () then
          Obs.Journal.emit "online.dropped" (fun () ->
              [ ("fed", Bench_json.Num (float_of_int t.fed)) ])
      done;
      if Queue.length t.buffer >= t.mine_at then ignore (mine t);
      None
  | _ ->
      t.assigned <- t.assigned + 1;
      Obs.Metrics.incr m_assigned;
      (* Update every matching cluster (overlap, Sec. 4.2); report the
         best. *)
      let best = ref None in
      List.iter
        (fun (cl, (r : Similarity.result)) ->
          cl.absorbed <- cl.absorbed + 1;
          if r.seg_lo >= 0 && r.seg_hi >= r.seg_lo then begin
            Pst.insert_segment cl.pst s ~lo:r.seg_lo ~hi:r.seg_hi;
            (* Dropped, not kept current as [Cluster] keeps its automaton
               (Psa.refresh, or a recompile once a context turns
               significant): a feed scores each cluster once, so no later
               score in the same feed would repay the upkeep. Measured on
               the online-stream benchmark, recompiling at every crossing
               took feed latency from 0.54-0.64 ms to 0.94-0.96 ms, and
               refreshing until the first crossing gained nothing. *)
            cl.compiled <- None
          end;
          match !best with
          | Some (_, b) when b >= r.log_sim -> ()
          | _ -> best := Some (cl.id, r.log_sim))
        joined;
      (match (!best, Obs.Journal.is_enabled ()) with
      | Some (id, score), true ->
          Obs.Journal.emit "online.assigned" (fun () ->
              [
                ("fed", Bench_json.Num (float_of_int t.fed));
                ("cluster", Bench_json.Num (float_of_int id));
                ("log_sim", Bench_json.Num score);
                ("matches", Bench_json.Num (float_of_int (List.length joined)));
              ])
      | _ -> ());
      Option.map fst !best

let classify t s =
  (* Query path: worth an automaton per cluster (classify is typically
     called many times between mutations; feed keeps whatever is fresh). *)
  List.iter refresh_compiled t.clusters;
  match score_against t s with
  | [] -> None
  | scored ->
      let cl, (r : Similarity.result) =
        List.fold_left
          (fun ((_, (ra : Similarity.result)) as a) ((_, rb) as b) ->
            if rb.Similarity.log_sim > ra.log_sim then b else a)
          (List.hd scored) (List.tl scored)
      in
      if r.log_sim >= log_t t then Some (cl.id, r.log_sim) else None

let stats t =
  {
    fed = t.fed;
    assigned = t.assigned;
    mined_clusters = t.mined_clusters;
    buffered = Queue.length t.buffer;
    dropped_outliers = t.dropped_outliers;
    n_clusters = List.length t.clusters;
  }

let cluster_sizes t = List.map (fun cl -> (cl.id, cl.absorbed)) t.clusters
