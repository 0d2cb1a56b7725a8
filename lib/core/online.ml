let log_src = Logs.Src.create "online" ~doc:"Streaming CLUSEQ feed and mining"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_fed = Obs.Metrics.counter "online.fed"
let m_assigned = Obs.Metrics.counter "online.assigned"
let m_mined_clusters = Obs.Metrics.counter "online.mined_clusters"
let m_dropped_outliers = Obs.Metrics.counter "online.dropped_outliers"
let h_mine = Obs.Metrics.histogram "online.mine_seconds"

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
  log_t : float;  (* the decision threshold, [config.t_init] in log space *)
  alphabet_size : int;
  buffer_capacity : int;
  mine_at : int;
  mutable clusters : (Cluster.t * int ref) list; (* ascending id; absorbed count *)
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
  (* Every mining run would reject the config: reject it before the
     stream buffers anything. *)
  Cluseq.validate_config config;
  {
    config;
    log_t = Similarity.log_of_linear config.Cluseq.t_init;
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

(* [Cluster.log_similarity] brings a stale automaton current; emissions
   do not fold in the background, so its lazy rebuilds never stale one. *)
let score_against t ~log_background s =
  List.map (fun ((cl, _) as c) -> (c, Cluster.log_similarity cl ~log_background s)) t.clusters

(* Mining: run batch CLUSEQ over the buffered sequences; each discovered
   cluster becomes a live cluster, and its members leave the buffer. *)
let mine t =
  let pending = Array.of_seq (Queue.to_seq t.buffer) in
  if Array.length pending < 2 then 0
  else begin
    Obs.Trace.with_span ~hist:h_mine "online.mine" @@ fun () ->
    let alphabet =
      if t.alphabet_size <= 26 then
        Alphabet.of_char_range 'a' (Char.chr (Char.code 'a' + t.alphabet_size - 1))
      else Alphabet.of_symbols (List.init t.alphabet_size (Printf.sprintf "s%d"))
    in
    let db = Seq_database.create alphabet pending in
    let result = Cluseq.run ~config:t.config db in
    let taken = Array.make (Array.length pending) false in
    let fresh = ref 0 in
    let cfg = Cluseq.pst_config t.config ~alphabet_size:t.alphabet_size in
    Array.iter
      (fun (_, members) ->
        if Array.length members > 0 then begin
          Array.iter (fun i -> taken.(i) <- true) members;
          let cl =
            Cluster.create ~id:t.next_id ~capacity:0 cfg (Array.map (Array.get pending) members)
          in
          t.clusters <- t.clusters @ [ (cl, ref (Array.length members)) ];
          if Obs.Journal.is_enabled () then
            Obs.Journal.emit "online.mined" (fun () ->
                [
                  ("cluster", Bench_json.Num (float_of_int (Cluster.id cl)));
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
    Log.debug (fun m ->
        m "mined %d clusters from %d buffered sequences (%d still buffered)" !fresh
          (Array.length pending) (Queue.length t.buffer));
    !fresh
  end

let feed t s =
  t.fed <- t.fed + 1;
  Obs.Metrics.incr m_fed;
  observe_symbols t s;
  let log_background = background t in
  let joined = List.filter (fun (_, v) -> v >= t.log_t) (score_against t ~log_background s) in
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
         best. Each absorb scans its segment on the automaton its score
         came from: no other cluster's absorb touches it. *)
      let best = ref None in
      List.iter
        (fun ((cl, absorbed), v) ->
          incr absorbed;
          Cluster.absorb cl ~log_background s;
          match !best with
          | Some (_, b) when b >= v -> ()
          | _ -> best := Some (Cluster.id cl, v))
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
  match score_against t ~log_background:(background t) s with
  | [] -> None
  | first :: rest ->
      let (cl, _), v =
        List.fold_left (fun ((_, va) as a) ((_, vb) as b) -> if vb > va then b else a) first rest
      in
      if v >= t.log_t then Some (Cluster.id cl, v) else None

let stats t =
  {
    fed = t.fed;
    assigned = t.assigned;
    mined_clusters = t.mined_clusters;
    buffered = Queue.length t.buffer;
    dropped_outliers = t.dropped_outliers;
    n_clusters = List.length t.clusters;
  }

let cluster_sizes t = List.map (fun (cl, absorbed) -> (Cluster.id cl, !absorbed)) t.clusters
