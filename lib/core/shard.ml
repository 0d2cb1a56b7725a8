(* Shard-and-merge orchestration. See shard.mli and DESIGN.md §14. *)

let log_src = Logs.Src.create "shard" ~doc:"Shard-and-merge orchestration"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_shard_runs = Obs.Metrics.counter "cluseq.shard.runs"
let m_consolidations = Obs.Metrics.counter "cluseq.shard.consolidations"
let m_fixup_rescored = Obs.Metrics.counter "cluseq.shard.fixup_rescored"
let g_shard_count = Obs.Metrics.gauge "cluseq.shard.count"
let h_shard_run_seconds = Obs.Metrics.histogram "cluseq.shard.run_seconds"
let h_merge_seconds = Obs.Metrics.histogram "cluseq.shard.merge_seconds"
let h_prefilter_seconds = Obs.Metrics.histogram "cluseq.shard.prefilter_seconds"

(* The divergence PREFILTER for consolidation candidates — not the
   decision rule. Measured same-family and different-family divergence
   bands move with the per-shard sample size and overlap across
   workloads (DESIGN.md §14), so no absolute threshold can decide a
   merge; the cap only discards pairs saturated at the smoothing
   ceiling (per-symbol log ratios are bounded by log(1/p_min) ≈ 6.9
   with p_min = 1e-3; foreign models measure ≥ 6.5 once both are well
   trained). The decision is the cross-acceptance score test in
   [run]. *)
let default_merge_divergence = 6.5

let clamp lo hi v = max lo (min hi v)

(* Stateless SplitMix64 hashes ([Rng]'s mixer and step), so shard
   membership is a pure function of (seed, id). *)
let shard_of_id ~seed ~shards id =
  if shards <= 1 then 0
  else
    let h = Rng.mix Int64.(add (mul (of_int seed) Rng.golden) (of_int (id + 1))) in
    Int64.to_int (Int64.unsigned_rem h (Int64.of_int shards))

(* Per-shard RNG seed: a function of (run seed, shard index) only, so a
   shard's run is independent of how many other shards exist and of the
   order they execute in. It is the hash's top 63 bits read as a signed
   int, so it may be negative. *)
let shard_seed seed s =
  Int64.to_int
    (Int64.shift_right_logical
       (Rng.mix Int64.(logxor (of_int seed) (mul (of_int (s + 1)) Rng.golden)))
       1)

(* Union-find over global cluster indices with the minimum index as
   root, so each merged component's survivor is its smallest global id
   (deterministic and stable under pair ordering). *)
let rec find parent i = if parent.(i) = i then i else find parent parent.(i)

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then parent.(max ri rj) <- min ri rj

(* One per-shard cluster lifted to the global numbering: its id is its
   global index and its members are global sequence ids. *)
type gcluster = {
  g_shard : int;
  g_log_t : float; (* the home shard's final log threshold *)
  g_cl : Cluster.t;
}

let run ?(config = Cluseq.default_config) ?(shards = 1) db =
  let n = Seq_database.n_sequences db in
  let shards = clamp 1 64 shards in
  if shards <= 1 then Cluseq.run ~config db
  else begin
    let journal_on = Obs.Journal.is_enabled () in
    Cluseq.journal_start ~shards config ~n;
    (* --- partition: hash-of-id, empty shards dropped --- *)
    let seed = config.Cluseq.seed in
    let owner = Array.init n (fun i -> shard_of_id ~seed ~shards i) in
    let counts = Array.make shards 0 in
    Array.iter (fun s -> counts.(s) <- counts.(s) + 1) owner;
    let ids = Array.map (fun c -> Array.make c 0) counts in
    let fill = Array.make shards 0 in
    for i = 0 to n - 1 do
      let s = owner.(i) in
      ids.(s).(fill.(s)) <- i;
      fill.(s) <- fill.(s) + 1
    done;
    let live =
      Array.of_list
        (List.filter_map
           (fun s -> if counts.(s) > 0 then Some (s, ids.(s)) else None)
           (List.init shards Fun.id))
    in
    let k = Array.length live in
    Obs.Metrics.set g_shard_count (float_of_int k);
    Obs.Metrics.incr ~by:k m_shard_runs;
    if journal_on then
      Array.iter
        (fun (s, ids) ->
          Obs.Journal.emit "shard.started" (fun () ->
              [
                ("shard", Bench_json.Num (float_of_int s));
                ("sequences", Bench_json.Num (float_of_int (Array.length ids)));
                (* A string: a double cannot hold every 63-bit seed. *)
                ("seed", Bench_json.Str (string_of_int (shard_seed seed s)));
              ]))
        live;
    Log.info (fun m -> m "fanning out %d shards over %d sequences" k n);
    (* --- per-shard runs: one pool task per shard. The journal is a
       main-domain single writer, so it is suspended for the duration;
       nested pool submissions inside each Cluseq.run fall back to
       inline execution (the pool is busy), so shards never deadlock
       the pool they run on. --- *)
    let sub_results =
      Obs.Journal.with_suspended (fun () ->
          let pool = Par.get_pool () in
          Par.map_chunks pool ~chunks:k ~n:k (fun j ->
              let s, ids = live.(j) in
              (* On a worker the span lands on that domain's ring: Perfetto
                 shows each shard, with its phases, on its worker's track. *)
              Obs.Trace.with_span ~hist:h_shard_run_seconds "shard.run" @@ fun () ->
              let sub = Seq_database.subset db ids in
              Cluseq.run ~config:{ config with Cluseq.seed = shard_seed seed s } sub))
    in
    if journal_on then
      Array.iteri
        (fun j (r : Cluseq.result) ->
          let s, _ = live.(j) in
          Obs.Journal.emit "shard.merged" (fun () ->
              [
                ("shard", Bench_json.Num (float_of_int s));
                ("clusters", Bench_json.Num (float_of_int r.Cluseq.n_clusters));
                ("iterations", Bench_json.Num (float_of_int r.Cluseq.iterations));
                ("final_t", Bench_json.Num r.Cluseq.final_t);
              ]))
        sub_results;
    Obs.Trace.with_span ~hist:h_merge_seconds "shard.merge" @@ fun () ->
    (* --- lift per-shard clusters to the global numbering (shard-major
       order, so ids are deterministic) --- *)
    let best = Array.make n None in
    let lifted = ref [] in
    let n_g = ref 0 in
    Array.iteri
      (fun j (r : Cluseq.result) ->
        let s, ids = live.(j) in
        let base = !n_g in
        let local_gid = Hashtbl.create 16 in
        Array.iteri
          (fun ci (lid, _) -> Hashtbl.replace local_gid lid (base + ci))
          r.Cluseq.clusters;
        let log_t = Similarity.log_of_linear r.Cluseq.final_t in
        Array.iteri
          (fun ci (lid, lmembers) ->
            (* clusters and models are index-aligned (same id order) *)
            let mid, pst = r.Cluseq.models.(ci) in
            assert (mid = lid);
            lifted := (s, log_t, pst, Array.map (fun l -> ids.(l)) lmembers) :: !lifted)
          r.Cluseq.clusters;
        n_g := base + Array.length r.Cluseq.clusters;
        Array.iteri
          (fun l b ->
            best.(ids.(l)) <-
              Option.bind b (fun (lid, score) ->
                  Option.map (fun g -> (g, score)) (Hashtbl.find_opt local_gid lid)))
          r.Cluseq.best)
      sub_results;
    let lifted = Array.of_list (List.rev !lifted) in
    let m = Array.length lifted in
    let lbg = Seq_database.log_background db in
    let pool = Par.get_pool () in
    (* Each shard model becomes a cluster, compiled once, on the pool.
       Every score below runs on these automata, which equal the tree
       walk bit for bit. *)
    let gs =
      Par.map_chunks pool ~n:m (fun i ->
          let g_shard, g_log_t, pst, members = lifted.(i) in
          let g_cl = Cluster.of_pst ~id:i ~capacity:n pst in
          Array.iter (Cluster.add_member g_cl) members;
          { g_shard; g_log_t; g_cl })
    in
    (* --- cross-shard consolidation (DESIGN.md §14). Three stages,
       because the divergence bands alone cannot decide a merge:
       1. prefilter — only cross-shard pairs whose symmetrized KL is
          under [default_merge_divergence] (pairs at the smoothing
          ceiling are never the same family); same-shard pairs were already
          separated by their own run's consolidation pass;
       2. candidacy — a pair is considered only if one side is the
          other's nearest neighbour among that shard's clusters (the
          true counterpart is always the nearest; skipping the rest
          avoids chaining through moderately-close foreign models);
       3. decision — mutual cross-acceptance: a strided sample of each
          side's members must, by majority, clear the pair's lenient
          retention threshold under the *other* side's model. This is
          the algorithm's own membership criterion, so it needs no
          workload-dependent constant. --- *)
    (* The prefilter: one divergence profile per cluster, each built by
       the one task that owns it, then the cross-shard divergences
       between them — both on the pool; same-shard pairs stay at
       infinity. *)
    let profiles, d =
      Obs.Trace.with_span ~hist:h_prefilter_seconds "shard.prefilter" @@ fun () ->
      let profiles = Par.map_chunks pool ~n:m (fun i -> Cluster.profile gs.(i).g_cl) in
      let d = Array.make_matrix m m infinity in
      let cross =
        let acc = ref [] in
        for i = m - 1 downto 0 do
          for j = m - 1 downto i + 1 do
            if gs.(i).g_shard <> gs.(j).g_shard then acc := (i, j) :: !acc
          done
        done;
        Array.of_list !acc
      in
      let kl =
        Par.map_chunks pool ~n:(Array.length cross) (fun p ->
            let i, j = cross.(p) in
            Divergence.kl_profiles profiles.(i) profiles.(j))
      in
      Array.iteri
        (fun p (i, j) ->
          d.(i).(j) <- kl.(p);
          d.(j).(i) <- kl.(p))
        cross;
      (profiles, d)
    in
    (* [accepts a b]: do [b]'s members, by majority of a deterministic
       strided sample, clear the lenient threshold under [a]'s model? *)
    let accepts a b =
      let lt = Float.min gs.(a).g_log_t gs.(b).g_log_t in
      let members = Array.of_list (Bitset.to_list (Cluster.members gs.(b).g_cl)) in
      let len = Array.length members in
      let take = min 16 len in
      let ok = ref 0 in
      for q = 0 to take - 1 do
        let id = members.(q * len / take) in
        let r = Cluster.similarity gs.(a).g_cl ~log_background:lbg (Seq_database.get db id) in
        if r.Similarity.log_sim >= lt then incr ok
      done;
      2 * !ok >= take
    in
    (* Nearest cross-shard neighbour of [i] within shard [s']. *)
    let nearest i s' =
      let best = ref (-1) in
      for j = 0 to m - 1 do
        if gs.(j).g_shard = s' && (!best < 0 || d.(i).(j) < d.(i).(!best)) then best := j
      done;
      !best
    in
    let parent = Array.init m Fun.id in
    for i = 0 to m - 1 do
      Array.iter
        (fun (s', _) ->
          if s' <> gs.(i).g_shard then
            let j = nearest i s' in
            if
              j >= 0
              && d.(i).(j) < default_merge_divergence
              && find parent i <> find parent j
              && accepts i j && accepts j i
            then union parent i j)
        live
    done;
    let canon i = find parent i in
    let comp_members = Array.make m [] in
    for i = m - 1 downto 0 do
      comp_members.(canon i) <- i :: comp_members.(canon i)
    done;
    (* Journal every absorbed cluster with the divergence against its
       survivor's original (pre-merge) model — the record `cluseq
       explain` uses to answer "why did my shard-local cluster
       disappear". *)
    for i = 0 to m - 1 do
      let s = canon i in
      if s <> i then begin
        Obs.Metrics.incr m_consolidations;
        if journal_on then
          Obs.Journal.emit "shard.consolidated" (fun () ->
              [
                ("cluster", Bench_json.Num (float_of_int i));
                ("into", Bench_json.Num (float_of_int s));
                ("shard", Bench_json.Num (float_of_int gs.(i).g_shard));
                ( "divergence",
                  Bench_json.Num (Divergence.kl_profiles profiles.(s) profiles.(i)) );
              ])
      end
    done;
    (* --- merge models and fix up memberships. Only sequences whose
       home cluster was merged are rescored (against the merged model,
       with the global database's background); everything else passes
       through untouched. --- *)
    (* One pool task per merged component: the counts-merge, its
       cluster (compiled once), and the candidates' scores against it.
       A task reads only the shared database and its own component's
       lifted clusters, which no other task touches. *)
    let merged =
      Par.map_chunks pool ~chunks:m ~n:m (fun s ->
          match comp_members.(s) with
          | (first :: _ :: _) as comp ->
              let pst =
                List.fold_left
                  (fun acc i -> Pst.merge acc (Cluster.pst gs.(i).g_cl))
                  (Cluster.pst gs.(first).g_cl) (List.tl comp)
              in
              (* Lenient retention: a sequence stays if it clears the most
                 permissive of its component's home-shard thresholds. *)
              let log_t =
                List.fold_left (fun acc i -> Float.min acc gs.(i).g_log_t) infinity comp
              in
              let cand = Bitset.create n in
              List.iter
                (fun i -> Bitset.union_into ~dst:cand (Cluster.members gs.(i).g_cl))
                comp;
              let cl = Cluster.of_pst ~id:s ~capacity:n pst in
              let score id =
                Cluster.similarity cl ~log_background:lbg (Seq_database.get db id)
              in
              Some (cl, log_t, List.map (fun id -> (id, score id)) (Bitset.to_list cand))
          | _ -> None)
    in
    (* Memberships and [best] are applied here in component order: a
       sequence can be a candidate of several components, and [best]
       keeps the first of equal scores. *)
    let final = ref [] in
    for s = 0 to m - 1 do
      match (comp_members.(s), merged.(s)) with
      | [ i ], _ ->
          if Cluster.size gs.(i).g_cl > 0 then final := (gs.(i).g_cl, gs.(i).g_log_t) :: !final
      | _, None -> ()
      | _, Some (cl, log_t, scored) ->
          List.iter
            (fun (id, (r : Similarity.result)) ->
              Obs.Metrics.incr m_fixup_rescored;
              if r.log_sim >= log_t then Cluster.add_member cl id;
              if Float.is_finite r.log_sim then
                best.(id) <-
                  (match best.(id) with
                  | Some (b, _) when canon b = s -> Some (s, r.log_sim)
                  | Some (_, bs) when r.log_sim > bs -> Some (s, r.log_sim)
                  | other -> other))
            scored;
          if Cluster.size cl > 0 then final := (cl, log_t) :: !final
    done;
    let final = Array.of_list (List.rev !final) in
    (* Remap surviving best entries through the union-find so no entry
       points at an absorbed id; entries may keep a pre-merge score
       (best is diagnostic — invariants only require finiteness). *)
    for id = 0 to n - 1 do
      best.(id) <- Option.map (fun (b, score) -> (canon b, score)) best.(id)
    done;
    (* --- outlier rescue: a sequence can be an outlier in its shard yet
       belong to a cluster once that cluster's model has absorbed the
       other shards' counts — the shard simply never saw enough of the
       family. Sequences in no cluster after the merge are rescored
       against every final model (there are few of them, so this is a
       narrow sweep, not a re-scan) and join any cluster whose
       retention threshold they clear. --- *)
    for id = 0 to n - 1 do
      if not (Array.exists (fun (cl, _) -> Cluster.mem cl id) final) then begin
        let seq = Seq_database.get db id in
        Array.iter
          (fun (cl, log_t) ->
            Obs.Metrics.incr m_fixup_rescored;
            let r = Cluster.similarity cl ~log_background:lbg seq in
            if r.Similarity.log_sim >= log_t then Cluster.add_member cl id;
            if Float.is_finite r.Similarity.log_sim then
              best.(id) <-
                (match best.(id) with
                | Some (_, bs) when r.Similarity.log_sim > bs ->
                    Some (Cluster.id cl, r.Similarity.log_sim)
                | None -> Some (Cluster.id cl, r.Similarity.log_sim)
                | other -> other))
          final
      end
    done;
    let final_t =
      if n = 0 then config.Cluseq.t_init
      else
        Array.to_list sub_results
        |> List.mapi (fun j (r : Cluseq.result) ->
               r.Cluseq.final_t *. float_of_int (Array.length (snd live.(j))))
        |> List.fold_left ( +. ) 0.0
        |> fun sum -> sum /. float_of_int n
    in
    let iterations =
      Array.fold_left (fun acc (r : Cluseq.result) -> max acc r.Cluseq.iterations) 0 sub_results
    in
    (* Per-shard runs raced on the gauges from worker domains (benign,
       but nondeterministic): re-set the shard count and the scan gauge
       here, and let [Cluseq.finish] re-set the final-model ones, so
       exported values are deterministic. The scan gauge is over the
       shards' last-iteration censuses summed. *)
    Obs.Metrics.set g_shard_count (float_of_int k);
    let lasts =
      Array.to_list sub_results
      |> List.concat_map (fun (r : Cluseq.result) ->
             match List.rev r.history with [] -> [] | last :: _ -> [ last.Cluseq.census ])
    in
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 lasts in
    if lasts <> [] then
      Obs.Metrics.set
        (Obs.Metrics.gauge "cluseq.scan.wasted_pair_ratio")
        (Cluseq.wasted_pair_ratio
           {
             (List.hd lasts) with
             pairs_scored = sum (fun c -> c.pairs_scored);
             pairs_joined = sum (fun c -> c.pairs_joined);
           });
    Log.info (fun m ->
        m "merged %d shard clusters into %d (threshold %.3g, %d rescored)" (Array.length gs)
          (Array.length final) default_merge_divergence
          (Obs.Metrics.counter_value m_fixup_rescored));
    Cluseq.finish ~shards ~n ~best ~final_t ~iterations ~history:[]
      (Array.to_list (Array.map fst final))
  end
