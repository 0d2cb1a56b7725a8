exception Violation of string list

let () =
  Printexc.register_printer (function
    | Violation msgs ->
        Some (Printf.sprintf "Check.Violation [%s]" (String.concat "; " msgs))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* PST invariants                                                      *)
(* ------------------------------------------------------------------ *)

(* Every checker accumulates messages into a list ref so the caller gets
   all violations at once, not just the first. *)

let pst_invariants pst =
  let cfg = Pst.config pst in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let n = cfg.alphabet_size in
  let traversed = ref 0 in
  let rec walk node =
    incr traversed;
    let count = Pst.node_count pst node and depth = Pst.node_depth pst node in
    let where = Printf.sprintf "depth-%d node (count %d)" depth count in
    if count < 0 then err "%s: negative count" where;
    if depth > cfg.max_depth then err "%s: exceeds max_depth %d" where cfg.max_depth;
    let nt = Pst.next_total pst node in
    let sum_next = ref 0 in
    for sym = 0 to n - 1 do
      let c = Pst.next_count pst node sym in
      if c < 0 then err "%s: negative next counter for symbol %d" where sym;
      sum_next := !sum_next + c
    done;
    if nt <> !sum_next then err "%s: next_total %d <> counter sum %d" where nt !sum_next;
    if nt > count then err "%s: next_total %d exceeds count %d" where nt count;
    let dist = Pst.next_distribution pst node in
    let sum = Array.fold_left ( +. ) 0.0 dist in
    if Float.abs (sum -. 1.0) > 1e-9 then err "%s: distribution sums to %.17g" where sum;
    if nt = 0 then begin
      let uniform = 1.0 /. float_of_int n in
      Array.iteri
        (fun sym p ->
          if Float.abs (p -. uniform) > 1e-12 then
            err "%s: no observations but P(%d) = %.17g, expected uniform %.17g" where sym p
              uniform)
        dist
    end
    else if cfg.p_min > 0.0 then begin
      (* Smoothing bounds: raw in [0,1] maps to [p_min, 1-(n-1)p_min]. *)
      let lo = cfg.p_min -. 1e-12 in
      let hi = 1.0 -. (float_of_int (n - 1) *. cfg.p_min) +. 1e-12 in
      Array.iteri
        (fun sym p ->
          if p < lo || p > hi then
            err "%s: P(%d) = %.17g outside smoothed range [%.17g, %.17g]" where sym p lo hi)
        dist
    end;
    let child_sum = ref 0 in
    let prev_sym = ref (-1) in
    Pst.iter_children pst node (fun sym child ->
        if sym <= !prev_sym then err "%s: child symbols not strictly increasing" where;
        prev_sym := sym;
        if sym < 0 || sym >= n then err "%s: edge symbol %d outside alphabet" where sym;
        let child_depth = Pst.node_depth pst child and child_count = Pst.node_count pst child in
        if child_depth <> depth + 1 then
          err "%s: child at depth %d, expected %d" where child_depth (depth + 1);
        if child_count > count then
          err "%s: child count %d exceeds parent count %d" where child_count count;
        child_sum := !child_sum + child_count;
        walk child);
    if !child_sum > count then
      err "%s: children counts sum to %d, more than the parent's %d" where !child_sum count
  in
  walk (Pst.root pst);
  if !traversed <> Pst.n_nodes pst then
    err "n_nodes says %d but traversal found %d" (Pst.n_nodes pst) !traversed;
  if Pst.n_nodes pst > cfg.max_nodes then
    err "node budget violated: %d nodes > max_nodes %d" (Pst.n_nodes pst) cfg.max_nodes;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Clustering result invariants                                        *)
(* ------------------------------------------------------------------ *)

let result_invariants ~n (r : Cluseq.result) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if r.n_clusters <> Array.length r.clusters then
    err "n_clusters %d <> clusters array length %d" r.n_clusters (Array.length r.clusters);
  if Array.length r.assignments <> n then
    err "assignments length %d <> n %d" (Array.length r.assignments) n;
  let ids = Hashtbl.create 16 in
  Array.iter
    (fun (id, members) ->
      if Hashtbl.mem ids id then err "duplicate cluster id %d" id;
      Hashtbl.replace ids id (Bitset.of_list n (Array.to_list members));
      let prev = ref (-1) in
      Array.iter
        (fun m ->
          if m < 0 || m >= n then err "cluster %d: member %d out of range" id m
          else begin
            if m <= !prev then err "cluster %d: members not sorted strictly increasing" id;
            prev := m;
            if not (List.mem id r.assignments.(m)) then
              err "cluster %d lists member %d but %d's assignments omit it" id m m
          end)
        members)
    r.clusters;
  Array.iteri
    (fun sid l ->
      let seen = Hashtbl.create 4 in
      List.iter
        (fun id ->
          if Hashtbl.mem seen id then err "sequence %d assigned to cluster %d twice" sid id;
          Hashtbl.replace seen id ();
          match Hashtbl.find_opt ids id with
          | None -> err "sequence %d assigned to unknown/dismissed cluster %d" sid id
          | Some members ->
              if not (Bitset.mem members sid) then
                err "sequence %d assigned to cluster %d but not in its member list" sid id)
        l)
    r.assignments;
  let expected_outliers =
    List.filter (fun i -> r.assignments.(i) = []) (List.init n Fun.id)
  in
  if r.outliers <> expected_outliers then
    err "outliers list (%d entries) is not exactly the unassigned sequences (%d)"
      (List.length r.outliers)
      (List.length expected_outliers);
  Array.iteri
    (fun sid b ->
      match b with
      | Some (_, s) when not (Float.is_finite s) ->
          err "sequence %d: best score %.17g is not finite" sid s
      | _ -> ())
    r.best;
  let id_of (id, _) = id in
  let cluster_ids = Array.map id_of r.clusters in
  if Array.map id_of r.models <> cluster_ids then err "models ids do not match cluster ids";
  if Array.map id_of r.pst_stats <> cluster_ids then
    err "pst_stats ids do not match cluster ids";
  Array.iter
    (fun (id, model) ->
      List.iter (err "model %d: %s" id) (pst_invariants model))
    r.models;
  List.rev !errs

let cluster_invariants clusters ~assignments =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let n = Array.length assignments in
  let ids = Hashtbl.create 16 in
  List.iter
    (fun cl ->
      let id = Cluster.id cl in
      if Hashtbl.mem ids id then err "duplicate live cluster id %d" id;
      Hashtbl.replace ids id (Cluster.members cl);
      let members = Cluster.members cl in
      if Bitset.capacity members <> n then
        err "cluster %d: bitset capacity %d <> database size %d" id (Bitset.capacity members) n
      else
        Bitset.iter
          (fun sid ->
            if not (List.mem id assignments.(sid)) then
              err "cluster %d holds member %d missing from its assignments" id sid)
          members;
      List.iter (err "cluster %d PST: %s" id) (pst_invariants (Cluster.pst cl)))
    clusters;
  Array.iteri
    (fun sid l ->
      List.iter
        (fun id ->
          match Hashtbl.find_opt ids id with
          | None -> err "sequence %d still assigned to dismissed cluster %d" sid id
          | Some members ->
              if not (Bitset.mem members sid) then
                err "sequence %d assigned to cluster %d without bitset membership" sid id)
        l)
    assignments;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Exact equality                                                      *)
(* ------------------------------------------------------------------ *)

(* [Float.equal] and [=] take -0.0 for +0.0, and -0.0 is a real score
   (an empty tree over one symbol emits -0.0), so the exact oracles
   compare bits. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_result (a : Similarity.result) (b : Similarity.result) =
  same_bits a.log_sim b.log_sim && a.seg_lo = b.seg_lo && a.seg_hi = b.seg_hi

(* ------------------------------------------------------------------ *)
(* Reclustering replay oracle                                          *)
(* ------------------------------------------------------------------ *)

(* Filler for the replay's deciding-score matrix; the examination order
   visits every sequence, so the replay overwrites every slot. *)
let unscored : Similarity.result = { log_sim = Float.nan; seg_lo = -1; seg_hi = -1 }

let reference_recluster (snap : Cluseq.recluster_snapshot) =
  let db = snap.snap_db in
  let n = Seq_database.n_sequences db in
  let lbg = Seq_database.log_background db in
  let k = Array.length snap.snap_before in
  (* Private model copies: the replay mutates them exactly as the engine
     mutates the live clusters, so scoring "the current model" below is
     always against the same counts the engine saw. *)
  let psts = Array.map (fun (_, pst, _) -> Pst.copy pst) snap.snap_before in
  let members = Array.init k (fun _ -> Bitset.create n) in
  let assignments = Array.make n [] in
  let decided = Array.init k (fun _ -> Array.make n unscored) in
  Array.iter
    (fun sid ->
      let s = Seq_database.get db sid in
      Array.iteri
        (fun ci (id, _, before) ->
          let r = Similarity.score psts.(ci) ~log_background:lbg s in
          decided.(ci).(sid) <- r;
          if r.log_sim >= snap.snap_log_t then begin
            Bitset.add members.(ci) sid;
            (* Only a fresh joiner's best segment feeds the model; a
               returning member must not inflate the counts. *)
            if not (Bitset.mem before sid) then
              Pst.insert_segment psts.(ci) s ~lo:r.seg_lo ~hi:r.seg_hi;
            assignments.(sid) <- id :: assignments.(sid)
          end)
        snap.snap_before)
    snap.snap_order;
  Array.iteri (fun i l -> assignments.(i) <- List.rev l) assignments;
  (Array.mapi (fun ci (id, _, _) -> (id, members.(ci))) snap.snap_before, assignments, decided)

(* Deciding-score mismatches reported per pass before the rest is only
   counted: one wrong row in an automaton shifts many scores at once. *)
let max_score_reports = 10

let recluster_matches (snap : Cluseq.recluster_snapshot) ~after ~assignments ~decided =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let ref_after, ref_assignments, ref_decided = reference_recluster snap in
  if Array.length after <> Array.length ref_after then
    err "engine reports %d clusters, replay %d" (Array.length after) (Array.length ref_after)
  else
    Array.iteri
      (fun ci (id, members) ->
        let rid, rmembers = ref_after.(ci) in
        if id <> rid then err "cluster #%d: engine id %d, replay id %d" ci id rid
        else if not (Bitset.equal members rmembers) then
          err "cluster %d: engine members {%s} but serial replay says {%s}" id
            (String.concat "," (List.map string_of_int (Bitset.to_list members)))
            (String.concat "," (List.map string_of_int (Bitset.to_list rmembers))))
      after;
  if Array.length assignments <> Array.length ref_assignments then
    err "engine reports %d assignment rows, replay %d" (Array.length assignments)
      (Array.length ref_assignments)
  else
    Array.iteri
      (fun sid l ->
        let rl = ref_assignments.(sid) in
        if l <> rl then
          err "sequence %d: engine assignments [%s] but serial replay says [%s]" sid
            (String.concat ";" (List.map string_of_int l))
            (String.concat ";" (List.map string_of_int rl)))
      assignments;
  (* The deciding scores themselves: a score that moved without
     flipping a join still moves [best] and the threshold samples. *)
  let same_shape =
    Array.length decided = Array.length ref_decided
    && Array.for_all2 (fun a b -> Array.length a = Array.length b) decided ref_decided
  in
  if not same_shape then err "engine reports a deciding-score matrix of another shape"
  else begin
    let mismatches = ref 0 in
    Array.iteri
      (fun ci column ->
        Array.iteri
          (fun sid (r : Similarity.result) ->
            let w = ref_decided.(ci).(sid) in
            if not (same_result r w) then begin
              incr mismatches;
              if !mismatches <= max_score_reports then
                let id, _, _ = snap.snap_before.(ci) in
                err "cluster %d, sequence %d: engine decided on %.17g [%d,%d], serial replay on \
                     %.17g [%d,%d]"
                  id sid r.log_sim r.seg_lo r.seg_hi w.log_sim w.seg_lo w.seg_hi
            end)
          column)
      decided;
    if !mismatches > max_score_reports then
      err "… and %d more deciding scores differ" (!mismatches - max_score_reports)
  end;
  List.rev !errs

(* Compiled-vs-tree scoring oracle: the automaton must be a pure
   representation change, so every float it produces — per-position X_i
   profile, final log-similarity, and the maximizing segment bounds —
   must equal the tree walk's exactly. *)
let psa_scoring_matches ?psa pst ~log_background probes =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let psa = match psa with Some psa -> psa | None -> Psa.compile pst in
  Array.iteri
    (fun pi s ->
      let xt = Similarity.xs pst ~log_background s in
      let xc = Similarity.xs_psa psa ~log_background s in
      Array.iteri
        (fun i a ->
          if not (same_bits a xc.(i)) then
            err "probe %d pos %d: tree X_i %.17g, compiled %.17g" pi i a xc.(i))
        xt;
      (* The prediction state must track the prediction node depth-wise:
         a transition bug can keep X_i equal by luck on one tree but not
         land on the same context. *)
      let state = ref 0 in
      Array.iteri
        (fun pos sym ->
          let want = Pst.node_depth pst (Pst.prediction_node pst s ~lo:0 ~pos) in
          let got = Psa.prediction_depth psa !state in
          if want <> got then
            err "probe %d pos %d: prediction depth %d, automaton state depth %d" pi pos want got;
          state := Psa.step psa !state sym)
        s;
      let rt = Similarity.score pst ~log_background s in
      let rc = Similarity.score_psa psa ~log_background s in
      if not (same_result rt rc) then
        err "probe %d: tree score %.17g [%d,%d], compiled %.17g [%d,%d]" pi rt.log_sim
          rt.seg_lo rt.seg_hi rc.log_sim rc.seg_lo rc.seg_hi)
    probes;
  List.rev !errs

(* An automaton kept current by refresh, patch or recompile against a
   fresh compile of the same tree. A patch numbers its new states in the
   order they were added, a compile in trie order, so the two are
   compared up to renumbering: both are walked from state 0 at once,
   pairing the states reached by the same symbols. The pairing must be
   a bijection that every transition respects and that reaches every
   state, and paired states must predict at the same depth with the
   same emission bits. *)
let psa_tables_match ~fresh psa =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let ns = Psa.n_states psa and n = Psa.alphabet_size psa in
  if ns <> Psa.n_states fresh || n <> Psa.alphabet_size fresh then
    err "maintained automaton has %d states over %d symbols, fresh compile %d over %d" ns n
      (Psa.n_states fresh) (Psa.alphabet_size fresh)
  else begin
    let to_fresh = Array.make ns (-1) and of_fresh = Array.make ns (-1) in
    let q = Queue.create () in
    let pair u f =
      to_fresh.(u) <- f;
      of_fresh.(f) <- u;
      Queue.add u q;
      if Psa.prediction_depth psa u <> Psa.prediction_depth fresh f then
        err "state %d (fresh %d): prediction depth %d, fresh compile %d" u f
          (Psa.prediction_depth psa u) (Psa.prediction_depth fresh f);
      for a = 0 to n - 1 do
        let e = Psa.emission psa u a and e' = Psa.emission fresh f a in
        if not (same_bits e e') then
          err "state %d (fresh %d) symbol %d: emission %.17g, fresh compile %.17g" u f a e e'
      done
    in
    pair 0 0;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let f = to_fresh.(u) in
      for a = 0 to n - 1 do
        let v = Psa.step psa u a and g = Psa.step fresh f a in
        if to_fresh.(v) < 0 && of_fresh.(g) < 0 then pair v g
        else if to_fresh.(v) <> g then
          err "state %d (fresh %d) symbol %d: transition to %d (fresh %d), paired with %d (%d)"
            u f a v g to_fresh.(v) of_fresh.(g)
      done
    done;
    Array.iteri (fun u f -> if f < 0 then err "state %d is unreachable from state 0" u) to_fresh
  end;
  List.rev !errs

(* The reference for the crossings an insertion reports: a walk of the
   active part of the tree (the root and every node whose whole root
   path is significant), the walk [Psa.refresh]'s patch made to find
   new contexts before insertions reported them. Ids, root first in
   preorder. *)
let active_nodes pst =
  let sigma = (Pst.config pst).Pst.significance in
  let acc = ref [] in
  let rec walk (nd : Pst.node) =
    acc := (nd :> int) :: !acc;
    Pst.iter_children pst nd (fun _ c -> if Pst.node_count pst c >= sigma then walk c)
  in
  walk (Pst.root pst);
  List.rev !acc

(* Reported crossings against the walk: as sets of ids, the buffer must
   be the active nodes now less those [before], with no id twice. An id
   keeps naming its node only while no significant node is pruned, so
   the comparison holds only then. *)
let crossings_match ~before pst crossings =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let set ids =
    let h = Hashtbl.create 64 in
    List.iter (fun nd -> Hashtbl.replace h nd ()) ids;
    h
  in
  let reported =
    List.init (Pst.Crossings.length crossings) (fun i -> (Pst.Crossings.get crossings i :> int))
  in
  let old = set before and seen = set reported in
  if Hashtbl.length seen <> List.length reported then
    err "a crossing is reported twice: [%s]" (String.concat "; " (List.map string_of_int reported));
  let fresh = List.filter (fun nd -> not (Hashtbl.mem old nd)) (active_nodes pst) in
  List.iter
    (fun nd ->
      if not (Hashtbl.mem seen nd) then err "node %d turned active but was not reported" nd)
    fresh;
  let fresh = set fresh in
  List.iter
    (fun nd ->
      if not (Hashtbl.mem fresh nd) then
        err "node %d was reported but %s" nd
          (if nd >= Pst.node_id_bound pst then "is not a slot"
           else if Hashtbl.mem old nd then "was active before"
           else "is not active"))
    (List.sort_uniq Int.compare reported);
  List.rev !errs

(* Batched scoring oracle: [Psa.score_into] runs the lanes of a block
   two at a time through one loop and writes them at an offset of
   columns the caller owns, so what can silently go wrong is a lane
   leaking into another (starting from the previous lane's
   accumulators, or stopped with its shorter partner), a longer lane's
   tail or an odd last lane left unscanned, a write outside the block's
   cells, or a symbol check that one lane of a pair skips.
   Each block is scored through one reused scratch and into a column at
   an offset, between cells holding a sentinel. Both must agree exactly
   — float bits and segment bounds — with each sequence scored as its
   own one-lane block ([Similarity.score_psa]), including on empty
   sequences and after the scratch has been resized by a previous,
   larger block; the sentinels must survive. Every side runs the same
   loop, so every lane must also equal the tree walk
   ([Similarity.score]), which shares no code with it. Then each lane's
   last symbol in turn becomes -1 and the alphabet size: the block must
   raise. *)
let batch_scoring_matches pst ~log_background blocks =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let psa = Psa.compile pst in
  (* One scratch across all blocks, deliberately starting tiny: block
     boundaries must fully reset every reused column. *)
  let batch = Psa.batch_create ~capacity:1 () in
  let sentinel : Similarity.result = { log_sim = Float.nan; seg_lo = -2; seg_hi = -2 } in
  let at = 3 in
  List.iteri
    (fun bi block ->
      let lanes = Array.length block in
      let batched = Similarity.score_batch psa ~log_background ~batch block in
      let column = Similarity.column (at + lanes + 2) in
      Array.fill column.log_sims 0 (at + lanes + 2) sentinel.log_sim;
      Array.fill column.seg_los 0 (at + lanes + 2) sentinel.seg_lo;
      Array.fill column.seg_his 0 (at + lanes + 2) sentinel.seg_hi;
      Similarity.score_block psa ~log_background column ~at block;
      for i = 0 to at + lanes + 1 do
        if (i < at || i >= at + lanes) && not (same_result (Similarity.cell column i) sentinel)
        then err "block %d: cell %d, outside the block's [%d, %d), was written" bi i at (at + lanes)
      done;
      Array.iteri
        (fun j s ->
          let b = batched.(j) in
          List.iter
            (fun (name, (r : Similarity.result)) ->
              if not (same_result r b) then
                err "block %d lane %d (len %d): %s %.17g [%d,%d], batched %.17g [%d,%d]" bi j
                  (Array.length s) name r.log_sim r.seg_lo r.seg_hi b.log_sim b.seg_lo b.seg_hi)
            [
              ("at an offset", Similarity.cell column (at + j));
              ("serial", Similarity.score_psa psa ~log_background s);
              ("tree walk", Similarity.score pst ~log_background s);
            ])
        block;
      Array.iteri
        (fun j s ->
          let l = Array.length s in
          if l > 0 then
            List.iter
              (fun bad ->
                let corrupt = Array.copy block in
                corrupt.(j) <- Array.copy s;
                corrupt.(j).(l - 1) <- bad;
                match Similarity.score_block psa ~log_background column ~at corrupt with
                | () -> err "block %d lane %d: symbol %d at %d did not raise" bi j bad (l - 1)
                | exception Invalid_argument _ -> ())
              [ -1; Psa.alphabet_size psa ])
        block)
    blocks;
  List.rev !errs

(* Profile-vs-tree-walk divergence oracle: a pair of profiles must
   reproduce the tree walk's value to the last bit — the same context
   union, summed in the same order, over the same distributions — in
   both argument orders, which sum differently. *)
let divergence_matches a b =
  let errs = ref [] in
  let pa = Divergence.profile a and pb = Divergence.profile b in
  let compare name fast reference =
    if not (same_bits fast reference) then
      errs := Printf.sprintf "%s: profiles %.17g, tree walk %.17g" name fast reference :: !errs
  in
  List.iter
    (fun (order, x, y, px, py) ->
      compare ("variational " ^ order) (Divergence.variational_profiles px py)
        (Ref_divergence.variational x y);
      compare ("kl " ^ order) (Divergence.kl_profiles px py) (Ref_divergence.kl_symmetric x y))
    [ ("a,b", a, b, pa, pb); ("b,a", b, a, pb, pa) ];
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Score-column cache oracle                                           *)
(* ------------------------------------------------------------------ *)

(* The cache only substitutes a clean cluster's previous column for a
   fresh evaluation of the same pairs, so a run with it must equal the
   uncached run in everything but where each matrix entry came from:
   the same results and, iteration by iteration, the same census once
   reused pairs count as scored. [score_calls] counts fresh evaluations
   only, so it is left out. *)
let cache_agrees ?config db =
  let enabled0 = Cluster.cache_enabled () in
  let run_with on =
    Cluster.set_cache_enabled on;
    Cluseq.run ?config db
  in
  let off, on =
    Fun.protect
      ~finally:(fun () -> Cluster.set_cache_enabled enabled0)
      (fun () ->
        let off = run_with false in
        (off, run_with true))
  in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if on.clusters <> off.clusters then err "clusters differ with the cache on";
  if on.assignments <> off.assignments then err "assignments differ with the cache on";
  if on.best <> off.best then err "best scores differ with the cache on";
  if on.iterations <> off.iterations then
    err "iterations: %d with the cache on, %d without" on.iterations off.iterations;
  if not (Float.equal on.final_t off.final_t) then
    err "final_t: %.17g with the cache on, %.17g without" on.final_t off.final_t;
  let census (st : Cluseq.iteration_stats) =
    let c = st.census in
    (c.pairs_scored + c.pairs_reused, c.pairs_joined, c.dirty_rescores, c.assignments_changed)
  in
  List.iteri
    (fun i st ->
      match List.nth_opt off.history i with
      | Some st' when census st <> census st' ->
          let s, j, d, c = census st and s', j', d', c' = census st' in
          err
            "iteration %d census (scored+reused, joined, rescores, changed): (%d, %d, %d, %d) \
             with the cache on, (%d, %d, %d, %d) without"
            (i + 1) s j d c s' j' d' c'
      | _ -> ())
    on.history;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Auditor wiring                                                      *)
(* ------------------------------------------------------------------ *)

let raise_if ctx = function
  | [] -> ()
  | errs -> raise (Violation (List.map (fun e -> ctx ^ ": " ^ e) errs))

let auditor () : Cluseq.auditor =
  {
    on_recluster =
      (fun snap ~after ~assignments ~decided ->
        raise_if "recluster" (recluster_matches snap ~after ~assignments ~decided));
    on_iteration =
      (fun ~iteration ~clusters ~assignments ->
        raise_if
          (Printf.sprintf "iteration %d" iteration)
          (cluster_invariants clusters ~assignments));
  }

let install_auditor () = Cluseq.set_auditor (Some (auditor ()))
let uninstall_auditor () = Cluseq.set_auditor None
