type case = {
  case_seed : int;
  alphabet_size : int;
  seqs : Sequence.t array;
  probes : Sequence.t array;
  cluseq_cfg : Cluseq.config;
}

type failure = {
  f_index : int;
  f_replay_seed : int;
  f_messages : string list;
  f_case : case;
}

let gen_case ~seed =
  let rng = Rng.create seed in
  (* One symbol included: its background is log 1 = 0.0, so an empty
     tree's X_i are -0.0, the sign the kernel's reset must keep. *)
  let alphabet_size = 1 + Rng.int rng 5 in
  let max_depth = 1 + Rng.int rng 4 in
  let significance = 1 + Rng.int rng 5 in
  let p_min = [| 0.0; 1e-3; 0.01 |].(Rng.int rng 3) in
  let gen_seq max_len =
    Array.init (Rng.int rng (max_len + 1)) (fun _ -> Rng.int rng alphabet_size)
  in
  let seqs = Array.init (4 + Rng.int rng 13) (fun _ -> gen_seq 24) in
  let probes = Array.init 3 (fun _ -> gen_seq 16) in
  let order =
    match Rng.int rng 4 with 0 -> Order.Random | 1 -> Order.Cluster_based | _ -> Order.Fixed
  in
  let pruning =
    [| Pruning.Smallest_count_first; Pruning.Longest_label_first; Pruning.Expected_vector_first |]
      .(Rng.int rng 3)
  in
  let cluseq_cfg =
    {
      Cluseq.k_init = 1 + Rng.int rng 2;
      significance;
      t_init = [| 1.0; 1.05; 1.2; 2.0 |].(Rng.int rng 4);
      max_depth;
      (* Far above what these workloads can build: the differential
         oracle requires that the tree never prunes. *)
      max_nodes = 100_000;
      p_min;
      pruning;
      adjust_threshold = Rng.bool rng;
      consolidate = Rng.bool rng;
      order;
      sample_factor = 1 + Rng.int rng 4;
      max_iterations = 2 + Rng.int rng 4;
      min_residual = (if Rng.bool rng then None else Some (1 + Rng.int rng 3));
      seed;
    }
  in
  { case_seed = seed; alphabet_size; seqs; probes; cluseq_cfg }

let dedup msgs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun m ->
      if Hashtbl.mem seen m then false
      else begin
        Hashtbl.replace seen m ();
        true
      end)
    msgs

(* Every oracle over one case; [stage] names the check under way. *)
let run_checks case ~errs ~stage =
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let add_all prefix = List.iter (fun m -> err "%s: %s" prefix m) in
  let cfg = case.cluseq_cfg in
  let alphabet =
    Alphabet.of_char_range 'a' (Char.chr (Char.code 'a' + case.alphabet_size - 1))
  in
  let db = Seq_database.create alphabet case.seqs in
  let n = Seq_database.n_sequences db in
  let lbg = Seq_database.log_background db in
  (* --- 1. PST vs brute-force reference on an identical history --- *)
  stage := "pst-diff";
  let pcfg : Pst.config =
    {
      alphabet_size = case.alphabet_size;
      max_depth = cfg.max_depth;
      significance = cfg.significance;
      max_nodes = 1_000_000;
      p_min = cfg.p_min;
      pruning = cfg.pruning;
    }
  in
  let pst = Pst.create pcfg in
  let oracle = Ref_pst.create pcfg in
  Array.iter
    (fun s ->
      Pst.insert_sequence pst s;
      Ref_pst.insert_sequence oracle s)
    case.seqs;
  add_all "pst-diff" (Ref_pst.diff oracle pst);
  add_all "pst-invariants" (Check.pst_invariants pst);
  Array.iter
    (fun s ->
      for pos = 0 to Array.length s - 1 do
        let a = Pst.log_prob pst s ~lo:0 ~pos in
        let b = Ref_pst.log_prob oracle s ~lo:0 ~pos in
        if not (Float.equal a b) then
          err "log_prob at probe pos %d: tree %.17g, oracle %.17g" pos a b;
        let la = Pst.node_label pst (Pst.prediction_node pst s ~lo:0 ~pos) in
        let lb = Ref_pst.prediction_label oracle s ~lo:0 ~pos in
        if la <> lb then
          err "prediction label at probe pos %d: tree [%s], oracle [%s]" pos
            (String.concat "," (List.map string_of_int la))
            (String.concat "," (List.map string_of_int lb))
      done)
    case.probes;
  (* Pruning must preserve the structural invariants and remove the
     nodes the reference order names (on a copy, so the unpruned tree
     keeps serving the similarity checks below). *)
  let pruned = Pst.copy pst and target = max 1 (Pst.n_nodes pst / 2) in
  Pst.prune_to pruned target;
  add_all "post-prune invariants" (Check.pst_invariants pruned);
  if Pst.to_string pruned <> Ref_prune.prune (Pst.to_string pst) ~target then
    err "pruning to %d of %d nodes: the tree differs from the reference order" target
      (Pst.n_nodes pst);
  (* --- 2. Kadane scan vs O(l²) reference --- *)
  stage := "similarity";
  Array.iter
    (fun s ->
      let fast = Similarity.score pst ~log_background:lbg s in
      let brute = Similarity.score_brute pst ~log_background:lbg s in
      if not (Float.equal fast.log_sim brute.log_sim) then
        err "similarity: fast scan %.17g <> brute force %.17g" fast.log_sim brute.log_sim)
    case.probes;
  (* Compiled-automaton scan vs tree walk — exact equality, on both the
     unpruned tree and the pruned copy (pruning reshapes the active set). *)
  stage := "psa";
  add_all "psa" (Check.psa_scoring_matches pst ~log_background:lbg case.probes);
  add_all "psa-pruned" (Check.psa_scoring_matches pruned ~log_background:lbg case.probes);
  (* The block scan vs the segment loop and the tree walk (check #6): one
     automaton over a block must give every lane the bits of that
     sequence scanned alone and of the tree walk, and a symbol out of
     the alphabet in any lane must raise. Blocks of 0 to 9 lanes cover
     the scan's four slots: fewer than four lanes run one at a time;
     more reach the rounds, whose finished slots are refilled, and then
     the lanes left when the block runs dry. Lanes 1 and 5 are empty,
     so an empty lane is met by the first fill and, in blocks of six or
     more, by a refill; the others cycle through the probes, their first
     halves and the training sequences, of unequal lengths. All go
     through one shared scratch, so cross-block reuse is exercised. *)
  stage := "batch";
  let lanes =
    Array.concat
      [
        case.probes;
        Array.map (fun p -> Array.sub p 0 (Array.length p / 2)) case.probes;
        case.seqs;
      ]
  in
  let batch_blocks =
    List.init 10 (fun b ->
        Array.init b (fun j ->
            if j = 1 || j = 5 then [||] else lanes.((j + b) mod Array.length lanes)))
  in
  add_all "batch" (Check.batch_scoring_matches pst ~log_background:lbg batch_blocks);
  add_all "batch-pruned" (Check.batch_scoring_matches pruned ~log_background:lbg batch_blocks);
  (* Merge oracle (check #7): splitting the training set in two, building
     each half independently and counts-merging must reproduce the tree
     built over the whole set exactly — structure, counts, and the scores
     derived from them (the shard-and-merge contract, DESIGN.md §14).
     Holds because max_nodes is far above these workloads: no pruning. *)
  stage := "merge";
  let half = Array.length case.seqs / 2 in
  let build_half lo hi =
    let t = Pst.create pcfg in
    for i = lo to hi - 1 do
      Pst.insert_sequence t case.seqs.(i)
    done;
    t
  in
  let merged = Pst.merge (build_half 0 half) (build_half half (Array.length case.seqs)) in
  if not (Pst.equal_structure pst merged) then
    err "merge: half-and-half merged tree differs from whole-database tree";
  Array.iter
    (fun s ->
      let a = (Similarity.score pst ~log_background:lbg s).log_sim in
      let b = (Similarity.score merged ~log_background:lbg s).log_sim in
      if not (Float.equal a b) then
        err "merge: merged-tree score %.17g <> whole-tree score %.17g" b a)
    case.probes;
  (* Maintained automaton (check #8): stream random segments of the
     training sequences, twice over, into two trees, keeping one
     automaton per tree current by refresh-or-recompile the way a
     cluster does, each insertion reporting its crossings to the tree's
     buffer. The first tree's node budget forces pruning, so its
     refreshes refuse and it recompiles; the second never reaches its
     budget, so every crossing must be patched and its refresh must
     never refuse. After every insertion that pruned no significant
     node, the buffer must hold exactly the nodes the active-tree walk
     finds new; and each automaton must equal a fresh compile up to
     state numbering and score every probe exactly like the tree walk. *)
  stage := "psa-maintained";
  let live = Pst.create { pcfg with max_nodes = max 2 (Pst.n_nodes pst / 3) } in
  let growing = Pst.create pcfg in
  let maintained =
    [
      ("psa-maintained", live, ref (Psa.compile live), Pst.Crossings.create ());
      ("psa-patched", growing, ref (Psa.compile growing), Pst.Crossings.create ());
    ]
  in
  let seg_rng = Rng.create case.case_seed in
  for _ = 1 to 2 do
    Array.iter
      (fun s ->
        let l = Array.length s in
        if l > 0 then begin
          let lo = Rng.int seg_rng l in
          let hi = lo + Rng.int seg_rng (l - lo) in
          List.iter
            (fun (name, tree, psa, crossings) ->
              let before = Check.active_nodes tree and since = Pst.active_changes tree in
              Pst.insert_segment ~crossings tree s ~lo ~hi;
              if Pst.grew_only tree ~since then
                add_all name (Check.crossings_match ~before tree crossings);
              if not (Psa.refresh ~crossings !psa tree) then begin
                if tree == growing then
                  err "%s: refresh refused on a tree that never pruned" name;
                psa := Psa.compile tree
              end;
              Pst.Crossings.clear crossings;
              add_all name (Check.psa_tables_match ~fresh:(Psa.compile tree) !psa);
              add_all name
                (Check.psa_scoring_matches ~psa:!psa tree ~log_background:lbg case.probes))
            maintained
        end)
      case.seqs
  done;
  (* Divergence profiles (check #9): every pair of the trees above — the
     full tree, its pruned copy, the merge, and the budget-bound tree
     whose pruning leaves contexts to the prediction fallback — must
     measure bit for bit like the tree walk, in both orders. *)
  stage := "divergence";
  let trees = [ ("pst", pst); ("pruned", pruned); ("merged", merged); ("live", live) ] in
  List.iteri
    (fun i (na, a) ->
      List.iteri
        (fun j (nb, b) ->
          if j >= i then add_all ("divergence " ^ na ^ "/" ^ nb) (Check.divergence_matches a b))
        trees)
    trees;
  (* Tails against slots (check #10): a tree built from random segments
     under a node budget small enough to prune keeps chains of contexts
     seen alike as tails, while its reload from the serialization holds
     every node as a slot. Fed the same segments, and merged both ways
     with a third tree, the two must stay one tree: the same
     serialization, the same node count and the same moves of
     [active_changes]. The significance is at least 2, where tails
     exist. *)
  stage := "tails";
  let nonempty = Array.of_list (List.filter (fun s -> s <> [||]) (Array.to_list case.seqs)) in
  if nonempty <> [||] then begin
    let tcfg =
      {
        pcfg with
        significance = max 2 cfg.significance;
        max_nodes = max 2 (Pst.n_nodes pst / 3);
      }
    in
    let rng = Rng.create case.case_seed in
    (* Each segment twice: the second insertion retraces the tails the
       first one hung, or splits them where that would reach
       significance. *)
    let segments k =
      List.init k (fun _ ->
          let s = Rng.pick rng nonempty in
          let lo = Rng.int rng (Array.length s) in
          (s, lo, lo + Rng.int rng (Array.length s - lo)))
      |> List.concat_map (fun seg -> [ seg; seg ])
    in
    let insert t (s, lo, hi) = Pst.insert_segment t s ~lo ~hi in
    let build segs =
      let t = Pst.create tcfg in
      List.iter (insert t) segs;
      t
    in
    let agree what (t, t0) (r, r0) =
      if Pst.to_string t <> Pst.to_string r then
        err "tails: %s: the tree and its reload serialize differently" what;
      if Pst.n_nodes t <> Pst.n_nodes r then
        err "tails: %s: %d nodes with tails, %d as slots" what (Pst.n_nodes t) (Pst.n_nodes r);
      let dt = Pst.active_changes t - t0 and dr = Pst.active_changes r - r0 in
      if dt <> dr then err "tails: %s: active_changes moved %d with tails, %d as slots" what dt dr
    in
    let feed what t r segs =
      List.iter
        (fun seg ->
          let t0 = Pst.active_changes t and r0 = Pst.active_changes r in
          insert t seg;
          insert r seg;
          agree what (t, t0) (r, r0))
        segs
    in
    let tree = build (segments 8) in
    let reload = Pst.of_string (Pst.to_string tree) in
    agree "reload" (tree, Pst.active_changes tree) (reload, 0);
    feed "insertion" tree reload (segments 8);
    add_all "tails: invariants" (Check.pst_invariants tree);
    let x = build (segments 8) in
    (* A merge's counter is its first argument's until it prunes. *)
    List.iter
      (fun (what, (mt, t0), (mr, r0)) ->
        agree what (mt, t0) (mr, r0);
        feed (what ^ ", then insertion") mt mr (segments 4))
      [
        ( "merge into",
          (Pst.merge tree x, Pst.active_changes tree),
          (Pst.merge reload x, Pst.active_changes reload) );
        ( "merge from",
          (Pst.merge x tree, Pst.active_changes x),
          (Pst.merge x reload, Pst.active_changes x) );
      ]
  end;
  (* --- 3. audited clustering at 1 vs 4 domains --- *)
  stage := "audited clustering";
  let saved = Par.default_domains () in
  (* Metrics on, so the [pst.nodes_pruned] counter below counts. *)
  let metrics_were_on = Obs.Metrics.is_enabled () in
  Obs.Metrics.enable ();
  Fun.protect ~finally:(fun () ->
      Check.uninstall_auditor ();
      Par.set_default_domains saved;
      if not metrics_were_on then Obs.Metrics.disable ())
  @@ fun () ->
  Check.install_auditor ();
  let nodes_pruned = Obs.Metrics.counter "pst.nodes_pruned" in
  (* One configuration at 1 and at 4 domains: the auditor replays every
     pass, and the two runs must agree on everything. Returns the
     1-domain result and the PST nodes pruning removed in it. *)
  let audited_pair ~label cfg =
    let prefix = if label = "" then "" else label ^ ": " in
    let run_at d =
      Par.set_default_domains d;
      let before = Obs.Metrics.counter_value nodes_pruned in
      let r = try Ok (Cluseq.run ~config:cfg db) with Check.Violation msgs -> Error msgs in
      (r, Obs.Metrics.counter_value nodes_pruned - before)
    in
    let r1, p1 = run_at 1 in
    let r4, p4 = run_at 4 in
    match (r1, r4) with
    | Error msgs, _ ->
        add_all (prefix ^ "auditor@1") msgs;
        None
    | _, Error msgs ->
        add_all (prefix ^ "auditor@4") msgs;
        None
    | Ok r1, Ok r4 ->
        add_all (prefix ^ "result") (Check.result_invariants ~n r1);
        let err fmt = Printf.ksprintf (fun m -> err "%s%s" prefix m) fmt in
        if r1.clusters <> r4.clusters then err "clusters differ between 1 and 4 domains";
        if r1.assignments <> r4.assignments then
          err "assignments differ between 1 and 4 domains";
        if r1.best <> r4.best then err "best scores differ between 1 and 4 domains";
        if r1.outliers <> r4.outliers then err "outliers differ between 1 and 4 domains";
        if r1.final_t <> r4.final_t then
          err "final_t %.17g (1 domain) <> %.17g (4 domains)" r1.final_t r4.final_t;
        if r1.iterations <> r4.iterations then
          err "iterations %d (1 domain) <> %d (4 domains)" r1.iterations r4.iterations;
        (* Census and drift included: every field is deterministic. *)
        if r1.history <> r4.history then
          err "iteration history differs between 1 and 4 domains";
        if Array.map fst r1.models <> Array.map fst r4.models then
          err "model ids differ between 1 and 4 domains"
        else
          Array.iteri
            (fun i (id, m1) ->
              if not (Pst.equal_structure m1 (snd r4.models.(i))) then
                err "model %d structure differs between 1 and 4 domains" id)
            r1.models;
        Array.iter
          (fun (id, m) ->
            let m' = Pst.of_string (Pst.to_string m) in
            if not (Pst.equal_structure m m') then
              err "model %d changes across a serialization round-trip" id)
          r1.models;
        if p1 <> p4 then err "PST nodes pruned: %d (1 domain) <> %d (4 domains)" p1 p4;
        Some (r1, p1)
  in
  (match audited_pair ~label:"" cfg with
  | None -> ()
  | Some (r1, _) ->
      (* The same case under a node budget half its largest unpruned
         model: that model's tree must outgrow the budget on the way
         (everything else is equal until the first prune), so PST
         pruning provably runs inside absorbs on the apply tasks. *)
      let biggest = Array.fold_left (fun acc (_, m) -> max acc (Pst.n_nodes m)) 0 r1.models in
      if biggest > 1 then begin
        match
          audited_pair ~label:"pruned" { cfg with max_nodes = max 1 (biggest / 2) }
        with
        | Some (_, pruned) when pruned = 0 -> err "pruned: no PST node was pruned"
        | _ -> ()
      end;
      (* --- 4. classification at 1 vs 4 domains --- *)
      stage := "classify";
      if r1.n_clusters > 0 && Array.length case.probes > 0 then begin
        let probes_db = Seq_database.create alphabet case.probes in
        let clf = Classifier.of_result r1 db in
        Par.set_default_domains 1;
        let v1 = Classifier.classify_all clf probes_db in
        Par.set_default_domains 4;
        let v4 = Classifier.classify_all clf probes_db in
        if v1 <> v4 then err "classifier verdicts differ between 1 and 4 domains";
        Array.iteri
          (fun i v ->
            if Classifier.classify clf (Seq_database.get probes_db i) <> v then
              err "classify and classify_all disagree on probe %d" i)
          v1
      end);
  (* --- 5. score-column cache on vs off --- *)
  (* The auditor is still installed, so both runs are replayed pass by
     pass as well; a {!Check.Violation} there is reported like the
     audited runs' above. *)
  stage := "cache";
  Par.set_default_domains 1;
  match Check.cache_agrees ~config:cfg db with
  | msgs -> add_all "cache" msgs
  | exception Check.Violation msgs -> add_all "cache auditor" msgs

(* An exception is its check's failure, so the sweep still shrinks the
   case and prints a replay seed. *)
let run_case case =
  let errs = ref [] and stage = ref "setup" in
  (try run_checks case ~errs ~stage with
  | (Out_of_memory | Sys.Break) as e -> raise e
  | e -> errs := Printf.sprintf "%s: raised %s" !stage (Printexc.to_string e) :: !errs);
  dedup (List.rev !errs)

let drop_at arr i =
  Array.append (Array.sub arr 0 i) (Array.sub arr (i + 1) (Array.length arr - i - 1))

let shrink case ~still_fails =
  let budget = ref 60 in
  let try_case c =
    if !budget <= 0 then false
    else begin
      decr budget;
      still_fails c
    end
  in
  let current = ref case in
  let improved = ref true in
  while !improved do
    improved := false;
    (* Pass 1: drop whole sequences. *)
    let i = ref 0 in
    while !i < Array.length !current.seqs && Array.length !current.seqs > 1 do
      let cand = { !current with seqs = drop_at !current.seqs !i } in
      if try_case cand then begin
        current := cand;
        improved := true
        (* same index now holds the next sequence *)
      end
      else incr i
    done;
    (* Pass 2: halve the surviving sequences. *)
    for i = 0 to Array.length !current.seqs - 1 do
      let s = !current.seqs.(i) in
      if Array.length s > 0 then begin
        let cand_seqs = Array.copy !current.seqs in
        cand_seqs.(i) <- Array.sub s 0 (Array.length s / 2);
        let cand = { !current with seqs = cand_seqs } in
        if try_case cand then begin
          current := cand;
          improved := true
        end
      end
    done
  done;
  !current

let run ?(progress = ignore) ~n ~seed () =
  let rec go i =
    if i >= n then Ok n
    else begin
      let case = gen_case ~seed:(seed + i) in
      match run_case case with
      | [] ->
          progress i;
          go (i + 1)
      | msgs ->
          let minimized = shrink case ~still_fails:(fun c -> run_case c <> []) in
          (* Report the minimized case's messages when it still fails
             (it must, but be defensive about a flaky shrink). *)
          let messages = match run_case minimized with [] -> msgs | m -> m in
          Error { f_index = i; f_replay_seed = seed + i; f_messages = messages; f_case = minimized }
    end
  in
  go 0

let decode s = String.init (Array.length s) (fun i -> Char.chr (Char.code 'a' + s.(i)))

let pp_failure fmt f =
  let case = f.f_case in
  Format.fprintf fmt "@[<v>fuzz case #%d (seed %d) failed:@," f.f_index f.f_replay_seed;
  let total = List.length f.f_messages in
  List.iteri
    (fun i m -> if i < 12 then Format.fprintf fmt "  - %s@," m)
    f.f_messages;
  if total > 12 then Format.fprintf fmt "  … and %d more@," (total - 12);
  Format.fprintf fmt "minimized workload (alphabet size %d, %d sequences):@," case.alphabet_size
    (Array.length case.seqs);
  Array.iter (fun s -> Format.fprintf fmt "  %S@," (decode s)) case.seqs;
  Format.fprintf fmt "replay: cluseq check --fuzz 1 --seed %d@]" f.f_replay_seed
