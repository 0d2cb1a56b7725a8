(* Unit tests for the smaller core modules: Cluster (and its score-column
   cache), Threshold, Order. *)

let alpha = Alphabet.lowercase

let pst_cfg : Pst.config =
  { (Pst.default_config ~alphabet_size:26) with significance = 2; p_min = 0.0 }

(* [Cluster.absorb] inserts the best segment its own scan finds. Where
   a test means to grow a tree by whole sequences, its clusters use
   [whole_cfg], under which no symbol has probability zero, and absorb
   under [whole_lbg], a background so low that every symbol argues for
   the cluster (each X_i > 0): the best segment is then the whole
   sequence. *)
let whole_cfg = { pst_cfg with p_min = 1e-3 }
let whole_lbg = Array.make 26 (-1000.0)
let absorb_whole cl s = Cluster.absorb cl ~log_background:whole_lbg s

(* --- Cluster --------------------------------------------------------- *)

let test_cluster_create () =
  let seed = Sequence.of_string alpha "ababab" in
  let cl = Cluster.create ~id:7 ~capacity:10 pst_cfg [| seed |] in
  Alcotest.(check int) "id" 7 (Cluster.id cl);
  Alcotest.(check int) "no members yet" 0 (Cluster.size cl);
  Alcotest.(check int) "PST holds the seed" 6 (Pst.total_count (Cluster.pst cl))

let test_cluster_create_from_many () =
  (* A cluster built from several sequences holds exactly the tree their
     whole insertions in order build, and scores like its tree walk. *)
  let seqs = Array.map (Sequence.of_string alpha) [| "abcabcab"; "bcbcbc"; "cabbac" |] in
  let cl = Cluster.create ~id:0 ~capacity:0 pst_cfg seqs in
  let tree = Pst.create pst_cfg in
  Array.iter (Pst.insert_sequence tree) seqs;
  Alcotest.(check bool) "same tree" true (Pst.equal_structure tree (Cluster.pst cl));
  let lbg = Array.make 26 (log (1.0 /. 26.0)) in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "automaton = tree walk" true
        (Check.same_bits
           (Cluster.log_similarity cl ~log_background:lbg p)
           (Similarity.score tree ~log_background:lbg p).log_sim))
    (Array.append seqs [| Sequence.of_string alpha "abcbcab"; [||] |])

let test_cluster_membership () =
  let cl = Cluster.create ~id:0 ~capacity:10 pst_cfg [| Sequence.of_string alpha "ab" |] in
  Cluster.add_member cl 3;
  Cluster.add_member cl 5;
  Alcotest.(check int) "size" 2 (Cluster.size cl);
  Alcotest.(check bool) "mem" true (Cluster.mem cl 3);
  Cluster.clear_members cl;
  Alcotest.(check int) "cleared" 0 (Cluster.size cl);
  Alcotest.(check bool) "PST survives clear" true (Pst.total_count (Cluster.pst cl) > 0)

let test_cluster_absorb_updates_pst () =
  let cl = Cluster.create ~id:0 ~capacity:10 pst_cfg [| Sequence.of_string alpha "ababab" |] in
  let before = Pst.total_count (Cluster.pst cl) in
  let s = Sequence.of_string alpha "ccababcc" in
  (* The cluster has never seen a "c", so the best segment is positions
     2..5 ("abab"). *)
  Cluster.absorb cl ~log_background:(Array.make 26 (log (1.0 /. 26.0))) s;
  Alcotest.(check bool) "records no member" false (Cluster.mem cl 1);
  Alcotest.(check int) "only the segment inserted" (before + 4)
    (Pst.total_count (Cluster.pst cl))

let test_cluster_similarity_prefers_own_style () =
  let lbg = Array.make 26 (log (1.0 /. 26.0)) in
  let cl =
    Cluster.create ~id:0 ~capacity:10 pst_cfg [| Sequence.of_string alpha "abababababab" |]
  in
  let like = Cluster.log_similarity cl ~log_background:lbg (Sequence.of_string alpha "abab") in
  let unlike = Cluster.log_similarity cl ~log_background:lbg (Sequence.of_string alpha "zqvk") in
  Alcotest.(check bool) "own style wins" true (like > unlike)

(* The cluster's automaton follows its tree across absorbs — refreshed
   in place, with states patched in once a context turns significant —
   so every score after an absorb equals the tree walk on the grown
   model. The scoring fan-out refuses the automaton an absorb left
   stale, and the compile that ends the pass makes it current again. *)
let test_cluster_scores_follow_absorbs () =
  let lbg = Array.make 26 (log (1.0 /. 26.0)) in
  let cl = Cluster.create ~id:0 ~capacity:10 whole_cfg [| Sequence.of_string alpha "abcd" |] in
  Cluster.compile cl;
  let probes = List.map (Sequence.of_string alpha) [ "abcabc"; "dcba"; "aabbccdd"; "q" ] in
  let block = Array.of_list probes in
  let check_all when_ =
    List.iter
      (fun p ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: automaton = tree walk" when_)
          true
          (Check.same_bits
             (Cluster.log_similarity cl ~log_background:lbg p)
             (Similarity.score (Cluster.pst cl) ~log_background:lbg p).log_sim))
      probes
  in
  let absorb i text =
    absorb_whole cl (Sequence.of_string alpha text);
    Alcotest.check_raises
      (Printf.sprintf "fan-out after absorb %d refuses the stale automaton" i)
      (Invalid_argument "Cluster.score_columns: stale automaton; compile first")
      (fun () -> ignore (Cluster.score_columns ~log_background:lbg [| cl |] block))
  in
  List.iteri
    (fun i text ->
      absorb i text;
      check_all (Printf.sprintf "after absorb %d" i))
    [ "abcd"; "ab"; "abcabc"; "dd"; "abcd"; "bcbc" ];
  absorb 6 "cdcd";
  Cluster.compile cl;
  let column = (Cluster.score_columns ~log_background:lbg [| cl |] block).(0) in
  Alcotest.(check bool) "fan-out after compile = tree walk" true
    (Array.for_all2 Check.same_bits column.log_sims
       (Array.map
          (fun s -> (Similarity.score (Cluster.pst cl) ~log_background:lbg s).log_sim)
          block))

(* [Cluster.score_columns] against the per-sequence path: clusters grown
   by absorbs and then compiled, sequence arrays on either side of the
   64-lane block split with empty sequences mixed in, and pool sizes 1
   and 4. Every cell must be [Cluster.log_similarity] bit for bit. *)
let score_columns_arb =
  let open QCheck.Gen in
  let text = string_size ~gen:(char_range 'a' 'd') (int_range 1 30) in
  let cluster = pair (list_size (int_range 1 3) text) (list_size (int_range 0 4) text) in
  let lane = frequency [ (1, return ""); (5, text) ] in
  let lanes = oneofl [ 0; 1; 63; 64; 65; 129 ] >>= fun n -> array_size (return n) lane in
  QCheck.make
    ~print:(fun (cls, seqs) ->
      Printf.sprintf "%d clusters, %d sequences" (List.length cls) (Array.length seqs))
    (pair (list_size (int_range 1 3) cluster) lanes)

let prop_score_columns_match_similarity =
  QCheck.Test.make ~name:"score_columns = similarity, cell by cell" ~count:60
    score_columns_arb (fun (specs, texts) ->
      let lbg = Gen_common.uniform_lbg in
      let seq = Sequence.of_string alpha in
      let grow id (seeds, absorbs) =
        let cl = Cluster.create ~id ~capacity:0 whole_cfg (Array.of_list (List.map seq seeds)) in
        List.iter (fun t -> absorb_whole cl (seq t)) absorbs;
        Cluster.compile cl;
        cl
      in
      let clusters = Array.of_list (List.mapi grow specs) in
      let seqs = Array.map seq texts in
      let expected =
        Array.map
          (fun cl -> Array.map (Cluster.log_similarity cl ~log_background:lbg) seqs)
          clusters
      in
      let n = Array.length seqs in
      List.for_all
        (fun d ->
          let got =
            Gen_common.with_domains d (fun () ->
                Cluster.score_columns ~log_background:lbg clusters seqs)
          in
          Array.length got = Array.length clusters
          && Array.for_all2
               (fun e (g : Similarity.column) ->
                 Array.length g.log_sims = n
                 && Array.for_all2 Check.same_bits e g.log_sims)
               expected got)
        [ 1; 4 ])

(* The absorb contract: each absorb inserts the best segment of the
   tree as it stands, the one the tree walk finds on it, even when the
   absorb before it left the automaton stale and nothing scored in
   between. A shadow copy of the tree takes that segment by hand. *)
let absorb_arb =
  let open QCheck.Gen in
  let text = string_size ~gen:(char_range 'a' 'd') (int_range 1 30) in
  QCheck.make
    ~print:(fun (seeds, absorbs) -> String.concat " | " seeds ^ " <- " ^ String.concat " " absorbs)
    (pair (list_size (int_range 1 3) text) (list_size (int_range 1 8) text))

let prop_absorb_inserts_tree_walk_segment =
  QCheck.Test.make ~name:"absorb inserts the tree walk's segment" ~count:200 absorb_arb
    (fun (seeds, absorbs) ->
      let lbg = Gen_common.uniform_lbg in
      let seq = Sequence.of_string alpha in
      let cl = Cluster.create ~id:0 ~capacity:0 pst_cfg (Array.of_list (List.map seq seeds)) in
      List.for_all
        (fun t ->
          let s = seq t in
          let shadow = Pst.copy (Cluster.pst cl) in
          let r = Similarity.score shadow ~log_background:lbg s in
          Pst.insert_segment shadow s ~lo:r.seg_lo ~hi:r.seg_hi;
          Cluster.absorb cl ~log_background:lbg s;
          Pst.equal_structure shadow (Cluster.pst cl))
        absorbs)

(* A significant node pruned between an absorb and the refresh: the
   refresh refuses and the cluster recompiles, spending the crossings
   the absorb reported. A buffer left holding them would make the next
   crossing's refresh refuse too, since it would no longer account for
   exactly the crossings since the compile; instead that one patches. *)
let test_cluster_recompile_empties_crossings () =
  let compilations = Obs.Metrics.counter "pst.compilations"
  and patches = Obs.Metrics.counter "pst.patches" in
  let seq = Sequence.of_string alpha in
  let cl = Cluster.create ~id:0 ~capacity:0 whole_cfg [| seq "abcabc" |] in
  let absorb text = absorb_whole cl (seq text) in
  let tables_equal_fresh name =
    Alcotest.(check (list string)) name []
      (Check.psa_tables_match ~fresh:(Psa.compile (Cluster.pst cl)) (Cluster.automaton cl))
  in
  let since = Pst.active_changes (Cluster.pst cl) in
  absorb "xyxy";
  Alcotest.(check bool) "the absorb crossed" true (Pst.active_changes (Cluster.pst cl) > since);
  Pst.prune_to (Cluster.pst cl) 1;
  Alcotest.(check bool) "a significant node pruned" false
    (Pst.grew_only (Cluster.pst cl) ~since);
  let current () = ignore (Cluster.automaton cl) in
  Alcotest.(check int) "refused: recompiled" 1 (snd (Gen_common.counting compilations current));
  tables_equal_fresh "recompiled = fresh compile";
  absorb "zz";
  let ((), patched), compiled =
    Gen_common.counting compilations (fun () -> Gen_common.counting patches current)
  in
  Alcotest.(check int) "the next crossing patches" 0 compiled;
  Alcotest.(check int) "one patch" 1 patched;
  tables_equal_fresh "patched = fresh compile"

(* The score-column cache lives only while the tree is unchanged, and
   holds nothing while switched off. *)
let cached_cluster () =
  let s = Sequence.of_string alpha "abcabcabcabc" in
  let cl = Cluster.create ~id:0 ~capacity:4 whole_cfg [| s |] in
  let column = Similarity.column 1 in
  column.log_sims.(0) <- Cluster.log_similarity cl ~log_background:(Array.make 26 (-.log 26.0)) s;
  (cl, s, column)

let test_cache_dropped_on_absorb () =
  let cl, s, column = cached_cluster () in
  Cluster.set_score_cache cl column;
  Alcotest.(check bool) "cache installed" true (Cluster.score_cache cl <> None);
  Cluster.absorb cl ~log_background:(Array.make 26 (-.log 26.0)) s;
  Alcotest.(check bool) "absorb drops the cache" true (Cluster.score_cache cl = None)

(* The divergence profile is cached until an absorb grows the tree; the
   one built after it describes the grown tree. *)
let test_profile_dropped_on_absorb () =
  let cl, s, _ = cached_cluster () in
  let other = Pst.create pst_cfg in
  Pst.insert_sequence other (Sequence.of_string alpha "abcbcbca");
  let kl () = Divergence.kl_profiles (Cluster.profile cl) (Divergence.profile other) in
  let before = Cluster.profile cl in
  Alcotest.(check bool) "profile cached" true (Cluster.profile cl == before);
  let kl_before = kl () in
  absorb_whole cl (Array.sub s 0 6);
  absorb_whole cl (Sequence.of_string alpha "cbcbcbcb");
  Alcotest.(check bool) "absorb drops the profile" true (Cluster.profile cl != before);
  Alcotest.(check (float 0.0)) "the new profile is the grown tree's"
    (Divergence.kl_symmetric (Cluster.pst cl) other) (kl ());
  Alcotest.(check bool) "the grown tree measures differently" true (kl () <> kl_before)

let test_cache_switched_off () =
  let cl, _, column = cached_cluster () in
  Cluster.set_score_cache cl column;
  Fun.protect ~finally:(fun () -> Cluster.set_cache_enabled true) @@ fun () ->
  Cluster.set_cache_enabled false;
  Alcotest.(check bool) "a column installed before is hidden" true
    (Cluster.score_cache cl = None);
  let fresh, _, column' = cached_cluster () in
  Cluster.set_score_cache fresh column';
  Cluster.set_cache_enabled true;
  Alcotest.(check bool) "nothing is installed while off" true (Cluster.score_cache fresh = None)

(* --- Threshold ------------------------------------------------------- *)

let test_threshold_create () =
  let t = Threshold.create ~t_init:2.0 in
  Alcotest.(check (float 1e-9)) "log t" (log 2.0) (Threshold.log_t t);
  Alcotest.(check (float 1e-9)) "linear t" 2.0 (Threshold.linear_t t);
  Alcotest.(check bool) "not frozen" false (Threshold.frozen t);
  Alcotest.(check bool) "t < 1 rejected" true
    (try ignore (Threshold.create ~t_init:0.5); false with Invalid_argument _ -> true);
  (* A plain [t_init < 1.0] guard lets NaN through (NaN comparisons are
     always false); non-finite values must be rejected too. *)
  List.iter
    (fun (label, bad) ->
      Alcotest.(check bool) label true
        (try ignore (Threshold.create ~t_init:bad); false with Invalid_argument _ -> true))
    [ ("NaN rejected", Float.nan);
      ("+inf rejected", Float.infinity);
      ("-inf rejected", Float.neg_infinity) ]

let test_threshold_moves_toward_valley () =
  let t = Threshold.create ~t_init:1.0 in
  (* Bimodal: low mass near 1, high mass near 30 → valley somewhere in
     (5, 30); t must move right. *)
  let samples =
    Array.concat
      [ Array.init 500 (fun i -> 1.0 +. (float_of_int (i mod 30) /. 10.0));
        Array.init 60 (fun i -> 30.0 +. float_of_int (i mod 10)) ]
  in
  let before = Threshold.log_t t in
  Threshold.adjust t samples;
  Alcotest.(check bool) "moved up" true (Threshold.log_t t > before)

let test_threshold_halfway_step () =
  let t = Threshold.create ~t_init:1.0 in
  let samples =
    Array.concat
      [ Array.init 500 (fun i -> 1.0 +. (float_of_int (i mod 30) /. 10.0));
        Array.init 60 (fun i -> 30.0 +. float_of_int (i mod 10)) ]
  in
  Threshold.adjust t samples;
  let after_one = Threshold.log_t t in
  (* The paper's update is t <- (t + t̂)/2: from 0 the new t is v/2, so the
     implied valley is 2·t. A second adjust with the same samples moves t
     to (v/2 + v)/2 = 3v/4. *)
  Threshold.adjust t samples;
  let after_two = Threshold.log_t t in
  Alcotest.(check (float 1e-6)) "halfway dynamics" (1.5 *. after_one) after_two

let test_threshold_freezes () =
  let t = Threshold.create ~t_init:1.0 in
  let samples =
    Array.concat
      [ Array.init 500 (fun i -> 1.0 +. (float_of_int (i mod 30) /. 10.0));
        Array.init 60 (fun i -> 30.0 +. float_of_int (i mod 10)) ]
  in
  for _ = 1 to 100 do
    Threshold.adjust t samples
  done;
  Alcotest.(check bool) "eventually frozen" true (Threshold.frozen t);
  let frozen_at = Threshold.log_t t in
  Threshold.adjust t (Array.map (fun x -> x +. 100.0) samples);
  Alcotest.(check (float 1e-12)) "frozen ignores new samples" frozen_at (Threshold.log_t t)

let test_threshold_ignores_tiny_or_infinite_samples () =
  let t = Threshold.create ~t_init:2.0 in
  Threshold.adjust t [| 1.0; 2.0; neg_infinity |];
  Alcotest.(check (float 1e-12)) "fewer than 10 finite samples: no-op" (log 2.0)
    (Threshold.log_t t)

let test_threshold_never_below_one () =
  let t = Threshold.create ~t_init:1.0 in
  (* All samples negative in log space: valley would be < 0 but t is
     clamped at log 1 = 0 (paper: t >= 1). *)
  let samples = Array.init 100 (fun i -> -10.0 +. float_of_int (i mod 5)) in
  for _ = 1 to 10 do
    Threshold.adjust t samples
  done;
  Alcotest.(check bool) "clamped at 1" true (Threshold.log_t t >= 0.0)

(* --- Order ----------------------------------------------------------- *)

let no_best n : (int * float) option array = Array.make n None

let test_order_fixed () =
  let rng = Rng.create 1 in
  let order = Order.arrange Order.Fixed rng ~n:5 ~best:(no_best 5) in
  Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3; 4 |] order

let test_order_random_is_permutation () =
  let rng = Rng.create 2 in
  let order = Order.arrange Order.Random rng ~n:100 ~best:(no_best 100) in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (order <> Array.init 100 Fun.id)

let test_order_random_varies_between_calls () =
  let rng = Rng.create 3 in
  let o1 = Order.arrange Order.Random rng ~n:50 ~best:(no_best 50) in
  let o2 = Order.arrange Order.Random rng ~n:50 ~best:(no_best 50) in
  Alcotest.(check bool) "fresh permutation each iteration" true (o1 <> o2)

let test_order_cluster_based () =
  let rng = Rng.create 4 in
  let best : (int * float) option array =
    [| Some (2, 0.0); None; Some (1, 0.0); Some (2, 0.0); Some (1, 0.0) |]
  in
  let order = Order.arrange Order.Cluster_based rng ~n:5 ~best in
  (* Cluster 1 members (2,4) first, then cluster 2 members (0,3), then the
     unclustered (1); stable within groups. *)
  Alcotest.(check (array int)) "grouped by cluster" [| 2; 4; 0; 3; 1 |] order

let test_order_names () =
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Order.to_string o ^ " roundtrip")
        true
        (Order.of_string (Order.to_string o) = Some o))
    [ Order.Fixed; Order.Random; Order.Cluster_based ];
  Alcotest.(check bool) "unknown name" true (Order.of_string "bogus" = None)

let () =
  Alcotest.run "core-units"
    [
      ( "cluster",
        [
          Alcotest.test_case "create" `Quick test_cluster_create;
          Alcotest.test_case "create from several sequences" `Quick
            test_cluster_create_from_many;
          Alcotest.test_case "membership" `Quick test_cluster_membership;
          Alcotest.test_case "absorb updates PST" `Quick test_cluster_absorb_updates_pst;
          Alcotest.test_case "similarity" `Quick test_cluster_similarity_prefers_own_style;
          Alcotest.test_case "scores follow absorbs" `Quick test_cluster_scores_follow_absorbs;
          Alcotest.test_case "a recompile empties the crossings" `Quick
            test_cluster_recompile_empties_crossings;
          QCheck_alcotest.to_alcotest prop_score_columns_match_similarity;
          QCheck_alcotest.to_alcotest prop_absorb_inserts_tree_walk_segment;
        ] );
      ( "cache",
        [
          Alcotest.test_case "absorb invalidates" `Quick test_cache_dropped_on_absorb;
          Alcotest.test_case "switched off" `Quick test_cache_switched_off;
          Alcotest.test_case "absorb drops the divergence profile" `Quick
            test_profile_dropped_on_absorb;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "create" `Quick test_threshold_create;
          Alcotest.test_case "moves toward valley" `Quick test_threshold_moves_toward_valley;
          Alcotest.test_case "halfway dynamics" `Quick test_threshold_halfway_step;
          Alcotest.test_case "freezes" `Quick test_threshold_freezes;
          Alcotest.test_case "ignores sparse samples" `Quick
            test_threshold_ignores_tiny_or_infinite_samples;
          Alcotest.test_case "never below 1" `Quick test_threshold_never_below_one;
        ] );
      ( "order",
        [
          Alcotest.test_case "fixed" `Quick test_order_fixed;
          Alcotest.test_case "random permutation" `Quick test_order_random_is_permutation;
          Alcotest.test_case "random varies" `Quick test_order_random_varies_between_calls;
          Alcotest.test_case "cluster-based" `Quick test_order_cluster_based;
          Alcotest.test_case "names" `Quick test_order_names;
        ] );
    ]
