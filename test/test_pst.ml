(* Tests for the probabilistic suffix tree: counts, probability vectors,
   prediction-node semantics, smoothing, and pruning. *)

let alpha = Gen_common.alpha
let cfg = Gen_common.pst_cfg

let build ?max_depth ?significance ?max_nodes ?p_min ?pruning texts =
  Gen_common.build_pst ?max_depth ?significance ?max_nodes ?p_min ?pruning texts

let test_empty_tree () =
  let t = Pst.create (cfg ()) in
  Alcotest.(check int) "one node" 1 (Pst.n_nodes t);
  Alcotest.(check int) "zero count" 0 (Pst.total_count t)

let test_root_count_is_total_symbols () =
  (* "The count associated with the root records the overall size of the
     sequence cluster" (paper Sec. 3). *)
  let t = build [ "abcab"; "xyz" ] in
  Alcotest.(check int) "root count" 8 (Pst.total_count t)

let test_node_counts_match_occurrences () =
  let texts = [ "ababab"; "babb"; "aabba" ] in
  let t = build texts in
  let check_label label =
    let pattern = Sequence.of_string alpha label in
    let expected =
      List.fold_left
        (fun acc s ->
          acc + Sequence.count_occurrences (Sequence.of_string alpha s) ~pattern)
        0 texts
    in
    match Pst.find_node t pattern with
    | Some node ->
        Alcotest.(check int) (Printf.sprintf "count of %S" label) expected (Pst.node_count t node)
    | None -> Alcotest.(check int) (Printf.sprintf "%S absent means zero" label) expected 0
  in
  List.iter check_label [ "a"; "b"; "ab"; "ba"; "bb"; "aba"; "abab"; "z"; "aa" ]

let test_next_counts_are_extension_counts () =
  (* P(s|σ') = C(σ's)/C(σ') (paper Sec. 4.4): next counts must equal the
     occurrence counts of the extended segment. *)
  let texts = [ "abcabcabc"; "abacab" ] in
  let t = build texts in
  let count label =
    let pattern = Sequence.of_string alpha label in
    List.fold_left
      (fun acc s -> acc + Sequence.count_occurrences (Sequence.of_string alpha s) ~pattern)
      0 texts
  in
  match Pst.find_node t (Sequence.of_string alpha "ab") with
  | None -> Alcotest.fail "node ab must exist"
  | Some node ->
      let next sym = Pst.next_count t node (Alphabet.code_exn alpha sym) in
      Alcotest.(check int) "C(abc)" (count "abc") (next "c");
      Alcotest.(check int) "C(aba)" (count "aba") (next "a")

let test_probability_vector_sums_to_one () =
  let t = build ~p_min:0.001 [ "abcabcbca"; "cabcab" ] in
  Pst.iter_nodes t (fun node ->
      if Pst.next_total t node > 0 then begin
        let dist = Pst.next_distribution t node in
        let s = Array.fold_left ( +. ) 0.0 dist in
        Alcotest.(check (float 1e-6)) "distribution sums to 1" 1.0 s
      end)

let test_figure1_style_probabilities () =
  (* Hand-checkable conditional probabilities on a tiny corpus. *)
  let t = build [ "ababab" ] in
  (* C(a) = 3; "a" is followed by "b" 3 times, "a" 0 times. *)
  match Pst.find_node t (Sequence.of_string alpha "a") with
  | None -> Alcotest.fail "node a must exist"
  | Some node ->
      let b = Alphabet.code_exn alpha "b" in
      let a = Alphabet.code_exn alpha "a" in
      Alcotest.(check (float 1e-9)) "P(b|a) = 1" 1.0
        (exp (Pst.next_log_prob t node b));
      Alcotest.(check bool) "P(a|a) = 0 unsmoothed" true
        (Pst.next_log_prob t node a = neg_infinity)

let test_smoothing_bounds () =
  (* Sec. 5.2: adjusted probability = (1 - n·p_min)·P + p_min, so every
     symbol gets at least p_min and at most 1 - (n-1)·p_min. *)
  let p_min = 0.001 in
  let t = build ~p_min [ "ababab" ] in
  match Pst.find_node t (Sequence.of_string alpha "a") with
  | None -> Alcotest.fail "node a must exist"
  | Some node ->
      let a = Alphabet.code_exn alpha "a" in
      let b = Alphabet.code_exn alpha "b" in
      Alcotest.(check (float 1e-9)) "zero count floored at p_min" p_min
        (exp (Pst.next_log_prob t node a));
      Alcotest.(check (float 1e-9)) "full mass scaled down" (1.0 -. (26.0 *. p_min) +. p_min)
        (exp (Pst.next_log_prob t node b))

let test_prediction_node_is_longest_significant_suffix () =
  (* With c = 3: in "abababab", "ab" occurs 4 times (significant),
     "bab" occurs 3 times (significant), "abab" occurs 3 times
     (significant)... use c = 4 to force a cut. *)
  let t = build ~significance:4 [ "abababab" ] in
  let s = Sequence.of_string alpha "abab" in
  (* Context = "abab" (positions 0..3), predict position 4. The walk
     descends while counts >= 4: "b" (4), "ab" (4), "bab" (3 <- stop). *)
  let node = Pst.prediction_node t s ~lo:0 ~pos:4 in
  Alcotest.(check int) "depth stops at ab" 2 (Pst.node_depth t node);
  Alcotest.(check (list int)) "label is ab"
    [ Alphabet.code_exn alpha "a"; Alphabet.code_exn alpha "b" ]
    (Pst.node_label t node)

let test_prediction_node_empty_context () =
  let t = build [ "abc" ] in
  let s = Sequence.of_string alpha "abc" in
  let node = Pst.prediction_node t s ~lo:0 ~pos:0 in
  Alcotest.(check int) "root for empty context" 0 (Pst.node_depth t node)

let test_prediction_respects_max_depth () =
  let t = build ~max_depth:3 ~significance:1 [ "aaaaaaaaaa" ] in
  let s = Sequence.of_string alpha "aaaaaaa" in
  let node = Pst.prediction_node t s ~lo:0 ~pos:6 in
  Alcotest.(check bool) "depth capped" true (Pst.node_depth t node <= 3)

let test_log_prob_uniform_on_empty () =
  let t = Pst.create (cfg ~alphabet_size:4 ()) in
  let s = [| 2 |] in
  Alcotest.(check (float 1e-9)) "uniform 1/4" (log 0.25) (Pst.log_prob t s ~lo:0 ~pos:0)

let test_insert_segment_matches_sub_sequence_insert () =
  (* Inserting s[lo..hi] must equal inserting that segment as a fresh
     sequence. *)
  let s = Sequence.of_string alpha "abcabcab" in
  let t1 = Pst.create (cfg ()) in
  Pst.insert_segment t1 s ~lo:2 ~hi:6;
  let t2 = Pst.create (cfg ()) in
  Pst.insert_sequence t2 (Sequence.segment s ~lo:2 ~hi:6);
  Alcotest.(check int) "same node count" (Pst.n_nodes t2) (Pst.n_nodes t1);
  Alcotest.(check int) "same total" (Pst.total_count t2) (Pst.total_count t1);
  Pst.iter_nodes t1 (fun node ->
      let label = Array.of_list (Pst.node_label t1 node) in
      match Pst.find_node t2 label with
      | None -> Alcotest.fail "node missing in reference tree"
      | Some node2 ->
          Alcotest.(check int) "same count" (Pst.node_count t2 node2) (Pst.node_count t1 node))

let test_max_depth_limits_nodes () =
  let t = build ~max_depth:2 [ "abcdefgh" ] in
  Pst.iter_nodes t (fun node ->
      Alcotest.(check bool) "no node deeper than 2" true (Pst.node_depth t node <= 2))

let test_pruning_budget_respected () =
  let t = build ~max_nodes:50 [ String.concat "" (List.init 40 (fun i -> Printf.sprintf "%c%c" (Char.chr (97 + (i mod 26))) (Char.chr (97 + ((i * 7) mod 26))))) ] in
  Alcotest.(check bool)
    (Printf.sprintf "node budget held (%d <= 50)" (Pst.n_nodes t))
    true
    (Pst.n_nodes t <= 50)

let test_prune_to_keeps_high_counts () =
  let t = build ~significance:2 [ "abababababababab"; "cdcd" ] in
  let before = Pst.n_nodes t in
  Pst.prune_to t (before / 2);
  Alcotest.(check bool) "pruned" true (Pst.n_nodes t <= before / 2);
  (* The high-frequency "a"/"b" depth-1 nodes must survive count-based
     pruning while rare deep nodes go. *)
  Alcotest.(check bool) "a survives" true
    (Pst.find_node t (Sequence.of_string alpha "a") <> None);
  Alcotest.(check bool) "b survives" true
    (Pst.find_node t (Sequence.of_string alpha "b") <> None)

let test_pruning_strategies_all_respect_target () =
  List.iter
    (fun strategy ->
      let t =
        build ~pruning:strategy ~significance:2
          [ "abcabcabcabcabc"; "xyzxyzxyz"; "aabbaabbccdd" ]
      in
      Pst.prune_to t 10;
      Alcotest.(check bool)
        (Pruning.to_string strategy ^ " target met")
        true
        (Pst.n_nodes t <= 10))
    Pruning.all

let test_longest_label_pruning_removes_deep_first () =
  let t = build ~pruning:Pruning.Longest_label_first ~significance:2 [ "abcdefabcdef" ] in
  let max_depth_before =
    let d = ref 0 in
    Pst.iter_nodes t (fun n -> if Pst.node_depth t n > !d then d := Pst.node_depth t n);
    !d
  in
  Pst.prune_to t (Pst.n_nodes t / 2);
  let max_depth_after =
    let d = ref 0 in
    Pst.iter_nodes t (fun n -> if Pst.node_depth t n > !d then d := Pst.node_depth t n);
    !d
  in
  Alcotest.(check bool) "max depth reduced" true (max_depth_after < max_depth_before)

(* The tie rule, pinned by hand: "abcd" at depth 2 is eight nodes, every
   one below the root of count 1, in the lines "-", "0", "1", "1,0", "2",
   "2,1", "3", "3,2". Among equal keys the later line goes first, so
   pruning to three nodes keeps the root, "0" and "1" under every
   strategy, with tails (significance 2) and without. *)
let test_pruning_ties_later_lines_first () =
  let paths t =
    String.split_on_char '\n' (Pst.to_string t)
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with "node" :: path :: _ -> Some path | _ -> None)
  in
  List.iter
    (fun (pruning, significance) ->
      let t = build ~max_depth:2 ~significance ~pruning [ "abcd" ] in
      let what = Printf.sprintf "%s, significance %d" (Pruning.to_string pruning) significance in
      Alcotest.(check (list string))
        (what ^ ": built") [ "-"; "0"; "1"; "1,0"; "2"; "2,1"; "3"; "3,2" ] (paths t);
      Pst.prune_to t 3;
      Alcotest.(check (list string)) (what ^ ": pruned") [ "-"; "0"; "1" ] (paths t))
    (List.concat_map (fun p -> [ (p, 1); (p, 2) ]) Pruning.all)

(* Segment [(s, a, b)] of a random stream: [s] from [a mod |s|] on, at
   most [b mod] the rest long. *)
let insert_random_segment ?crossings t (s, a, b) =
  let lo = a mod Array.length s in
  Pst.insert_segment ?crossings t s ~lo ~hi:(lo + (b mod (Array.length s - lo)))

(* Pruning against its reference on the serialization: random segment
   streams over 4 symbols at significance 1 to 5 (tails off and on),
   under a node budget that may prune along the way, with every
   strategy. A copy pruned to a random target must read as
   [Ref_prune.prune] says and hold exactly [target] nodes. *)
let prune_case_gen =
  let open QCheck.Gen in
  let segment = triple (array_size (int_range 1 30) (int_range 0 3)) nat nat in
  quad
    (triple (int_range 1 5) (int_range 1 6) (int_range 2 200))
    (oneofl Pruning.all)
    (list_size (int_range 1 12) segment)
    nat

let prune_matches_reference ((significance, max_depth, max_nodes), pruning, segments, target) =
  let t = Pst.create (cfg ~alphabet_size:4 ~significance ~max_depth ~max_nodes ~pruning ()) in
  List.iter (insert_random_segment t) segments;
  let target = 1 + (target mod Pst.n_nodes t) in
  let pruned = Pst.copy t in
  Pst.prune_to pruned target;
  Pst.to_string pruned = Ref_prune.prune (Pst.to_string t) ~target
  && Pst.n_nodes pruned = target

let test_stats () =
  let t = build ~significance:3 [ "ababababab" ] in
  let st = Pst.stats t in
  Alcotest.(check int) "nodes agree" (Pst.n_nodes t) st.nodes;
  Alcotest.(check bool) "some significant" true (st.significant_nodes > 0);
  Alcotest.(check bool) "bytes positive" true (st.approx_bytes > 0)

let test_pp_renders () =
  let t = build ~significance:3 [ "ababab" ] in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Pst.pp ~max_depth:2 ~symbol:(fun fmt c -> Format.fprintf fmt "%c" (Char.chr (97 + c))) fmt t;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "mentions root" true
    (String.length out > 0 && String.sub out 0 6 = "(root)");
  (* "a" occurs 3 times and is significant at c = 3. *)
  let has_needle needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "significant a starred" true (has_needle "a  C=3*")

let test_create_validation () =
  let bad f = try ignore (Pst.create (f ())); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "alphabet_size 0" true (bad (fun () -> cfg ~alphabet_size:0 ()));
  Alcotest.(check bool) "max_depth 0" true (bad (fun () -> cfg ~max_depth:0 ()));
  Alcotest.(check bool) "p_min too big" true (bad (fun () -> cfg ~p_min:0.2 ~alphabet_size:26 ()))

let test_insert_rejects_foreign_symbols () =
  (* A symbol outside [0, alphabet_size) must fail at insertion, before
     the tree is touched — not later, in a compile that indexes tables
     by symbol. *)
  let t = Pst.create (cfg ~alphabet_size:4 ()) in
  let raises s =
    try
      Pst.insert_segment t s ~lo:0 ~hi:(Array.length s - 1);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "symbol 7 rejected" true (raises [| 0; 1; 2; 7; 3; 0; 1 |]);
  Alcotest.(check bool) "symbol -1 rejected" true (raises [| 0; -1; 2 |]);
  Alcotest.(check int) "tree untouched" 1 (Pst.n_nodes t);
  Alcotest.(check int) "no symbol counted" 0 (Pst.total_count t);
  Pst.insert_segment t [| 0; 1; 2; 7; 3; 0; 1 |] ~lo:4 ~hi:6;
  Alcotest.(check int) "a segment avoiding it inserts" 3 (Pst.total_count t)

(* ------------------------------------------------------------------ *)
(* Storage: ids, free slots, copies                                    *)
(* ------------------------------------------------------------------ *)

(* The golden fixture [pst_golden.txt] holds the serializations of four
   trees built from these texts: one per pruning strategy with a budget
   that prunes repeatedly, then a merge of two halves. Rebuilding them
   byte for byte pins child order, next-entry order, the canonical
   pruning order and merge. The pruned sections were written by the
   code they check; the "pruned = the reference order" property checks
   that order independently, against [Ref_prune]'s sort of serialized
   lines. *)
let golden_texts =
  List.init 12 (fun i ->
      String.init (40 + (5 * i)) (fun j -> "abcdef".[(i + 1) * (j + 3) * (j + 7) / 5 mod 6]))

let golden_trees () =
  let build strategy texts = build ~max_depth:6 ~max_nodes:120 ~pruning:strategy texts in
  List.map (fun st -> build st golden_texts) Pruning.all
  @ [
      Pst.merge
        (build Pruning.Smallest_count_first (List.filteri (fun i _ -> i < 6) golden_texts))
        (build Pruning.Smallest_count_first (List.filteri (fun i _ -> i >= 6) golden_texts));
    ]

let test_golden_serialization () =
  let fixture = In_channel.with_open_bin "pst_golden.txt" In_channel.input_all in
  let trees = golden_trees () in
  Alcotest.(check string) "same bytes" fixture
    (String.concat "" (List.map Pst.to_string trees));
  let sections =
    String.split_on_char '\n' fixture
    |> List.fold_left
         (fun (cur, acc) l ->
           if l = "end" then ([], List.rev ("end" :: cur) :: acc) else (l :: cur, acc))
         ([], [])
    |> snd |> List.rev
  in
  Alcotest.(check int) "four trees" (List.length trees) (List.length sections);
  List.iter2
    (fun tree lines ->
      Alcotest.(check bool) "parses to the rebuilt tree" true
        (Pst.equal_structure tree (Pst.of_string (String.concat "\n" lines))))
    trees sections

let texts_gen = Gen_common.texts_gen ~max_seqs:6 ~max_len:40 ()

(* The insertion walk allocates nothing per symbol (pst.mli): a long
   segment into a grown tree — most of its contexts new, so it hangs
   tails, splits them and grows the storage — costs a few words in all,
   whatever its length. *)
let test_insert_allocates_nothing_per_symbol () =
  let rng = Random.State.make [| 3 |] in
  let random_seq len = Array.init len (fun _ -> Random.State.int rng 26) in
  List.iter
    (fun significance ->
      let t = Pst.create (cfg ~significance ()) in
      for _ = 1 to 200 do
        Pst.insert_sequence t (random_seq 100)
      done;
      let s = random_seq 50_000 in
      let before = Gc.minor_words () in
      Pst.insert_segment t s ~lo:0 ~hi:(Array.length s - 1);
      let words = (Gc.minor_words () -. before) /. float_of_int (Array.length s) in
      Alcotest.(check bool)
        (Printf.sprintf "significance %d: %.4f minor words per symbol" significance words)
        true (words < 0.1))
    [ 1; 2 ]

(* A seed's own re-insertion, pinned by hand: "abcd" at depth 3 and
   significance 3 hangs the tails "a" below "b", "ba" below "c" and
   "cb" below "d". Inserted again, the walks of "b", "c" and "d"
   retrace them whole and bump their heads: no split, no new node, and
   every node at count 2. A third insertion would take the heads to
   significance, so it splits every tail and all nine nodes cross. *)
let test_reinsertion_retraces_tails () =
  let t = Pst.create (cfg ~alphabet_size:4 ~significance:3 ~max_depth:3 ()) in
  let s = [| 0; 1; 2; 3 |] in
  let counted name f = snd (Gen_common.counting (Obs.Metrics.counter name) f) in
  let insert () = Pst.insert_sequence t s in
  insert ();
  let slots = Pst.node_id_bound t in
  Alcotest.(check int) "retraces" 3 (counted "pst.tail_retraces" insert);
  Alcotest.(check int) "slots unchanged" slots (Pst.node_id_bound t);
  Alcotest.(check int) "nodes" 10 (Pst.n_nodes t);
  Pst.iter_nodes t (fun n ->
      if Pst.node_depth t n > 0 then Alcotest.(check int) "count 2" 2 (Pst.node_count t n));
  let crossings = Pst.Crossings.create () in
  Alcotest.(check int) "splits" 5
    (counted "pst.head_splits" (fun () -> Pst.insert_segment ~crossings t s ~lo:0 ~hi:3));
  Alcotest.(check int) "every node crossed" 9 (Pst.Crossings.length crossings);
  Pst.iter_nodes t (fun n ->
      Alcotest.(check bool) "a slot" true ((n :> int) < Pst.node_id_bound t))

(* Tails against slots: a tree reloaded from its serialization holds
   every node as a slot, while the tree itself keeps chains of contexts
   seen alike as tails. Fed the same insertions — under a node budget small
   enough to prune, with every strategy — and merged both ways with a
   third tree, the two must stay the same tree: same serialization, same
   node count, and the same moves of [active_changes]. *)
let tails_case_gen =
  let open QCheck.Gen in
  let segment = triple (array_size (int_range 1 30) (int_range 0 3)) nat nat in
  let segments = list_size (int_range 0 8) segment in
  tup4
    (triple (oneofl [ 2; 3; 5 ]) (int_range 1 6) (int_range 2 60))
    (oneofl Pruning.all)
    (pair segments segments)
    (pair segments segments)

let tails_match_slots ((significance, max_depth, max_nodes), pruning, (first, more), (other, after)) =
  let cfg = cfg ~alphabet_size:4 ~significance ~max_depth ~max_nodes ~pruning () in
  let build segs =
    let t = Pst.create cfg in
    List.iter (insert_random_segment t) segs;
    t
  in
  let tree = build first in
  let reload = Pst.of_string (Pst.to_string tree) in
  let agree (t, t0) (r, r0) =
    Pst.to_string t = Pst.to_string r
    && Pst.n_nodes t = Pst.n_nodes r
    && Pst.active_changes t - t0 = Pst.active_changes r - r0
  in
  let feed t r segs =
    List.for_all
      (fun seg ->
        let t0 = Pst.active_changes t and r0 = Pst.active_changes r in
        insert_random_segment t seg;
        insert_random_segment r seg;
        agree (t, t0) (r, r0))
      segs
  in
  (* A merge's counter is its first argument's until it prunes. *)
  let merged_agree (mt, t0) (mr, r0) = agree (mt, t0) (mr, r0) && feed mt mr after in
  agree (tree, Pst.active_changes tree) (reload, 0)
  && feed tree reload more
  &&
  let x = build other in
  let x0 = Pst.active_changes x in
  merged_agree
    (Pst.merge tree x, Pst.active_changes tree)
    (Pst.merge reload x, Pst.active_changes reload)
  && merged_agree (Pst.merge x tree, x0) (Pst.merge x reload, x0)

let print_tails_case ((significance, max_depth, max_nodes), pruning, (first, more), (other, after)) =
  let segs l =
    String.concat "; "
      (List.map
         (fun (s, a, b) ->
           Printf.sprintf "[%s] %d %d"
             (String.concat "," (List.map string_of_int (Array.to_list s)))
             a b)
         l)
  in
  Printf.sprintf "significance %d, max_depth %d, max_nodes %d, %s\nfirst: %s\nmore: %s\nother: %s\nafter: %s"
    significance max_depth max_nodes (Pruning.to_string pruning) (segs first) (segs more)
    (segs other) (segs after)

(* Crossings against the walk: random segment streams under node
   budgets small enough to prune, with every strategy. After each
   insertion that pruned no significant node, the buffer must hold
   exactly the nodes active after it that were not before; a tail id or
   a missed crossing fails. *)
let crossings_case_gen =
  let open QCheck.Gen in
  let segment = triple (array_size (int_range 1 30) (int_range 0 3)) nat nat in
  triple
    (triple (oneofl [ 2; 3; 5 ]) (int_range 1 6) (int_range 2 100))
    (oneofl Pruning.all)
    (list_size (int_range 1 20) segment)

let crossings_match_walk ((significance, max_depth, max_nodes), pruning, segments) =
  let t = Pst.create (cfg ~alphabet_size:4 ~significance ~max_depth ~max_nodes ~pruning ()) in
  let crossings = Pst.Crossings.create () in
  List.for_all
    (fun seg ->
      let before = Check.active_nodes t and since = Pst.active_changes t in
      Pst.Crossings.clear crossings;
      insert_random_segment ~crossings t seg;
      (not (Pst.grew_only t ~since)) || Check.crossings_match ~before t crossings = [])
    segments

let print_crossings_case ((significance, max_depth, max_nodes), pruning, segments) =
  print_tails_case ((significance, max_depth, max_nodes), pruning, (segments, []), ([], []))

(* Retraced tails against slots: a walk that retraces a whole tail bumps
   its head, and a head may then hold any count below significance and
   several next entries. Random texts over 3 or 4 symbols take random
   segments, each re-inserted 1 to 3 times, then each text whole after
   a segment of it (a seed's own re-insertion), under budgets that
   sometimes prune, with every strategy. Before each insertion the tree
   is reloaded from its serialization, every node a slot; fed the same
   segment, the two must serialize alike, hold as many nodes, move
   [active_changes] alike and report crossings along the same labels.
   Merged both ways with a third such tree, the tree and its reload must
   give one tree, and stay one under the third tree's insertions. *)
let retrace_case_gen =
  let open QCheck.Gen in
  let text = array_size (int_range 1 30) (int_range 0 3) in
  tup4
    (quad (int_range 3 4) (int_range 3 6) (int_range 3 8)
       (oneof [ int_range 8 120; return 100_000 ]))
    (oneofl Pruning.all)
    (list_size (int_range 1 4) text)
    (pair
       (list_size (int_range 0 6) (quad nat nat nat (int_range 1 3)))
       (list_size (int_range 0 6) (quad nat nat nat (int_range 1 3))))

(* The insertions of a plan over [texts] (symbols taken mod [a]): each
   segment [(i, x, y, r)] 1 + [r] times, then each text whole after
   its segment [(x, y)]. *)
let retrace_insertions a texts plan =
  let texts = Array.of_list (List.map (Array.map (fun c -> c mod a)) texts) in
  let segment s x y =
    let lo = x mod Array.length s in
    (s, lo, lo + (y mod (Array.length s - lo)))
  in
  let repeated (i, x, y, r) =
    List.init (1 + r) (fun _ -> segment texts.(i mod Array.length texts) x y)
  in
  let seeded s =
    [ segment s (Array.length s / 3) (Array.length s / 2); (s, 0, Array.length s - 1) ]
  in
  List.concat_map repeated plan @ List.concat_map seeded (Array.to_list texts)

let retraced_tails_match_slots
    ((a, significance, max_depth, max_nodes), pruning, texts, (plan, other)) =
  let cfg = cfg ~alphabet_size:a ~significance ~max_depth ~max_nodes ~pruning () in
  let labels t b =
    List.init (Pst.Crossings.length b) (fun i -> Pst.node_label t (Pst.Crossings.get b i))
  in
  (* [t] and [r] take one insertion and must stay one tree. *)
  let step t r (s, lo, hi) =
    let t0 = Pst.active_changes t and r0 = Pst.active_changes r in
    let bt = Pst.Crossings.create () and br = Pst.Crossings.create () in
    Pst.insert_segment ~crossings:bt t s ~lo ~hi;
    Pst.insert_segment ~crossings:br r s ~lo ~hi;
    Pst.to_string t = Pst.to_string r
    && Pst.n_nodes t = Pst.n_nodes r
    && Pst.active_changes t - t0 = Pst.active_changes r - r0
    && Pst.Crossings.length bt = Pst.Crossings.length br
    && ((not (Pst.grew_only t ~since:t0)) || labels t bt = labels r br)
    && Check.pst_invariants t = []
  in
  let reload t = Pst.of_string (Pst.to_string t) in
  let build plan =
    let t = Pst.create cfg in
    (List.for_all (fun ins -> step t (reload t) ins) (retrace_insertions a texts plan), t)
  in
  let ok, t = build plan in
  let ok_x, x = build other in
  let one_tree (mt, mr) =
    Pst.to_string mt = Pst.to_string mr
    && Pst.n_nodes mt = Pst.n_nodes mr
    && List.for_all (step mt mr) (retrace_insertions a texts other)
  in
  ok && ok_x
  && List.for_all one_tree
       [ (Pst.merge t x, Pst.merge (reload t) x); (Pst.merge x t, Pst.merge x (reload t)) ]

let print_retrace_case ((a, significance, max_depth, max_nodes), pruning, texts, (plan, other)) =
  let ints l = String.concat "," (List.map string_of_int l) in
  let plan_s p =
    String.concat "; " (List.map (fun (i, x, y, r) -> Printf.sprintf "(%d %d %d %d)" i x y r) p)
  in
  Printf.sprintf "alphabet %d, significance %d, max_depth %d, max_nodes %d, %s\n\
                  texts: %s\nplan: %s\nother: %s"
    a significance max_depth max_nodes (Pruning.to_string pruning)
    (String.concat "; " (List.map (fun s -> "[" ^ ints (Array.to_list s) ^ "]") texts))
    (plan_s plan) (plan_s other)

let print_prune_case (params, pruning, segments, target) =
  Printf.sprintf "%s\ntarget (mod n_nodes, + 1): %d"
    (print_tails_case (params, pruning, (segments, []), ([], [])))
    target

let storage_qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"inserts after pruning = inserts into its reloaded copy" ~count:60
         (QCheck.triple texts_gen texts_gen (QCheck.int_range 1 60))
         (fun (xs, ys, target) ->
           (* Pruning frees slots that later insertions reuse; a reloaded
              tree has fresh compact ids. The two must not be told apart. *)
           let t = build ~max_nodes:150 xs in
           Pst.prune_to t target;
           let reloaded = Pst.of_string (Pst.to_string t) in
           List.iter
             (fun s ->
               let s = Sequence.of_string alpha s in
               Pst.insert_sequence t s;
               Pst.insert_sequence reloaded s)
             ys;
           Pst.equal_structure t reloaded && Pst.n_nodes t = Pst.n_nodes reloaded));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"tails = slots: a tree and its reload stay one tree" ~count:300
         (QCheck.make ~print:print_tails_case tails_case_gen)
         tails_match_slots);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"retraced tails = slots: each insertion as into the reload"
         ~count:200
         (QCheck.make ~print:print_retrace_case retrace_case_gen)
         retraced_tails_match_slots);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"crossings reported = nodes turned active" ~count:300
         (QCheck.make ~print:print_crossings_case crossings_case_gen)
         crossings_match_walk);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"inserting into a copy leaves the original" ~count:60
         (QCheck.pair texts_gen texts_gen)
         (fun (xs, ys) ->
           let t = build ~max_nodes:80 xs in
           let before = Pst.to_string t in
           let c = Pst.copy t in
           List.iter (fun s -> Pst.insert_sequence c (Sequence.of_string alpha s)) ys;
           Pst.to_string t = before));
  ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let seq_gen = Gen_common.seq_gen ~max_len:60 ()

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"root count = total symbols" ~count:100 (QCheck.list_of_size (QCheck.Gen.int_range 0 10) seq_gen)
         (fun texts ->
           let t = build texts in
           Pst.total_count t = List.fold_left (fun acc s -> acc + String.length s) 0 texts));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"every node count matches occurrences" ~count:40 seq_gen
         (fun text ->
           let t = build [ text ] in
           let s = Sequence.of_string alpha text in
           let ok = ref true in
           Pst.iter_nodes t (fun node ->
               if Pst.node_depth t node > 0 then begin
                 let label = Array.of_list (Pst.node_label t node) in
                 if Pst.node_count t node <> Sequence.count_occurrences s ~pattern:label then
                   ok := false
               end);
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"prediction node label is a significant suffix" ~count:40
         (QCheck.pair seq_gen (QCheck.int_range 1 5))
         (fun (text, c) ->
           let t = build ~significance:c [ text ] in
           let s = Sequence.of_string alpha text in
           let ok = ref true in
           for pos = 0 to Array.length s - 1 do
             let node = Pst.prediction_node t s ~lo:0 ~pos in
             let label = Array.of_list (Pst.node_label t node) in
             let context = Array.sub s 0 pos in
             if not (Sequence.is_suffix_of label context) then ok := false;
             if Pst.node_depth t node > 0 && Pst.node_count t node < c then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"smoothed probabilities are a distribution" ~count:40 seq_gen
         (fun text ->
           let t = build ~p_min:0.002 [ text ] in
           let ok = ref true in
           Pst.iter_nodes t (fun node ->
               let dist = Pst.next_distribution t node in
               let s = Array.fold_left ( +. ) 0.0 dist in
               if Float.abs (s -. 1.0) > 1e-6 then ok := false;
               Array.iter (fun p -> if p < 0.0 || p > 1.0 then ok := false) dist);
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"child count never exceeds parent count" ~count:30
         (QCheck.list_of_size (QCheck.Gen.int_range 1 5) seq_gen)
         (fun texts ->
           (* The label of a child extends its parent's label, so it can
              only occur at most as often. *)
           let t = build texts in
           let ok = ref true in
           Pst.iter_nodes t (fun node ->
               let c = Pst.node_count t node in
               let label = Array.of_list (Pst.node_label t node) in
               (* every extension of the label by one front symbol *)
               for sym = 0 to 3 do
                 let ext = Array.append [| sym |] label in
                 match Pst.find_node t ext with
                 | Some child -> if Pst.node_count t child > c then ok := false
                 | None -> ()
               done);
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pruning never exceeds budget" ~count:40
         (QCheck.pair (QCheck.list seq_gen) (QCheck.int_range 1 40))
         (fun (texts, budget) ->
           let t = Pst.create (cfg ~max_nodes:budget ()) in
           List.iter (fun s -> Pst.insert_sequence t (Sequence.of_string alpha s)) texts;
           Pst.n_nodes t <= budget));
  ]

(* ------------------------------------------------------------------ *)
(* Merge properties (shard-and-merge support, DESIGN.md §14)           *)
(* ------------------------------------------------------------------ *)

let texts2 = Gen_common.texts_gen ~min_seqs:0 ~max_seqs:5 ~max_len:30 ()

let merge_qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge of halves = concatenated database" ~count:60
         (QCheck.pair texts2 texts2)
         (fun (xs, ys) ->
           (* With no pruning pressure the merged tree must carry exactly
              the counts a single tree would have accumulated over both
              halves. *)
           let whole = build (xs @ ys) in
           let merged = Pst.merge (build xs) (build ys) in
           Pst.equal_structure whole merged));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge scores = concatenated database scores (smoothed)" ~count:40
         (QCheck.triple texts2 texts2 (seq_gen))
         (fun (xs, ys, probe) ->
           let whole = build ~p_min:0.001 (xs @ ys) in
           let merged = Pst.merge (build ~p_min:0.001 xs) (build ~p_min:0.001 ys) in
           let s = Sequence.of_string alpha probe in
           let ok = ref true in
           for pos = 0 to Array.length s - 1 do
             let a = Pst.log_prob whole s ~lo:0 ~pos in
             let b = Pst.log_prob merged s ~lo:0 ~pos in
             if Float.abs (a -. b) > 1e-9 then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge is commutative" ~count:60 (QCheck.pair texts2 texts2)
         (fun (xs, ys) ->
           Pst.equal_structure (Pst.merge (build xs) (build ys)) (Pst.merge (build ys) (build xs))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge is associative" ~count:40
         (QCheck.triple texts2 texts2 texts2)
         (fun (xs, ys, zs) ->
           let a = build xs and b = build ys and c = build zs in
           Pst.equal_structure (Pst.merge (Pst.merge a b) c) (Pst.merge a (Pst.merge b c))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge leaves its inputs untouched" ~count:40
         (QCheck.pair texts2 texts2)
         (fun (xs, ys) ->
           let a = build xs and b = build ys in
           let a' = Pst.copy a and b' = Pst.copy b in
           ignore (Pst.merge a b);
           Pst.equal_structure a a' && Pst.equal_structure b b'));
  ]

let test_merge_config_mismatch () =
  let a = build ~max_depth:5 [ "abab" ] in
  let b = build ~max_depth:6 [ "abab" ] in
  match Pst.merge a b with
  | (_ : Pst.t) -> Alcotest.fail "expected Invalid_argument on config mismatch"
  | exception Invalid_argument _ -> ()

let test_merge_reprunes_over_budget () =
  (* Each half fits the node budget on its own; the union does not —
     merge must re-prune back under it. *)
  let a = build ~max_nodes:40 ~significance:1 [ "abcdefghij"; "klmnopqrst" ] in
  let b = build ~max_nodes:40 ~significance:1 [ "uvwxyzabcd"; "efghijklmn" ] in
  let m = Pst.merge a b in
  Alcotest.(check bool)
    (Printf.sprintf "budget held (%d <= 40)" (Pst.n_nodes m))
    true (Pst.n_nodes m <= 40)

let test_prune_large_then_small () =
  (* Pruning keeps its position arrays in a per-domain scratch, which a
     large tree leaves longer than a smaller one needs and full of the
     large tree's keys. A small tree pruned next on the same domain
     must still follow the reference order, whether those keys sort
     above its own (smallest-count after smallest-count) or below them
     (a deep longest-label tree, then a small tree of high counts). *)
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun (what, alphabet_size, max_depth, pruning, len, target) ->
      let t = Pst.create (cfg ~alphabet_size ~max_depth ~pruning ()) in
      Pst.insert_sequence t (Array.init len (fun _ -> Random.State.int rng alphabet_size));
      let want = Ref_prune.prune (Pst.to_string t) ~target in
      Pst.prune_to t target;
      Alcotest.(check string) what want (Pst.to_string t))
    [
      ("large tree", 4, 8, Pruning.Smallest_count_first, 3000, 500);
      ("small tree", 4, 8, Pruning.Smallest_count_first, 40, 10);
      ("large longest-label tree", 4, 8, Pruning.Longest_label_first, 3000, 500);
      ("small tree of high counts", 2, 2, Pruning.Smallest_count_first, 2000, 3);
    ]

(* Every pruning is timed into [pst.prune_seconds] once, those inside
   insertions and merges included. *)
let test_prune_timed_once_per_prune () =
  let timed = Obs.Metrics.histogram "pst.prune_seconds" in
  let observed, p =
    Gen_common.counting (Obs.Metrics.counter "pst.prunings") (fun () ->
        let h0 = Obs.Metrics.histogram_count timed in
        let a = build ~max_nodes:30 [ "abcdefghij"; "abcabcabcabc"; "jihgfedcba" ] in
        let b = build ~max_nodes:30 [ "klmnopqrst"; "tsrqponmlk" ] in
        ignore (Pst.merge a b);
        Pst.prune_to a 5;
        Pst.prune_to a 5;
        Obs.Metrics.histogram_count timed - h0)
  in
  Alcotest.(check bool) (Printf.sprintf "pruned (%d times)" p) true (p > 2);
  Alcotest.(check int) "one observation per pruning" p observed

let () =
  Alcotest.run "pst"
    [
      ( "structure",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "root count" `Quick test_root_count_is_total_symbols;
          Alcotest.test_case "node counts" `Quick test_node_counts_match_occurrences;
          Alcotest.test_case "next counts" `Quick test_next_counts_are_extension_counts;
          Alcotest.test_case "probability vectors" `Quick test_probability_vector_sums_to_one;
          Alcotest.test_case "hand-checked probabilities" `Quick test_figure1_style_probabilities;
          Alcotest.test_case "max depth" `Quick test_max_depth_limits_nodes;
          Alcotest.test_case "segment insert" `Quick test_insert_segment_matches_sub_sequence_insert;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "config validation" `Quick test_create_validation;
          Alcotest.test_case "pretty printer" `Quick test_pp_renders;
          Alcotest.test_case "foreign symbols rejected" `Quick test_insert_rejects_foreign_symbols;
        ] );
      ( "storage",
        Alcotest.test_case "golden serialization" `Quick test_golden_serialization
        :: Alcotest.test_case "insertion allocates nothing per symbol" `Quick
             test_insert_allocates_nothing_per_symbol
        :: Alcotest.test_case "re-insertion retraces tails" `Quick test_reinsertion_retraces_tails
        :: storage_qcheck_tests );
      ( "prediction",
        [
          Alcotest.test_case "longest significant suffix" `Quick
            test_prediction_node_is_longest_significant_suffix;
          Alcotest.test_case "empty context" `Quick test_prediction_node_empty_context;
          Alcotest.test_case "depth cap" `Quick test_prediction_respects_max_depth;
          Alcotest.test_case "uniform on empty tree" `Quick test_log_prob_uniform_on_empty;
          Alcotest.test_case "smoothing bounds" `Quick test_smoothing_bounds;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "budget respected" `Quick test_pruning_budget_respected;
          Alcotest.test_case "keeps high counts" `Quick test_prune_to_keeps_high_counts;
          Alcotest.test_case "all strategies" `Quick test_pruning_strategies_all_respect_target;
          Alcotest.test_case "longest-label removes deep" `Quick
            test_longest_label_pruning_removes_deep_first;
          Alcotest.test_case "timed once per prune" `Quick test_prune_timed_once_per_prune;
          Alcotest.test_case "ties: later lines first" `Quick test_pruning_ties_later_lines_first;
          Alcotest.test_case "large then small, one domain" `Quick test_prune_large_then_small;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"pruned = the reference order" ~count:500
               (QCheck.make ~print:print_prune_case prune_case_gen)
               prune_matches_reference);
        ] );
      ("property", qcheck_tests);
      ( "merge",
        Alcotest.test_case "config mismatch rejected" `Quick test_merge_config_mismatch
        :: Alcotest.test_case "re-prunes over budget" `Quick test_merge_reprunes_over_budget
        :: merge_qcheck_tests );
    ]
