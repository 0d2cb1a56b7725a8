(* Tests for the compiled scoring automaton (Psa): structural units plus
   QCheck properties asserting *exact* float equality between the
   compiled scans and the tree walk — the bit-for-bit contract the fuzz
   oracle (Check.psa_scoring_matches) also enforces — and between the
   block scan and the segment loop (Check.batch_scoring_matches). *)

open Gen_common

let seq_of s = Sequence.of_string alpha s

(* --- units --- *)

let test_empty_tree () =
  let pst = build_pst [] in
  let psa = Psa.compile pst in
  Alcotest.(check int) "one state" 1 (Psa.n_states psa);
  Alcotest.(check int) "alphabet" 26 (Psa.alphabet_size psa);
  Alcotest.(check int) "root depth" 0 (Psa.prediction_depth psa 0);
  let n = Psa.alphabet_size psa in
  for sym = 0 to n - 1 do
    Alcotest.(check int) "self-loop" 0 (Psa.step psa 0 sym)
  done;
  Alcotest.(check int) "table size" n (Bigarray.Array1.dim (Psa.transitions psa))

let test_transitions_in_range () =
  let pst = build_pst [ "abcabcabc"; "abcbabcba"; "aaaabbbb" ] in
  let psa = Psa.compile pst in
  let ns = Psa.n_states psa in
  Alcotest.(check bool) "has non-root states" true (ns > 1);
  (* Entries are row offsets, next state * n. *)
  let trans = Psa.transitions psa in
  for i = 0 to Bigarray.Array1.dim trans - 1 do
    let q = Bigarray.Array1.get trans i in
    Alcotest.(check bool) "a multiple of n" true (q mod 26 = 0);
    Alcotest.(check bool) "row in range" true (q >= 0 && q < ns * 26)
  done;
  Alcotest.(check int) "table shape" (ns * 26) (Bigarray.Array1.dim (Psa.transitions psa));
  Alcotest.(check int) "emit shape" (ns * 26) (Bigarray.Array1.dim (Psa.emissions psa));
  Alcotest.(check bool) "tables account their bytes" true (Psa.table_bytes psa >= 16 * ns * 26)

let test_empty_sequence () =
  let pst = build_pst [ "abab" ] in
  let psa = Psa.compile pst in
  let empty = seq_of "" in
  let a = Similarity.score pst ~log_background:uniform_lbg empty in
  let b = Similarity.score_psa psa ~log_background:uniform_lbg empty in
  Alcotest.(check bool) "empty result equal" true (a = b);
  Alcotest.(check int) "xs empty" 0
    (Array.length (Similarity.xs_psa psa ~log_background:uniform_lbg empty))

let test_symbol_out_of_alphabet () =
  let pst = build_pst ~alphabet_size:4 [ "abab" ] in
  let psa = Psa.compile pst in
  let lbg = Array.make 26 (log (1.0 /. 26.0)) in
  let outside = Invalid_argument "Psa.score_batch: symbol outside the compiled alphabet" in
  Alcotest.check_raises "symbol 25 vs alphabet 4" outside (fun () ->
      ignore (Similarity.score_psa psa ~log_background:lbg (seq_of "abz")));
  let batch = Psa.batch_create () in
  Alcotest.check_raises "batched symbol 25 vs alphabet 4" outside (fun () ->
      ignore (Similarity.score_batch psa ~log_background:lbg ~batch [| seq_of "abz" |]));
  (* Symbols just outside [0, n) on either side, first and last in each
     lane of a block whose other lanes are valid, for both loops. The
     block scan fills its four slots with lanes 0-3, refills lanes 4-6
     as the shorter lanes finish, and runs the last lanes alone; the
     segment loop scans each lane on its own. *)
  let valid =
    [| [| 0; 1; 2 |]; [| 3; 2 |]; [| 1; 3; 0; 2; 1 |]; [| 2 |]; [| 0; 0; 1; 1; 2; 2 |]; [| 3 |];
       [| 1; 2; 3 |] |]
  in
  let column = Similarity.column (Array.length valid) in
  List.iter
    (fun bad ->
      Array.iteri
        (fun lane s ->
          List.iter
            (fun pos ->
              let block = Array.map Array.copy valid in
              block.(lane).(pos) <- bad;
              let name loop =
                Printf.sprintf "%s: symbol %d in lane %d at %d" loop bad lane pos
              in
              Alcotest.check_raises (name "block scan") outside (fun () ->
                  Similarity.score_block psa ~log_background:lbg column ~at:0 block);
              Alcotest.check_raises (name "segment loop") outside (fun () ->
                  Psa.score_batch psa ~log_background:lbg ~batch block))
            [ 0; Array.length s - 1 ])
        valid)
    [ -1; 4 ];
  (* The columns must hold the block at its offset, or the lane's cell,
     checked before any write. *)
  List.iter
    (fun (at, size) ->
      Alcotest.check_raises
        (Printf.sprintf "two lanes at %d of %d cells" at size)
        (Invalid_argument "Psa.score_into: columns shorter than at + lanes")
        (fun () ->
          Psa.score_into psa ~log_background:lbg (Array.sub valid 0 2) ~at
            ~log_sim:(Array.make size 0.0)))
    [ (-1, 4); (3, 4); (0, 1) ];
  List.iter
    (fun (at, (log_sim, seg_lo, seg_hi)) ->
      Alcotest.check_raises
        (Printf.sprintf "a segment at %d" at)
        (Invalid_argument "Psa.segment_into: cell outside the columns")
        (fun () ->
          Psa.segment_into psa ~log_background:lbg valid.(0) ~at ~log_sim ~seg_lo ~seg_hi))
    [
      (-1, (Array.make 2 0.0, Array.make 2 0, Array.make 2 0));
      (2, (Array.make 2 0.0, Array.make 2 0, Array.make 2 0));
      (1, (Array.make 2 0.0, Array.make 1 0, Array.make 2 0));
      (1, (Array.make 2 0.0, Array.make 2 0, Array.make 1 0));
    ]

let test_validate_log_background () =
  Similarity.validate_log_background uniform_lbg;
  Similarity.validate_log_background [| 0.0; -1.5 |];
  let rejects lbg =
    match Similarity.validate_log_background lbg with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  rejects [| -1.0; neg_infinity |];
  rejects [| nan |];
  rejects [| 0.5 |]

(* --- batch units: block shapes the properties may hit rarely --- *)

let test_batch_shapes () =
  let pst = build_pst [ "abcabcabc"; "aabbaabb" ] in
  let psa = Psa.compile pst in
  let batch = Psa.batch_create ~capacity:1 () in
  let score_serial s = Similarity.score_psa psa ~log_background:uniform_lbg s in
  let check_block name block =
    let got = Similarity.score_batch psa ~log_background:uniform_lbg ~batch block in
    let want = Array.map score_serial block in
    Alcotest.(check bool) name true (Array.for_all2 Check.same_result got want)
  in
  check_block "empty block" [||];
  check_block "singleton block" [| seq_of "abcab" |];
  check_block "block of empties" [| seq_of ""; seq_of "" |];
  (* Mixed lengths out of order: exercises the longest-first lane sort
     and lane retirement; includes an empty lane in the middle. *)
  check_block "mixed lengths"
    [| seq_of "ab"; seq_of "abcabcabcabc"; seq_of ""; seq_of "b"; seq_of "aabb" |];
  (* The capacity-1 scratch has grown by now; a small block after a large
     one checks stale columns are re-initialized. *)
  check_block "small after large" [| seq_of "ba" |];
  Alcotest.(check bool) "scratch grew" true (Psa.batch_capacity batch >= 5)

(* --- kernel edge cases: signed zeros and ties --- *)

(* A one-symbol alphabet whose background is [|0.0|], so each X_i is
   the emission itself. *)
let one_symbol_lbg = [| 0.0 |]

(* Floats compared by their bits, printed in hex: -0x0p+0 vs 0x0p+0. *)
let bits = Alcotest.testable (fun ppf x -> Format.fprintf ppf "%h" x) Check.same_bits
let check_bits name want got = Alcotest.check bits name want got

(* The block scan over the prefixes of [s] of lengths 0, 1, 2, 3, 4, 0
   and 1, scored into a column of NaN: an empty lane meets the first fill
   (lane 0) and a refill (lane 5), a short lane finishes a round, and
   lanes 3 and 4 finish alone. Every nonempty lane's cell must hold
   [want]'s bits, an empty lane's -inf. *)
let check_block_bits name psa s want =
  let block = Array.init 7 (fun j -> Array.sub s 0 (min (Array.length s) (j mod 5))) in
  let column = Similarity.column 7 in
  Array.fill column.log_sims 0 7 Float.nan;
  Similarity.score_block psa ~log_background:one_symbol_lbg column ~at:0 block;
  Array.iteri
    (fun j lane ->
      check_bits
        (Printf.sprintf "%s, block lane %d" name j)
        (if Array.length lane = 0 then neg_infinity else want)
        column.log_sims.(j))
    block

(* An empty tree emits log_uniform = -. log 1 = -0.0 for the one
   symbol. The first X_i starts the segment: both loops must add it to
   an identity that keeps its sign, and -0.0 + -0.0 = -0.0 after it. *)
let test_kernel_negative_zero () =
  let pst = build_pst ~alphabet_size:1 [] in
  let psa = Psa.compile pst and s = seq_of "aaaa" in
  Array.iter (check_bits "X_i" (-0.0)) (Similarity.xs_psa psa ~log_background:one_symbol_lbg s);
  let r = Similarity.score_psa psa ~log_background:one_symbol_lbg s in
  check_bits "log_sim" (-0.0) r.log_sim;
  Alcotest.(check (pair int int)) "segment" (0, 0) (r.seg_lo, r.seg_hi);
  Alcotest.(check bool) "= tree walk" true
    (Check.same_result r (Similarity.score pst ~log_background:one_symbol_lbg s));
  check_block_bits "log_sim" psa s (-0.0)

(* Trained at p_min 0, every context predicts its one symbol with
   probability 1, so every X_i is +0.0: the running segment only ties
   the best, and a tie keeps the older segment. *)
let test_kernel_tie () =
  let pst = build_pst ~alphabet_size:1 ~p_min:0.0 [ "aaaaaaaa" ] in
  let psa = Psa.compile pst and s = seq_of "aaaa" in
  Array.iter (check_bits "X_i" 0.0) (Similarity.xs_psa psa ~log_background:one_symbol_lbg s);
  let r = Similarity.score_psa psa ~log_background:one_symbol_lbg s in
  check_bits "log_sim" 0.0 r.log_sim;
  Alcotest.(check (pair int int)) "segment" (0, 0) (r.seg_lo, r.seg_hi);
  Alcotest.(check bool) "= tree walk" true
    (Check.same_result r (Similarity.score pst ~log_background:one_symbol_lbg s));
  check_block_bits "log_sim" psa s 0.0

(* --- the kernel at an offset --- *)

(* A block of 0-9 lanes, each of 0-40 symbols over an alphabet of 1-6,
   scored into a column at a random offset: fewer than four lanes run
   alone, more fill the block scan's four slots and refill them. Lane j
   must land at [at + j] bit for bit as the lane's log-similarity by the
   segment loop (and by the tree walk), and every index outside
   [at, at + lanes) must keep its sentinel. *)
let offset_block_arb =
  let open QCheck.Gen in
  let gen =
    int_range 1 6 >>= fun k ->
    let seq = array_size (int_range 0 40) (int_range 0 (k - 1)) in
    map
      (fun ((texts, block), (at, pad)) -> (k, texts, block, at, pad))
      (pair
         (pair (list_size (int_range 0 4) seq) (array_size (int_range 0 9) seq))
         (pair (int_range 0 70) (int_range 0 3)))
  in
  QCheck.make
    ~print:(fun (k, texts, block, at, pad) ->
      let lengths = Array.to_list (Array.map (fun s -> string_of_int (Array.length s)) block) in
      Printf.sprintf "alphabet %d, %d training sequences, lanes of lengths [%s] at %d (+%d)" k
        (List.length texts) (String.concat ";" lengths) at pad)
    gen

let prop_offset_block =
  QCheck.Test.make ~name:"block at an offset = one-lane scans, nothing written outside" ~count:300
    offset_block_arb (fun (k, texts, block, at, pad) ->
      let pst = build_pst ~alphabet_size:k [] in
      List.iter (Pst.insert_sequence pst) texts;
      let psa = Psa.compile pst in
      let lbg = Array.make k (log (1.0 /. float_of_int k)) in
      let lanes = Array.length block in
      let size = at + lanes + pad in
      let log_sim = Array.make size Float.nan in
      Psa.score_into psa ~log_background:lbg block ~at ~log_sim;
      List.for_all
        (fun i ->
          let got = log_sim.(i) in
          if i < at || i >= at + lanes then Check.same_bits got Float.nan
          else
            let s = block.(i - at) in
            Check.same_bits got (Similarity.score_psa psa ~log_background:lbg s).log_sim
            && Check.same_bits got (Similarity.score pst ~log_background:lbg s).log_sim)
        (List.init size Fun.id))

(* --- refresh: in place while the active contexts hold still --- *)

let tables_equal_fresh name pst psa =
  Alcotest.(check (list string)) name [] (Check.psa_tables_match ~fresh:(Psa.compile pst) psa)

let test_refresh_lifecycle () =
  (* Every context of "abcabc" is seen at most twice: below c = 3, so
     the automaton is the root alone. *)
  let pst = build_pst ~significance:3 [ "abcabc" ] in
  let psa = Psa.compile pst in
  Alcotest.(check int) "root only" 1 (Psa.n_states psa);
  (* Counts move but no context reaches 3: the root row is rewritten in
     place and the tables equal a fresh compile's. *)
  Pst.insert_segment pst (seq_of "dd") ~lo:0 ~hi:1;
  Alcotest.(check bool) "refreshed in place" true (Psa.refresh psa pst);
  tables_equal_fresh "refreshed = fresh compile" pst psa;
  (* 'a' reaches the significance count: the active set grew, and the
     refresh patches a state in for the crossing the insertion reported.
     Without the report it refuses: the buffer must account for every
     crossing. *)
  let crossings = Pst.Crossings.create () in
  Pst.insert_segment ~crossings pst (seq_of "a") ~lo:0 ~hi:0;
  Alcotest.(check int) "one crossing reported" 1 (Pst.Crossings.length crossings);
  Alcotest.(check bool) "refused without the crossing" false (Psa.refresh psa pst);
  Alcotest.(check int) "states untouched without the crossing" 1 (Psa.n_states psa);
  Alcotest.(check bool) "patched after a crossing" true (Psa.refresh ~crossings psa pst);
  Alcotest.(check int) "the patch adds the context" 2 (Psa.n_states psa);
  tables_equal_fresh "patched = fresh compile" pst psa;
  Alcotest.(check bool) "refused against a copy" false (Psa.refresh psa (Pst.copy pst));
  (* Pruning that removes a significant node shrinks the active set,
     which only a recompile follows: the refresh leaves the automaton
     as it was. *)
  let before = Psa.emission psa 1 0 in
  Pst.prune_to pst 1;
  Alcotest.(check bool) "refused after pruning a significant node" false (Psa.refresh psa pst);
  Alcotest.(check int) "states untouched when refused" 2 (Psa.n_states psa);
  Alcotest.(check (float 0.0)) "rows untouched when refused" before (Psa.emission psa 1 0)

(* One repeated symbol, inserted as ever longer prefixes of "aaaaaaaa"
   under c = 2: a, aa, aaa, ... cross one insertion at a time. Each new
   context's parent is its label minus the newest symbol, and the
   context lies in that node's subtree, so its state must reach itself
   on 'a' — the case that needs the state registered before the
   transitions into it are swept. *)
let test_patch_repeated_symbol () =
  let pst = build_pst ~significance:2 [] in
  let psa = Psa.compile pst in
  let s = seq_of "aaaaaaaa" and crossings = Pst.Crossings.create () in
  for hi = 0 to Array.length s - 1 do
    Pst.Crossings.clear crossings;
    Pst.insert_segment ~crossings pst s ~lo:0 ~hi;
    Alcotest.(check bool) "patched" true (Psa.refresh ~crossings psa pst);
    Alcotest.(check int) "one new context per insertion" (hi + 1) (Psa.n_states psa);
    tables_equal_fresh (Printf.sprintf "prefix %d: patched = fresh compile" hi) pst psa
  done

(* One insertion of [text], its crossings checked against the
   active-tree walk; the automaton's state count and the active nodes
   before it. *)
let insert_checked pst psa crossings text =
  let before = Check.active_nodes pst and states = Psa.n_states psa in
  let s = seq_of text in
  Pst.insert_segment ~crossings pst s ~lo:0 ~hi:(Array.length s - 1);
  Alcotest.(check (list string)) (text ^ ": crossings = new active nodes") []
    (Check.crossings_match ~before pst crossings);
  (states, before)

(* At c = 2 a context seen once is a tail node, and its second
   occurrence takes it to significance, so the walk splits the tail one
   node at a time as it goes down instead of retracing it; the
   node that crosses is a slot the split has just made, and that slot's
   id is the one reported. *)
let test_crossing_on_split_slot () =
  let pst = build_pst ~significance:2 [ "ab" ] in
  let psa = Psa.compile pst and crossings = Pst.Crossings.create () in
  let tail = Option.get (Pst.find_node pst (seq_of "ab")) in
  Alcotest.(check bool) "\"ab\" starts on a tail" true ((tail :> int) >= Pst.node_id_bound pst);
  let states, _ = insert_checked pst psa crossings "ab" in
  let ab = Option.get (Pst.find_node pst (seq_of "ab")) in
  Alcotest.(check bool) "\"ab\" is now a slot" true ((ab :> int) < Pst.node_id_bound pst);
  Alcotest.(check (list int)) "a, b, then the split's slot"
    (List.map
       (fun l -> (Option.get (Pst.find_node pst (seq_of l)) :> int))
       [ "a"; "b"; "ab" ])
    (List.init (Pst.Crossings.length crossings) (fun i ->
         (Pst.Crossings.get crossings i :> int)));
  Alcotest.(check bool) "patched" true (Psa.refresh ~crossings psa pst);
  Alcotest.(check int) "three new states" (states + 3) (Psa.n_states psa);
  tables_equal_fresh "patched = fresh compile" pst psa

(* Two absorbs before one refresh: the buffer keeps the crossings of
   both, and one patch adds them all. *)
let test_crossings_accumulate () =
  let pst = build_pst ~significance:2 [ "ab"; "cd" ] in
  let psa = Psa.compile pst and crossings = Pst.Crossings.create () in
  let states, before = insert_checked pst psa crossings "ab" in
  let first = Pst.Crossings.length crossings in
  let cd = seq_of "cd" in
  Pst.insert_segment ~crossings pst cd ~lo:0 ~hi:1;
  Alcotest.(check (list string)) "both insertions' crossings" []
    (Check.crossings_match ~before pst crossings);
  Alcotest.(check bool) "both crossed" true
    (first > 0 && Pst.Crossings.length crossings > first);
  Alcotest.(check bool) "patched" true (Psa.refresh ~crossings psa pst);
  Alcotest.(check int) "one state per crossing" (states + Pst.Crossings.length crossings)
    (Psa.n_states psa);
  tables_equal_fresh "patched = fresh compile" pst psa

(* Pruning that takes only insignificant nodes between the insertion
   and the refresh leaves every reported id naming its node, so the
   patch still applies. *)
let test_patch_after_insignificant_pruning () =
  let pst = build_pst ~significance:2 [ "abcabd"; "dcba" ] in
  let psa = Psa.compile pst and crossings = Pst.Crossings.create () in
  let since = Pst.active_changes pst in
  let states, _ = insert_checked pst psa crossings "abcx" in
  Alcotest.(check bool) "crossed" true (Pst.Crossings.length crossings > 0);
  let nodes = Pst.n_nodes pst in
  Pst.prune_to pst (nodes - 3);
  Alcotest.(check bool) "pruned" true (Pst.n_nodes pst < nodes);
  Alcotest.(check bool) "no significant node pruned" true (Pst.grew_only pst ~since);
  Alcotest.(check bool) "patched" true (Psa.refresh ~crossings psa pst);
  Alcotest.(check int) "one state per crossing" (states + Pst.Crossings.length crossings)
    (Psa.n_states psa);
  tables_equal_fresh "patched = fresh compile" pst psa

(* Pruning can take L' = "x" while L = "xy" survives (here loaded from a
   serialization: "y" seen 3 times, "xy" once, no "x"). Then "xy"
   crosses before "x" does, and the buffer holds them deepest first;
   the patch must still add "x" first, or the sweep below "x" finds no
   state and "x" never reaches "xy" on 'y'. *)
let test_patch_in_depth_order () =
  let pst =
    Pst.of_string
      "pst 1\nconfig 26 10 2 100000 0 smallest-count\nnode - 4\nnode 24 3\nnode 24,23 1\nend\n"
  in
  let psa = Psa.compile pst and crossings = Pst.Crossings.create () in
  let states, before = insert_checked pst psa crossings "xy" in
  Pst.insert_segment ~crossings pst (seq_of "x") ~lo:0 ~hi:0;
  Alcotest.(check (list string)) "both crossings" [] (Check.crossings_match ~before pst crossings);
  Alcotest.(check (list int)) "\"xy\" crossed before \"x\""
    (List.map (fun l -> (Option.get (Pst.find_node pst (seq_of l)) :> int)) [ "xy"; "x" ])
    (List.init (Pst.Crossings.length crossings) (fun i ->
         (Pst.Crossings.get crossings i :> int)));
  Alcotest.(check bool) "patched" true (Psa.refresh ~crossings psa pst);
  Alcotest.(check int) "two new states" (states + 2) (Psa.n_states psa);
  tables_equal_fresh "patched = fresh compile" pst psa

(* --- properties: exact equality with the tree walk --- *)

let exact_match pst probes =
  List.for_all
    (fun text ->
      let s = seq_of text in
      let psa = Psa.compile pst in
      let ref_xs = Similarity.xs pst ~log_background:uniform_lbg s in
      let got_xs = Similarity.xs_psa psa ~log_background:uniform_lbg s in
      Array.length ref_xs = Array.length got_xs
      && Array.for_all2 Check.same_bits ref_xs got_xs
      && Check.same_result
           (Similarity.score pst ~log_background:uniform_lbg s)
           (Similarity.score_psa psa ~log_background:uniform_lbg s))
    probes

(* The whole probe list scored as ONE block must reproduce the tree
   walk to the bit ([=] would take -0.0 for +0.0): the block scan's
   log-similarities, and the segment loop's records, through a scratch
   and one sequence at a time. *)
let exact_batch_match pst probes =
  let psa = Psa.compile pst in
  let block = Array.of_list (List.map seq_of probes) in
  let batch = Psa.batch_create ~capacity:1 () in
  let batched = Similarity.score_batch psa ~log_background:uniform_lbg ~batch block in
  let serial = Array.map (Similarity.score_psa psa ~log_background:uniform_lbg) block in
  let tree = Array.map (Similarity.score pst ~log_background:uniform_lbg) block in
  let column = Similarity.column (Array.length block) in
  Similarity.score_block psa ~log_background:uniform_lbg column ~at:0 block;
  Array.for_all2 Check.same_result batched serial
  && Array.for_all2 Check.same_result batched tree
  && Array.for_all2
       (fun x (r : Similarity.result) -> Check.same_bits x r.log_sim)
       column.log_sims tree

let arb_texts_and_probes ?last () =
  QCheck.pair (texts_gen ~max_seqs:4 ()) (texts_gen ~min_seqs:1 ~max_seqs:3 ?last ())

let prop name ?p_min ?significance ?(last = 'd') ?(prune = false) () =
  QCheck.Test.make ~name ~count:150
    (arb_texts_and_probes ~last ())
    (fun (texts, probes) ->
      let pst = build_pst ?p_min ?significance texts in
      if prune then Pst.prune_to pst (max 1 (Pst.n_nodes pst / 2));
      exact_match pst probes)

let batch_prop name ?p_min ?significance ?(last = 'd') ?(prune = false) () =
  QCheck.Test.make ~name ~count:150
    (* min_seqs:0 admits the empty block; max_seqs:6 gives blocks larger
       than the scratch's initial capacity. *)
    (QCheck.pair (texts_gen ~max_seqs:4 ()) (texts_gen ~min_seqs:0 ~max_seqs:6 ~last ()))
    (fun (texts, probes) ->
      let pst = build_pst ?p_min ?significance texts in
      if prune then Pst.prune_to pst (max 1 (Pst.n_nodes pst / 2));
      exact_batch_match pst probes)

(* A stream of segments inserted into a tree with a small significance
   count, one automaton kept current by refresh-or-recompile — the
   cluster lifecycle. After every insertion it must equal a fresh
   compile (up to state numbering) and score each probe exactly like
   the tree walk (X_i profile, log-similarity, segment bounds,
   prediction depth per position), and [pst.patches] must have counted
   the refresh if, and only if, it added states. [~pruned:true] sets a
   node budget that forces pruning, so refreshes refuse and recompiles
   happen. Under [~pruned:false] the budget is never reached, and then
   every crossing must be patched: the refresh never refuses. *)
let maintained_prop name ~p_min ~pruned =
  let max_nodes = if pruned then 40 else 100_000 in
  let segment = QCheck.(triple (make (QCheck.gen (seq_gen ~max_len:20 ()))) small_nat small_nat) in
  let patches = Obs.Metrics.counter "pst.patches" in
  QCheck.Test.make ~name ~count:150
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 12) segment)
        (texts_gen ~min_seqs:1 ~max_seqs:3 ())
        (oneofl Pruning.[ Smallest_count_first; Longest_label_first; Expected_vector_first ]))
    (fun (stream, probes, pruning) ->
      let metrics_were_on = Obs.Metrics.is_enabled () in
      Obs.Metrics.enable ();
      Fun.protect ~finally:(fun () -> if not metrics_were_on then Obs.Metrics.disable ())
      @@ fun () ->
      let pst = build_pst ~p_min ~significance:2 ~max_nodes ~pruning [] in
      let probes = Array.of_list (List.map seq_of probes) in
      let psa = ref (Psa.compile pst) and crossings = Pst.Crossings.create () in
      List.for_all
        (fun (text, a, b) ->
          let s = seq_of text in
          let l = Array.length s in
          let lo = a mod l in
          Pst.insert_segment ~crossings pst s ~lo ~hi:(lo + (b mod (l - lo)));
          let states = Psa.n_states !psa and counted = Obs.Metrics.counter_value patches in
          let refreshed = Psa.refresh ~crossings !psa pst in
          let patched = refreshed && Psa.n_states !psa > states in
          if not refreshed then psa := Psa.compile pst;
          Pst.Crossings.clear crossings;
          (refreshed || pruned)
          && Obs.Metrics.counter_value patches - counted = Bool.to_int patched
          && Check.psa_tables_match ~fresh:(Psa.compile pst) !psa = []
          && Check.psa_scoring_matches ~psa:!psa pst ~log_background:uniform_lbg probes = [])
        stream)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (maintained_prop "maintained psa = fresh = tree walk" ~p_min:0.0 ~pruned:true);
    QCheck_alcotest.to_alcotest
      (maintained_prop "maintained psa = fresh = tree walk (p_min = 0.01)" ~p_min:0.01
         ~pruned:true);
    QCheck_alcotest.to_alcotest
      (maintained_prop "maintained psa = fresh = tree walk (never pruned, all patched)"
         ~p_min:0.0 ~pruned:false);
    QCheck_alcotest.to_alcotest (prop "psa = tree walk (p_min = 0)" ~p_min:0.0 ());
    QCheck_alcotest.to_alcotest (prop "psa = tree walk (p_min = 0.02)" ~p_min:0.02 ());
    QCheck_alcotest.to_alcotest
      (prop "psa = tree walk (significance 1, deep tree)" ~significance:1 ());
    (* Probes over the full alphabet against a tree trained on 'a'..'d':
       most probe symbols have no node anywhere in the tree. *)
    QCheck_alcotest.to_alcotest (prop "psa = tree walk (absent symbols)" ~last:'z' ());
    (* Pruning can remove a context while a longer extension survives —
       the case that forces the automaton's closure states. *)
    QCheck_alcotest.to_alcotest (prop "psa = tree walk (pruned tree)" ~prune:true ());
    QCheck_alcotest.to_alcotest
      (prop "psa = tree walk (pruned, p_min = 0.01)" ~prune:true ~p_min:0.01 ());
    QCheck_alcotest.to_alcotest (batch_prop "batch = serial = tree walk" ());
    QCheck_alcotest.to_alcotest
      (batch_prop "batch = serial = tree walk (absent symbols)" ~last:'z' ());
    QCheck_alcotest.to_alcotest
      (batch_prop "batch = serial = tree walk (pruned tree)" ~prune:true ());
    (* The fuzz oracles themselves: no violations on random trees/probes. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Check.psa_scoring_matches finds no violations" ~count:100
         (arb_texts_and_probes ())
         (fun (texts, probes) ->
           let pst = build_pst texts in
           let probes = Array.of_list (List.map seq_of probes) in
           Check.psa_scoring_matches pst ~log_background:uniform_lbg probes = []));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Check.batch_scoring_matches finds no violations" ~count:100
         (arb_texts_and_probes ())
         (fun (texts, probes) ->
           let pst = build_pst texts in
           let probes = Array.of_list (List.map seq_of probes) in
           let blocks = [ [||]; probes; [| [||] |]; Array.sub probes 0 1 ] in
           Check.batch_scoring_matches pst ~log_background:uniform_lbg blocks = []));
    QCheck_alcotest.to_alcotest prop_offset_block;
  ]

let () =
  Alcotest.run "psa"
    [
      ( "unit",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "transitions in range" `Quick test_transitions_in_range;
          Alcotest.test_case "empty sequence" `Quick test_empty_sequence;
          Alcotest.test_case "symbol out of alphabet" `Quick test_symbol_out_of_alphabet;
          Alcotest.test_case "validate_log_background" `Quick test_validate_log_background;
          Alcotest.test_case "batch block shapes" `Quick test_batch_shapes;
          Alcotest.test_case "kernel: -0.0 stays -0.0" `Quick test_kernel_negative_zero;
          Alcotest.test_case "kernel: a tie keeps the segment" `Quick test_kernel_tie;
          Alcotest.test_case "refresh lifecycle" `Quick test_refresh_lifecycle;
          Alcotest.test_case "patch a repeated symbol" `Quick test_patch_repeated_symbol;
          Alcotest.test_case "crossing on a slot a split made" `Quick test_crossing_on_split_slot;
          Alcotest.test_case "crossings of two insertions accumulate" `Quick
            test_crossings_accumulate;
          Alcotest.test_case "patch after insignificant pruning" `Quick
            test_patch_after_insignificant_pruning;
          Alcotest.test_case "patch in depth order" `Quick test_patch_in_depth_order;
        ] );
      ("property", qcheck_tests);
    ]
