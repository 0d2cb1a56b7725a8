(* Tests for the direct CPD-difference measures (paper Sec. 2's variational
   distance and symmetrized KL divergence). *)

let alpha = Alphabet.lowercase

let cfg : Pst.config =
  { (Pst.default_config ~alphabet_size:26) with significance = 3; p_min = 1e-3 }

let build texts =
  let t = Pst.create cfg in
  List.iter (fun s -> Pst.insert_sequence t (Sequence.of_string alpha s)) texts;
  t

let ab_corpus = [ "ababababab"; "babababa"; "abababab" ]
let cd_corpus = [ "cdcdcdcdcd"; "dcdcdcdc"; "cdcdcdcd" ]
let ab_corpus2 = [ "babababab"; "ababababa"; "babab" ]

let test_self_divergence_zero () =
  let t = build ab_corpus in
  Alcotest.(check (float 1e-9)) "variational self" 0.0 (Divergence.variational t t);
  Alcotest.(check (float 1e-9)) "kl self" 0.0 (Divergence.kl_symmetric t t)

let test_similar_less_than_different () =
  let a = build ab_corpus and a' = build ab_corpus2 and c = build cd_corpus in
  Alcotest.(check bool) "variational: same-style < different-style" true
    (Divergence.variational a a' < Divergence.variational a c);
  Alcotest.(check bool) "kl: same-style < different-style" true
    (Divergence.kl_symmetric a a' < Divergence.kl_symmetric a c)

let test_symmetry () =
  let a = build ab_corpus and c = build cd_corpus in
  Alcotest.(check (float 1e-9)) "variational symmetric" (Divergence.variational a c)
    (Divergence.variational c a);
  Alcotest.(check (float 1e-9)) "kl symmetric" (Divergence.kl_symmetric a c)
    (Divergence.kl_symmetric c a)

let test_bounds () =
  let a = build ab_corpus and c = build cd_corpus in
  let v = Divergence.variational a c in
  Alcotest.(check bool) "variational in [0,2]" true (v >= 0.0 && v <= 2.0);
  Alcotest.(check bool) "kl non-negative" true (Divergence.kl_symmetric a c >= 0.0)

let test_alphabet_mismatch () =
  let a = build ab_corpus in
  let b = Pst.create (Pst.default_config ~alphabet_size:4) in
  Alcotest.check_raises "mismatch" (Invalid_argument "Divergence: alphabet size mismatch")
    (fun () -> ignore (Divergence.variational a b))

let test_empty_trees () =
  let a = Pst.create cfg and b = Pst.create cfg in
  Alcotest.(check (float 1e-9)) "no contexts = 0" 0.0 (Divergence.variational a b)

let seq_gen = QCheck.(string_gen_of_size (Gen.int_range 5 40) (Gen.char_range 'a' 'd'))

(* Two random trees over one alphabet, each with its own depth,
   significance and smoothing floor, and a node budget that is often
   small enough to prune — which leaves contexts whose exact node is
   gone or insignificant, so lookups take the prediction fallback. *)
let tree_pair_gen =
  let open QCheck.Gen in
  let tree sigma =
    let* max_depth = int_range 1 5 in
    let* significance = int_range 1 4 in
    let* p_min = oneofl [ 0.0; 1e-3; 0.01 ] in
    let* max_nodes = oneofl [ 3; 8; 20; 100_000 ] in
    let* pruning =
      oneofl
        [ Pruning.Smallest_count_first; Pruning.Longest_label_first; Pruning.Expected_vector_first ]
    in
    let* seqs = list_size (int_range 1 5) (array_size (int_range 0 30) (int_bound (sigma - 1))) in
    return
      ( { Pst.alphabet_size = sigma; max_depth; significance; max_nodes; p_min; pruning },
        seqs )
  in
  let* sigma = int_range 2 5 in
  pair (tree sigma) (tree sigma)

let build_tree (cfg, seqs) =
  let t = Pst.create cfg in
  List.iter (Pst.insert_sequence t) seqs;
  t

(* The profile pass must reproduce the tree walk it replaced to the last
   bit, in both argument orders (the orders sum differently), and
   against itself. *)
let profiles_match_reference (a, b) =
  let a = build_tree a and b = build_tree b in
  Check.divergence_matches a b = [] && Check.divergence_matches a a = []

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"variational within [0,2] and symmetric" ~count:100
         (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 4) seq_gen)
            (QCheck.list_of_size (QCheck.Gen.int_range 1 4) seq_gen))
         (fun (xs, ys) ->
           let a = build xs and b = build ys in
           let v = Divergence.variational a b in
           v >= 0.0 && v <= 2.0 +. 1e-9
           && Float.abs (v -. Divergence.variational b a) < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"kl non-negative and zero on self" ~count:100 seq_gen (fun s ->
           let a = build [ s ] in
           let self = Divergence.kl_symmetric a a in
           self >= 0.0 && self < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"profiles equal the tree-walk reference bit for bit" ~count:500
         (QCheck.make tree_pair_gen) profiles_match_reference);
  ]

let () =
  Alcotest.run "divergence"
    [
      ( "unit",
        [
          Alcotest.test_case "self is zero" `Quick test_self_divergence_zero;
          Alcotest.test_case "similar < different" `Quick test_similar_less_than_different;
          Alcotest.test_case "symmetry" `Quick test_symmetry;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "alphabet mismatch" `Quick test_alphabet_mismatch;
          Alcotest.test_case "empty trees" `Quick test_empty_trees;
        ] );
      ("property", qcheck_tests);
    ]
