(* Tests for q-gram profiles and spherical k-means. *)

let alpha = Alphabet.lowercase
let enc = Sequence.of_string alpha

let test_profile_dimensions () =
  (* "abab" has 3-grams: aba, bab. *)
  let p = Qgram.profile ~q:3 (enc "abab") in
  Alcotest.(check int) "two distinct 3-grams" 2 (Qgram.dimensions p);
  let p2 = Qgram.profile ~q:5 (enc "abab") in
  Alcotest.(check int) "too short for q=5" 0 (Qgram.dimensions p2)

let test_profile_invalid_q () =
  Alcotest.check_raises "q = 0" (Invalid_argument "Qgram.profile") (fun () ->
      ignore (Qgram.profile ~q:0 (enc "abc")))

let test_cosine_self () =
  let p = Qgram.profile ~q:3 (enc "abcabcabc") in
  Alcotest.(check (float 1e-9)) "self similarity 1" 1.0 (Qgram.cosine p p)

let test_cosine_disjoint () =
  let a = Qgram.profile ~q:3 (enc "aaaa") and b = Qgram.profile ~q:3 (enc "bbbb") in
  Alcotest.(check (float 1e-9)) "disjoint 0" 0.0 (Qgram.cosine a b)

let test_cosine_empty () =
  let a = Qgram.profile ~q:3 (enc "ab") and b = Qgram.profile ~q:3 (enc "abcd") in
  Alcotest.(check (float 1e-9)) "empty profile gives 0" 0.0 (Qgram.cosine a b)

let test_cosine_order_insensitive () =
  (* The q-gram weakness the paper exploits: rearranged blocks look almost
     identical to a bag of q-grams. *)
  let a = Qgram.profile ~q:3 (enc "aaaabbbb") and b = Qgram.profile ~q:3 (enc "bbbbaaaa") in
  Alcotest.(check bool) "rearrangement keeps high cosine" true (Qgram.cosine a b >= 0.75)

let test_cluster_separates () =
  let rng = Rng.create 1 in
  let mk pat = enc (String.concat "" (List.init 10 (fun _ -> pat))) in
  let data = Array.init 20 (fun i -> if i < 10 then mk "abc" else mk "xyz") in
  let r = Qgram.cluster rng ~k:2 ~q:3 data in
  let first = r.labels.(0) in
  Alcotest.(check bool) "group 1" true (Array.for_all (fun l -> l = first) (Array.sub r.labels 0 10));
  Alcotest.(check bool) "group 2" true
    (Array.for_all (fun l -> l = 1 - first) (Array.sub r.labels 10 10))

let test_cluster_invalid () =
  Alcotest.check_raises "k > n" (Invalid_argument "Qgram.cluster") (fun () ->
      ignore (Qgram.cluster (Rng.create 1) ~k:5 ~q:3 [| enc "abc" |]))

let test_degenerate_stay_unassigned () =
  (* Regression: sequences shorter than q have an empty profile and zero
     cosine against everything; the old argmax silently dumped them into
     cluster 0. They must stay deterministically unassigned. *)
  let mk pat = enc (String.concat "" (List.init 8 (fun _ -> pat))) in
  let data = [| mk "abc"; mk "abc"; mk "xyz"; mk "xyz"; enc "ab"; enc "" |] in
  let r = Qgram.cluster (Rng.create 3) ~k:2 ~q:3 data in
  Alcotest.(check int) "short sequence unassigned" Qgram.unassigned r.labels.(4);
  Alcotest.(check int) "empty sequence unassigned" Qgram.unassigned r.labels.(5);
  Alcotest.(check bool) "long sequences all assigned" true
    (Array.for_all (fun l -> l <> Qgram.unassigned) (Array.sub r.labels 0 4))

let test_emptied_cluster_retired () =
  (* Regression: a cluster that lost its last member kept its stale
     centroid as a ghost attractor that could recapture sequences on
     later rounds and stall convergence. With retirement, runs over two
     tight groups plus a straggler converge well before the round cap
     and keep the groups separated, for every seeding — including seeds
     that start on the straggler or on near-duplicate sequences and so
     force clusters to empty. *)
  let mk pat n = enc (String.concat "" (List.init n (fun _ -> pat))) in
  let data =
    Array.append
      (Array.init 6 (fun i -> mk "abc" (6 + (i mod 2))))
      (Array.append (Array.init 6 (fun i -> mk "xyz" (6 + (i mod 2)))) [| mk "abcxyz" 4 |])
  in
  for seed = 0 to 9 do
    let r = Qgram.cluster (Rng.create seed) ~k:5 ~q:3 data in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d converges before the cap" seed)
      true (r.iterations < 20);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d separates the groups" seed)
      true
      (r.labels.(0) <> r.labels.(6));
    Array.iteri
      (fun i l ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: seq %d assigned" seed i)
          true (l <> Qgram.unassigned))
      r.labels
  done

(* Regression for the old int-list keys: every 3-gram over an 8-symbol
   alphabet must get a distinct packed key. *)
let test_packed_keys_collision_free () =
  let seen = Hashtbl.create 1024 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      for c = 0 to 7 do
        let gram = String.concat "," (List.map string_of_int [ a; b; c ]) in
        let key = Sketch.gram_key [| a; b; c |] ~pos:0 ~q:3 in
        (match Hashtbl.find_opt seen key with
        | Some other -> Alcotest.failf "grams %s and %s collide on key %d" gram other key
        | None -> ());
        Hashtbl.add seen key gram
      done
    done
  done;
  Alcotest.(check int) "512 distinct keys" 512 (Hashtbl.length seen)

let seq_gen = QCheck.(string_gen_of_size (Gen.int_range 0 40) (Gen.char_range 'a' 'd'))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"cosine within [0,1]" ~count:300 (QCheck.pair seq_gen seq_gen)
         (fun (a, b) ->
           let c = Qgram.cosine (Qgram.profile ~q:3 (enc a)) (Qgram.profile ~q:3 (enc b)) in
           c >= 0.0 && c <= 1.0 +. 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"cosine symmetric" ~count:300 (QCheck.pair seq_gen seq_gen)
         (fun (a, b) ->
           let pa = Qgram.profile ~q:3 (enc a) and pb = Qgram.profile ~q:3 (enc b) in
           Float.abs (Qgram.cosine pa pb -. Qgram.cosine pb pa) < 1e-12));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"dimensions bounded by gram count" ~count:300 seq_gen (fun s ->
           let p = Qgram.profile ~q:3 (enc s) in
           Qgram.dimensions p <= max 0 (String.length s - 2)));
  ]

let () =
  Alcotest.run "qgram"
    [
      ( "unit",
        [
          Alcotest.test_case "dimensions" `Quick test_profile_dimensions;
          Alcotest.test_case "invalid q" `Quick test_profile_invalid_q;
          Alcotest.test_case "cosine self" `Quick test_cosine_self;
          Alcotest.test_case "cosine disjoint" `Quick test_cosine_disjoint;
          Alcotest.test_case "cosine empty" `Quick test_cosine_empty;
          Alcotest.test_case "order insensitive" `Quick test_cosine_order_insensitive;
          Alcotest.test_case "cluster separates" `Quick test_cluster_separates;
          Alcotest.test_case "cluster invalid" `Quick test_cluster_invalid;
          Alcotest.test_case "degenerate unassigned" `Quick test_degenerate_stay_unassigned;
          Alcotest.test_case "emptied cluster retired" `Quick test_emptied_cluster_retired;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "packed keys collision-free" `Quick
            test_packed_keys_collision_free;
        ] );
      ("property", qcheck_tests);
    ]
