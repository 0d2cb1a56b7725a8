(* Tests for the PST's flat node store: every node keeps two
   symbol-keyed maps in shared int arrays — its next-symbol counters, a
   run of (symbol, count) entries sorted by symbol, and its children, a
   chain of child links sorted by edge symbol. Both are checked through
   the public API against the map contracts they must honor (find after
   insert, sorted keys, removal by pruning with slot reuse, counter
   accumulation, ordered iteration) and against Hashtbl models. *)

let cfg ?(alphabet_size = 128) ?(max_depth = 3) ?(max_nodes = 100_000) () : Pst.config =
  { Pst.alphabet_size; max_depth; significance = 2; max_nodes; p_min = 0.0;
    pruning = Pruning.Smallest_count_first }

let tree ?alphabet_size ?max_depth ?max_nodes seqs =
  let t = Pst.create (cfg ?alphabet_size ?max_depth ?max_nodes ()) in
  List.iter (fun s -> Pst.insert_sequence t s) seqs;
  t

let child_syms t n =
  let acc = ref [] in
  Pst.iter_children t n (fun sym _ -> acc := sym :: !acc);
  List.rev !acc

let entries t n =
  let acc = ref [] in
  Pst.iter_next_counts t n (fun sym c -> acc := (sym, c) :: !acc);
  List.rev !acc

let count_of t label =
  match Pst.find_node t label with Some n -> Pst.node_count t n | None -> 0

let strictly_increasing l =
  let rec go = function a :: (b :: _ as rest) -> a < b && go rest | _ -> true in
  go l

let test_empty () =
  let t = tree [] in
  let root = Pst.root t in
  Alcotest.(check (list int)) "no children" [] (child_syms t root);
  Alcotest.(check (list (pair int int))) "no next entries" [] (entries t root);
  Alcotest.(check bool) "find missing" true (Pst.find_node t [| 5 |] = None);
  Alcotest.(check int) "next count missing" 0 (Pst.next_count t root 5)

let test_set_find () =
  let t = tree [ [| 10; 3; 7 |] ] in
  let root = Pst.root t in
  Alcotest.(check (list int)) "children" [ 3; 7; 10 ] (child_syms t root);
  Alcotest.(check int) "find 3" 1 (count_of t [| 3 |]);
  Alcotest.(check int) "find 10 3" 1 (count_of t [| 10; 3 |]);
  Alcotest.(check int) "next 3 after root" 1 (Pst.next_count t root 3);
  Alcotest.(check int) "next 10 never seen" 0 (Pst.next_count t root 10);
  let nodes = Pst.n_nodes t in
  Pst.insert_sequence t [| 10; 3 |];
  Alcotest.(check int) "existing contexts updated in place" 2 (count_of t [| 10; 3 |]);
  Alcotest.(check int) "no node added" nodes (Pst.n_nodes t)

let test_keys_sorted () =
  let t = tree ~max_depth:1 [ [| 9; 2; 5; 1; 100; 0 |] ] in
  let root = Pst.root t in
  Alcotest.(check (list int)) "children sorted" [ 0; 1; 2; 5; 9; 100 ] (child_syms t root);
  Alcotest.(check (list int)) "next entries sorted" [ 0; 1; 2; 5; 100 ]
    (List.map fst (entries t root))

let test_remove () =
  let t = tree [ [| 1; 2; 1; 2; 1; 2; 3 |] ] in
  let before = Pst.n_nodes t in
  Pst.prune_to t before;
  Alcotest.(check int) "prune to the current size is a no-op" before (Pst.n_nodes t);
  Pst.prune_to t 3;
  Alcotest.(check int) "pruned to target" 3 (Pst.n_nodes t);
  Alcotest.(check (list int)) "rare child gone, others sorted" [ 1; 2 ]
    (child_syms t (Pst.root t));
  Alcotest.(check bool) "gone" true (Pst.find_node t [| 3 |] = None);
  (* A later insertion reuses freed slots: the node comes back fresh. *)
  Pst.insert_sequence t [| 3 |];
  Alcotest.(check int) "re-created with its own count" 1 (count_of t [| 3 |]);
  Alcotest.(check (list (pair int int))) "with no stale next entries" []
    (match Pst.find_node t [| 3 |] with Some n -> entries t n | None -> [ (-1, -1) ])

let test_freed_slots_reused () =
  (* Pruning hands node slots and runs back, and the tail pool reclaims
     what split, cut and released tails leave behind; a tree held at its
     budget by repeated pruning must stop growing its storage. Random
     text over 41 symbols repeats few contexts, so most of each walk is
     a tail: at depth 4 tails are short, at depth 12 they are most of
     the tree. *)
  List.iter
    (fun max_depth ->
      let t = tree ~alphabet_size:41 ~max_depth ~max_nodes:200 [] in
      let rng = Random.State.make [| 7 |] in
      let feed k =
        for _ = 1 to k do
          Pst.insert_sequence t (Array.init 30 (fun _ -> Random.State.int rng 41))
        done
      in
      feed 1000;
      let settled = (Pst.stats t).approx_bytes in
      feed 2000;
      let after = (Pst.stats t).approx_bytes in
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: storage after 2000 more sequences: %d -> %d bytes" max_depth
           settled after)
        true
        (after <= settled * 3 / 2))
    [ 4; 12 ]

let test_int_helpers () =
  let t = tree [ [| 4; 4 |] ] in
  let root = Pst.root t in
  Alcotest.(check int) "default 0" 0 (Pst.next_count t root 5);
  Pst.insert_sequence t [| 4; 4 |];
  Alcotest.(check int) "accumulated by insertion" 2 (Pst.next_count t root 4);
  let merged = Pst.merge t t in
  Alcotest.(check int) "accumulated by merge" 4 (Pst.next_count merged (Pst.root merged) 4);
  Alcotest.(check int) "total follows" 4 (Pst.next_total merged (Pst.root merged))

let test_iter_fold () =
  let t = tree [ [| 3; 1; 2; 3; 1 |] ] in
  let root = Pst.root t in
  Alcotest.(check (list int)) "children in symbol order" [ 1; 2; 3 ] (child_syms t root);
  Alcotest.(check (list (pair int int))) "entries in symbol order" [ (1, 2); (2, 1); (3, 1) ]
    (entries t root);
  Alcotest.(check int) "entry sum = next_total" (Pst.next_total t root)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (entries t root));
  let visited = ref 0 in
  Pst.iter_nodes t (fun _ -> incr visited);
  Alcotest.(check int) "iter_nodes visits every node" (Pst.n_nodes t) !visited

let test_negative_keys () =
  (* Symbols index the store: a negative (or too large) one is refused
     on every way in, and the tree is left as it was. *)
  let t = tree [ [| 1; 2 |] ] in
  let before = Pst.to_string t in
  Alcotest.(check bool) "insert refuses -5" true
    (try
       Pst.insert_sequence t [| 1; -5; 2 |];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "tree untouched" before (Pst.to_string t);
  let load text = try ignore (Pst.of_string text); false with Failure _ -> true in
  let header = "pst 1\nconfig 128 3 2 100000 0 smallest-count\n" in
  Alcotest.(check bool) "load refuses edge -5" true
    (load (header ^ "node - 1\nnode -5 1\nend\n"));
  Alcotest.(check bool) "load refuses next -5" true (load (header ^ "node - 1 -5:1\nend\n"))

(* --- Properties against Hashtbl models -------------------------------- *)

let seqs_gen =
  QCheck.(
    list_of_size Gen.(int_range 0 6) (array_of_size Gen.(int_range 0 25) (int_range 0 40)))

(* Every (label, next) observation of [seqs] up to depth 3, the way the
   tree counts them: contexts end at each position, labels are read in
   original order. *)
let model seqs =
  let counts = Hashtbl.create 64 and next = Hashtbl.create 64 in
  let bump h k = Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)) in
  List.iter
    (fun s ->
      let l = Array.length s in
      for e = 0 to l - 1 do
        for d = 0 to min 3 (e + 1) do
          let label = Array.to_list (Array.sub s (e - d + 1) d) in
          bump counts label;
          if e < l - 1 then bump next (label, s.(e + 1))
        done
      done)
    seqs;
  (counts, next)

(* --- Spare arrays: a tree grown from another tree's outgrown arrays --- *)

let random_texts ~seed ~alphabet n =
  let rng = Random.State.make [| seed |] in
  List.init n (fun _ -> Array.init 40 (fun _ -> Random.State.int rng alphabet))

let test_spares_same_tree () =
  (* Growth takes an array another tree outgrew on the same domain
     whenever one of the length it asks for is spare. A bigger tree
     first leaves its arrays, full of its own words, at every length
     the test tree asks for. Two trees then built on this domain from
     the same texts must match the counts of the texts and equal a tree
     built on a fresh domain: in serialization and stats (capacity
     included) and, compared as values, word for word in every array,
     spare capacity included. *)
  let texts = random_texts ~seed:3 ~alphabet:20 60 in
  let fresh = Domain.join (Domain.spawn (fun () -> tree ~alphabet_size:41 texts)) in
  ignore (tree ~alphabet_size:41 (random_texts ~seed:4 ~alphabet:41 200));
  let first = tree ~alphabet_size:41 texts in
  let second = tree ~alphabet_size:41 texts in
  let counts, _ = model texts in
  List.iter
    (fun (what, t) ->
      Alcotest.(check int) (what ^ ": nodes = contexts") (Hashtbl.length counts) (Pst.n_nodes t);
      Hashtbl.iter
        (fun label c ->
          if count_of t (Array.of_list label) <> c then
            Alcotest.failf "%s: a context's count is %d, not %d" what
              (count_of t (Array.of_list label)) c)
        counts;
      Alcotest.(check string) (what ^ ": serialization") (Pst.to_string fresh) (Pst.to_string t);
      Alcotest.(check bool) (what ^ ": stats") true (Pst.stats t = Pst.stats fresh);
      Alcotest.(check int) (what ^ ": approx_bytes") (Pst.stats fresh).approx_bytes
        (Pst.stats t).approx_bytes;
      Alcotest.(check bool) (what ^ ": every array, word for word") true (t = fresh))
    [ ("first", first); ("second", second) ];
  Alcotest.(check bool) "grew past several lengths" true ((Pst.stats fresh).approx_bytes > 20_000)

(* Two or three trees, each with its own node budget and texts over 8
   symbols, and an order in which they take their texts. *)
let interleaved_gen =
  let open QCheck.Gen in
  let texts = list_size (int_range 1 12) (array_size (int_range 1 40) (int_range 0 7)) in
  pair (list_size (int_range 2 3) (pair (int_range 8 120) texts)) (list_size (int_range 0 40) nat)

(* After each of [texts] in turn, the tree's serialization, node count
   and [active_changes]. *)
let grow_trace t texts =
  List.map
    (fun s ->
      Pst.insert_sequence t s;
      (Pst.to_string t, Pst.n_nodes t, Pst.active_changes t))
    texts

let interleaved_equals_alone (specs, order) =
  let fresh (budget, _) =
    Pst.create
      { Pst.alphabet_size = 8; max_depth = 4; significance = 2; max_nodes = budget; p_min = 0.0;
        pruning = Pruning.Smallest_count_first }
  in
  let alone = List.map (fun ((_, texts) as spec) -> grow_trace (fresh spec) texts) specs in
  (* The same trees again, one text at a time, each turn going to the
     tree [order] names (the rest in turn once [order] runs out), so
     they grow and prune between each other's growths. *)
  let specs = Array.of_list specs in
  let k = Array.length specs in
  let trees = Array.map fresh specs and pending = Array.map snd specs in
  let traces = Array.make k [] in
  let turn i =
    match pending.(i) with
    | [] -> ()
    | s :: rest ->
        pending.(i) <- rest;
        traces.(i) <- grow_trace trees.(i) [ s ] @ traces.(i)
  in
  List.iter (fun i -> turn (i mod k)) order;
  while Array.exists (( <> ) []) pending do
    Array.iteri (fun i _ -> turn i) trees
  done;
  List.equal ( = ) alone (Array.to_list (Array.map List.rev traces))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"model: set/find against Hashtbl" ~count:300 seqs_gen (fun seqs ->
           let t = tree ~alphabet_size:41 seqs in
           let counts, _ = model seqs in
           (* The root is in the model unless no symbol was inserted. *)
           let root_only = List.for_all (( = ) [||]) seqs in
           Hashtbl.length counts + (if root_only then 1 else 0) = Pst.n_nodes t
           && Hashtbl.fold
                (fun label c ok -> ok && count_of t (Array.of_list label) = c)
                counts true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"model: add_int accumulates" ~count:300 seqs_gen (fun seqs ->
           let t = tree ~alphabet_size:41 seqs in
           let _, next = model seqs in
           let ok = ref true in
           Pst.iter_nodes t (fun n ->
               let label = Pst.node_label t n in
               for sym = 0 to 40 do
                 let want = Option.value ~default:0 (Hashtbl.find_opt next (label, sym)) in
                 if Pst.next_count t n sym <> want then ok := false
               done);
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"keys always sorted" ~count:300
         (QCheck.pair seqs_gen (QCheck.int_range 1 30))
         (fun (seqs, budget) ->
           let t = tree ~alphabet_size:41 ~max_nodes:budget seqs in
           let ok = ref true in
           Pst.iter_nodes t (fun n ->
               if not (strictly_increasing (child_syms t n)) then ok := false;
               if not (strictly_increasing (List.map fst (entries t n))) then ok := false);
           !ok));
    (* Insertions splice child links and move runs between capacity
       classes; pruning unlinks subtrees and frees their slots for reuse.
       After every step the links must stay strictly sorted and lookup
       must agree with a linear scan of the children. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"set/remove keep keys sorted; find_idx = linear scan" ~count:300
         QCheck.(
           list_of_size Gen.(int_range 0 20)
             (pair bool (array_of_size Gen.(int_range 1 20) (int_range 0 40))))
         (fun ops ->
           let t = tree ~alphabet_size:41 [] in
           List.for_all
             (fun (insert, s) ->
               if insert then Pst.insert_sequence t s else Pst.prune_to t (Pst.n_nodes t / 2);
               let ok = ref true and visited = ref 0 in
               Pst.iter_nodes t (fun n ->
                   incr visited;
                   let kids = ref [] in
                   Pst.iter_children t n (fun sym c -> kids := (sym, c) :: !kids);
                   if not (strictly_increasing (List.rev_map fst !kids)) then ok := false;
                   let label = Array.of_list (Pst.node_label t n) in
                   for q = 0 to 40 do
                     let linear = List.assoc_opt q !kids in
                     if Pst.find_node t (Array.append [| q |] label) <> linear then ok := false
                   done);
               !ok && !visited = Pst.n_nodes t)
             ops));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"trees grown interleaved on one domain = each grown alone"
         ~count:300 (QCheck.make interleaved_gen) interleaved_equals_alone);
  ]

let () =
  Alcotest.run "pst-store"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "set/find" `Quick test_set_find;
          Alcotest.test_case "keys sorted" `Quick test_keys_sorted;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "freed slots reused" `Quick test_freed_slots_reused;
          Alcotest.test_case "int helpers" `Quick test_int_helpers;
          Alcotest.test_case "iter/fold" `Quick test_iter_fold;
          Alcotest.test_case "negative keys" `Quick test_negative_keys;
          Alcotest.test_case "spares: same tree as a fresh domain's" `Quick test_spares_same_tree;
        ] );
      ("property", qcheck_tests);
    ]
