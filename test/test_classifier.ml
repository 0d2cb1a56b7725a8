(* Tests for PST serialization and the Classifier train/save/load/predict
   workflow. *)

let alpha = Alphabet.lowercase

let pst_cfg : Pst.config =
  { (Pst.default_config ~alphabet_size:26) with significance = 3 }

let build texts =
  let t = Pst.create pst_cfg in
  List.iter (fun s -> Pst.insert_sequence t (Sequence.of_string alpha s)) texts;
  t

let with_tmp f =
  let path = Filename.temp_file "cluseq_clf" ".model" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- Pst serialization ----------------------------------------------- *)

let roundtrip t =
  with_tmp (fun path ->
      let oc = open_out path in
      Pst.to_channel oc t;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Pst.of_channel ic))

let test_pst_roundtrip () =
  let t = build [ "ababab"; "abcabcabc"; "zzz" ] in
  let t' = roundtrip t in
  Alcotest.(check bool) "structurally equal" true (Pst.equal_structure t t');
  Alcotest.(check int) "node count" (Pst.n_nodes t) (Pst.n_nodes t');
  Alcotest.(check int) "total" (Pst.total_count t) (Pst.total_count t')

let test_pst_roundtrip_preserves_queries () =
  let t = build [ "abababab"; "babab" ] in
  let t' = roundtrip t in
  let s = Sequence.of_string alpha "abab" in
  for pos = 0 to 3 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "log_prob at %d" pos)
      (Pst.log_prob t s ~lo:0 ~pos)
      (Pst.log_prob t' s ~lo:0 ~pos)
  done

let test_pst_roundtrip_empty () =
  let t = Pst.create pst_cfg in
  let t' = roundtrip t in
  Alcotest.(check bool) "empty tree roundtrips" true (Pst.equal_structure t t')

let test_pst_bad_input () =
  let raises text =
    with_tmp (fun path ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        In_channel.with_open_bin path (fun ic ->
            try
              ignore (Pst.of_channel ic);
              false
            with Failure _ -> true))
  in
  Alcotest.(check bool) "bad header raises" true (raises "not a pst\n");
  (* Tampered copies of a valid 26-symbol tree: out-of-alphabet data or
     negative counts must not load as a different model. *)
  let good = Pst.to_string (build [ "ababab"; "abcabc" ]) in
  Alcotest.(check bool) "valid tree loads" false (raises good);
  let lines = String.split_on_char '\n' good in
  let root_line = List.find (fun l -> String.starts_with ~prefix:"node - " l) lines in
  let tamper f =
    String.concat "\n" (List.map (fun l -> if l = root_line then f l else l) lines)
  in
  Alcotest.(check bool) "next symbol 99 raises" true (raises (tamper (fun l -> l ^ " 99:5")));
  Alcotest.(check bool) "negative next symbol raises" true
    (raises (tamper (fun l -> l ^ " -1:5")));
  Alcotest.(check bool) "negative next count raises" true
    (raises (tamper (fun l -> String.sub l 0 (String.index_from l 7 ' ') ^ " 0:-3")));
  Alcotest.(check bool) "repeated next symbol raises" true
    (raises (tamper (fun l -> String.sub l 0 (String.index_from l 7 ' ') ^ " 0:1 0:2")));
  Alcotest.(check bool) "negative count raises" true (raises (tamper (fun _ -> "node - -5")));
  let with_node node =
    String.concat "\n" (List.filter (( <> ) "end") lines) ^ node ^ "\nend\n"
  in
  Alcotest.(check bool) "edge symbol 27 raises" true (raises (with_node "node 27 1"));
  Alcotest.(check bool) "edge symbol 27 deeper raises" true (raises (with_node "node 0,27 1"));
  Alcotest.(check bool) "edge symbol 25 loads" false (raises (with_node "node 25 1"));
  (* A classifier file naming one model id twice. *)
  let clf =
    Classifier.make
      ~models:[ (0, build [ "ababab" ]); (1, build [ "cdcdcd" ]) ]
      ~log_background:(Array.make 26 (log (1.0 /. 26.0)))
      ~t_linear:2.0 ()
  in
  with_tmp (fun path ->
      Classifier.save path clf;
      Alcotest.(check int) "saved classifier loads" 2
        (Classifier.n_clusters (Classifier.load path));
      let text = In_channel.with_open_bin path In_channel.input_all in
      let rec find i = if String.sub text i 8 = "model 1\n" then i else find (i + 1) in
      let i = find 0 in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub text 0 i);
          output_string oc "model 0\n";
          output_string oc (String.sub text (i + 8) (String.length text - i - 8)));
      Alcotest.(check bool) "repeated model id raises" true
        (try
           ignore (Classifier.load path);
           false
         with Failure _ -> true))

(* --- Classifier ------------------------------------------------------- *)

let trained_setup () =
  let w =
    Workload.generate
      {
        Workload.default_params with
        n_sequences = 150;
        avg_length = 250;
        n_clusters = 3;
        contexts_per_cluster = 120;
        concentration = 0.15;
        seed = 21;
      }
  in
  let config =
    {
      Cluseq.default_config with
      k_init = 2;
      significance = 8;
      min_residual = Some 8;
      t_init = 1.2;
      max_iterations = 30;
    }
  in
  let result = Cluseq.run ~config w.db in
  (w, result, Classifier.of_result result w.db)

let test_classifier_agrees_with_run () =
  let w, result, clf = trained_setup () in
  (* Classifying the training sequences must broadly reproduce the run's
     own hard labels. *)
  let hard = Cluseq.hard_labels result ~n:(Seq_database.n_sequences w.db) in
  let agree = ref 0 and total = ref 0 in
  Array.iteri
    (fun i s ->
      if hard.(i) >= 0 then begin
        incr total;
        match (Classifier.classify clf s).cluster with
        | Some c when c = hard.(i) -> incr agree
        | _ -> ()
      end)
    (Seq_database.sequences w.db);
  let rate = float_of_int !agree /. float_of_int (max 1 !total) in
  Alcotest.(check bool) (Printf.sprintf "agreement %.2f > 0.8" rate) true (rate > 0.8)

let test_classifier_generalizes () =
  (* Fresh sequences from the same generators should classify consistently
     with their source cluster. *)
  let w, _result, clf = trained_setup () in
  let w2 = Workload.resample w ~n_sequences:60 ~seed:22 in
  (* Map each of w2's true labels to the classifier cluster most of its
     members land in, then check dominance. *)
  let votes = Hashtbl.create 8 in
  let classified = ref 0 and clusterable = ref 0 in
  Array.iteri
    (fun i s ->
      let label = w2.labels.(i) in
      if label >= 0 then begin
        incr clusterable;
        match (Classifier.classify clf s).cluster with
        | Some c ->
            incr classified;
            let key = (label, c) in
            Hashtbl.replace votes key (1 + Option.value ~default:0 (Hashtbl.find_opt votes key))
        | None -> ()
      end)
    (Seq_database.sequences w2.db);
  (* Most held-out sequences must actually classify (not fall out), and
     each true label's top classifier-cluster should hold a clear majority
     of its classified members. *)
  Alcotest.(check bool)
    (Printf.sprintf "most held-out sequences classified (%d/%d)" !classified !clusterable)
    true
    (float_of_int !classified /. float_of_int (max 1 !clusterable) > 0.6);
  for label = 0 to 2 do
    let total = ref 0 and best = ref 0 in
    Hashtbl.iter
      (fun (l, _) n ->
        if l = label then begin
          total := !total + n;
          if n > !best then best := n
        end)
      votes;
    if !total > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "label %d coherent (%d/%d)" label !best !total)
        true
        (float_of_int !best /. float_of_int !total > 0.7)
  done

let test_classifier_outlier_flagging () =
  let _, _, clf = trained_setup () in
  (* A uniform-random sequence should not clear the trained threshold. *)
  let rng = Rng.create 99 in
  let junk = Array.init 200 (fun _ -> Rng.int rng 26) in
  let v = Classifier.classify clf junk in
  Alcotest.(check bool) "junk flagged as outlier" true (v.cluster = None)

let test_classifier_verdict_shape () =
  let w, _, clf = trained_setup () in
  let v = Classifier.classify clf (Seq_database.get w.db 0) in
  Alcotest.(check int) "scores for every cluster" (Classifier.n_clusters clf)
    (List.length v.scores);
  (match v.scores with
  | (_, first) :: rest ->
      Alcotest.(check (float 1e-12)) "log_sim is the top score" first v.log_sim;
      List.iter (fun (_, x) -> Alcotest.(check bool) "sorted desc" true (x <= first)) rest
  | [] -> Alcotest.fail "no scores")

let test_classifier_save_load () =
  let w, _, clf = trained_setup () in
  with_tmp (fun path ->
      Classifier.save path clf;
      let clf' = Classifier.load path in
      Alcotest.(check int) "same cluster count" (Classifier.n_clusters clf)
        (Classifier.n_clusters clf');
      Alcotest.(check (float 1e-9)) "same threshold" (Classifier.threshold clf)
        (Classifier.threshold clf');
      (* Every verdict must be bit-identical after reload. *)
      Array.iter
        (fun s ->
          let v = Classifier.classify clf s and v' = Classifier.classify clf' s in
          Alcotest.(check bool) "same cluster" true (v.cluster = v'.cluster);
          Alcotest.(check (float 1e-12)) "same score" v.log_sim v'.log_sim)
        (Array.sub (Seq_database.sequences w.db) 0 20))

let test_classifier_make_validation () =
  Alcotest.(check bool) "empty models rejected" true
    (try
       ignore (Classifier.make ~models:[] ~log_background:[| 0.0 |] ~t_linear:1.0 ());
       false
     with Invalid_argument _ -> true);
  let pst = build [ "ab" ] in
  Alcotest.(check bool) "t < 1 rejected" true
    (try
       ignore (Classifier.make ~models:[ (0, pst) ] ~log_background:(Array.make 26 0.0) ~t_linear:0.5 ());
       false
     with Invalid_argument _ -> true)

(* A model file whose sizes disagree is corrupt: a background one entry
   short of the models' symbols, or an alphabet line one symbol wider
   than the background, must fail to load instead of raising later in
   scoring. *)
let test_classifier_load_size_mismatch () =
  let clf =
    Classifier.make
      ~models:[ (0, build [ "ababab" ]); (1, build [ "cdcdcd" ]) ]
      ~log_background:(Array.make 26 (log (1.0 /. 26.0)))
      ~t_linear:2.0 ~alphabet:alpha ()
  in
  (* [path] with every line that starts with [prefix] passed through [f]. *)
  let rewrite path prefix f =
    let text = In_channel.with_open_bin path In_channel.input_all in
    let lines =
      List.map
        (fun l -> if String.starts_with ~prefix l then f l else l)
        (String.split_on_char '\n' text)
    in
    Out_channel.with_open_bin path (fun oc -> output_string oc (String.concat "\n" lines))
  in
  let loads path =
    match Classifier.load path with _ -> true | exception Failure _ -> false
  in
  with_tmp (fun path ->
      Classifier.save path clf;
      Alcotest.(check bool) "saved classifier loads" true (loads path);
      rewrite path "background " (fun l -> String.sub l 0 (String.rindex l ' '));
      Alcotest.(check bool) "short background fails" false (loads path));
  with_tmp (fun path ->
      Classifier.save path clf;
      rewrite path "alphabet\t" (fun l -> l ^ "\tA");
      Alcotest.(check bool) "wide alphabet fails" false (loads path))

let () =
  Alcotest.run "classifier"
    [
      ( "pst-serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_pst_roundtrip;
          Alcotest.test_case "queries preserved" `Quick test_pst_roundtrip_preserves_queries;
          Alcotest.test_case "empty tree" `Quick test_pst_roundtrip_empty;
          Alcotest.test_case "bad input" `Quick test_pst_bad_input;
        ] );
      ( "classifier",
        [
          Alcotest.test_case "agrees with run" `Slow test_classifier_agrees_with_run;
          Alcotest.test_case "generalizes" `Slow test_classifier_generalizes;
          Alcotest.test_case "outlier flagging" `Slow test_classifier_outlier_flagging;
          Alcotest.test_case "verdict shape" `Slow test_classifier_verdict_shape;
          Alcotest.test_case "save/load" `Slow test_classifier_save_load;
          Alcotest.test_case "make validation" `Quick test_classifier_make_validation;
          Alcotest.test_case "load size mismatch" `Quick test_classifier_load_size_mismatch;
        ] );
    ]
