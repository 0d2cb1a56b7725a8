(* Tests for the sequence substrate: Alphabet, Sequence, Seq_database,
   Seq_io. *)

let test_alphabet_basic () =
  let a = Alphabet.of_string "acgt" in
  Alcotest.(check int) "size" 4 (Alphabet.size a);
  Alcotest.(check (option int)) "code g" (Some 2) (Alphabet.code a "g");
  Alcotest.(check string) "symbol 3" "t" (Alphabet.symbol a 3);
  Alcotest.(check (option int)) "missing" None (Alphabet.code a "x");
  Alcotest.(check (option int)) "char lookup" (Some 1) (Alphabet.code_of_char a 'c')

let test_alphabet_duplicates () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Alphabet.of_symbols: duplicate symbol \"a\"") (fun () ->
      ignore (Alphabet.of_symbols [ "a"; "b"; "a" ]))

let test_alphabet_of_string_dedup () =
  let a = Alphabet.of_string "abcabc" in
  Alcotest.(check int) "deduplicated" 3 (Alphabet.size a)

let test_alphabet_range () =
  let a = Alphabet.of_char_range 'a' 'e' in
  Alcotest.(check int) "size" 5 (Alphabet.size a);
  Alcotest.(check string) "first" "a" (Alphabet.symbol a 0);
  Alcotest.(check string) "last" "e" (Alphabet.symbol a 4)

let test_encode_decode_roundtrip () =
  let a = Alphabet.lowercase in
  let s = "hellosequenceworld" in
  Alcotest.(check string) "roundtrip" s (Alphabet.decode a (Alphabet.encode_string a s))

let test_encode_unknown () =
  let a = Alphabet.dna in
  Alcotest.check_raises "unknown char"
    (Failure "Alphabet.encode_string: 'x' not in alphabet") (fun () ->
      ignore (Alphabet.encode_string a "acxg"))

let test_standard_alphabets () =
  Alcotest.(check int) "dna" 4 (Alphabet.size Alphabet.dna);
  Alcotest.(check int) "amino acids" 20 (Alphabet.size Alphabet.amino_acids);
  Alcotest.(check int) "lowercase" 26 (Alphabet.size Alphabet.lowercase)

let test_sequence_predicates () =
  let a = Alphabet.lowercase in
  let s = Sequence.of_string a "abab" in
  Alcotest.(check bool) "prefix ab" true (Sequence.is_prefix_of (Sequence.of_string a "ab") s);
  Alcotest.(check bool) "suffix bab" true (Sequence.is_suffix_of (Sequence.of_string a "bab") s);
  Alcotest.(check bool) "not suffix ab" false (Sequence.is_suffix_of (Sequence.of_string a "aa") s);
  Alcotest.(check bool) "segment ba" true (Sequence.is_segment_of (Sequence.of_string a "ba") s);
  Alcotest.(check bool) "abd is not a segment of abcdef" false
    (Sequence.is_segment_of (Sequence.of_string a "abd") (Sequence.of_string a "abcdef"));
  Alcotest.(check bool) "bcd is a segment of abcdef" true
    (Sequence.is_segment_of (Sequence.of_string a "bcd") (Sequence.of_string a "abcdef"));
  Alcotest.(check bool) "empty is a segment" true (Sequence.is_segment_of [||] s)

let test_sequence_segment () =
  let a = Alphabet.lowercase in
  let s = Sequence.of_string a "abcdef" in
  Alcotest.(check string) "segment" "cde" (Sequence.to_string a (Sequence.segment s ~lo:2 ~hi:4));
  Alcotest.check_raises "bad bounds" (Invalid_argument "Sequence.segment") (fun () ->
      ignore (Sequence.segment s ~lo:4 ~hi:2))

let test_sequence_reverse () =
  let a = Alphabet.lowercase in
  let s = Sequence.of_string a "abcd" in
  Alcotest.(check string) "reverse" "dcba" (Sequence.to_string a (Sequence.reverse s));
  Alcotest.(check bool) "reverse twice is identity" true
    (Sequence.equal s (Sequence.reverse (Sequence.reverse s)))

let test_count_occurrences () =
  let a = Alphabet.lowercase in
  let s = Sequence.of_string a "aaaa" in
  Alcotest.(check int) "overlapping occurrences" 3
    (Sequence.count_occurrences s ~pattern:(Sequence.of_string a "aa"));
  Alcotest.(check int) "empty pattern" 0 (Sequence.count_occurrences s ~pattern:[||])

let test_database_background () =
  let a = Alphabet.of_string "ab" in
  let db = Seq_database.of_strings a [ "aaab"; "a" ] in
  (* 4 a's, 1 b over 5 symbols; add-one smoothing over |Σ| = 2. *)
  let bg = Seq_database.background db in
  Alcotest.(check (float 1e-6)) "p(a)" (5.0 /. 7.0) bg.(0);
  Alcotest.(check (float 1e-6)) "p(b)" (2.0 /. 7.0) bg.(1);
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 bg);
  let lbg = Seq_database.log_background db in
  Alcotest.(check (float 1e-9)) "log cached consistent" (log (5.0 /. 7.0)) lbg.(0)

let test_database_background_unseen_symbol_finite () =
  let a = Alphabet.of_string "abc" in
  let db = Seq_database.of_strings a [ "aaa" ] in
  let lbg = Seq_database.log_background db in
  Alcotest.(check bool) "unseen symbol has finite log prob" true (Float.is_finite lbg.(2))

let test_database_stats () =
  let a = Alphabet.lowercase in
  let db = Seq_database.of_strings a [ "abc"; "defgh" ] in
  Alcotest.(check int) "n" 2 (Seq_database.n_sequences db);
  Alcotest.(check int) "total" 8 (Seq_database.total_symbols db);
  Alcotest.(check (float 1e-9)) "avg" 4.0 (Seq_database.avg_length db)

let test_database_bad_codes () =
  let a = Alphabet.of_string "ab" in
  Alcotest.(check bool) "code out of range rejected" true
    (try
       ignore (Seq_database.create a [| [| 0; 5 |] |]);
       false
     with Invalid_argument _ -> true)

let test_database_subset () =
  let a = Alphabet.lowercase in
  let db = Seq_database.of_strings a [ "aaa"; "bbb"; "ccc" ] in
  let sub = Seq_database.subset db [| 2; 0 |] in
  Alcotest.(check int) "subset size" 2 (Seq_database.n_sequences sub);
  Alcotest.(check string) "order preserved" "ccc" (Sequence.to_string a (Seq_database.get sub 0))

let with_tmp f =
  let path = Filename.temp_file "cluseq_test" ".seq" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_io_labeled_roundtrip () =
  with_tmp (fun path ->
      let a = Alphabet.lowercase in
      let rows =
        [| ("fam1", Sequence.of_string a "abcabc"); ("fam2", Sequence.of_string a "zzz") |]
      in
      Seq_io.write_labeled path a rows;
      let a', rows' = Seq_io.read_labeled ~alphabet:a path in
      Alcotest.(check int) "same alphabet" (Alphabet.size a) (Alphabet.size a');
      Alcotest.(check int) "row count" 2 (Array.length rows');
      Alcotest.(check string) "label" "fam1" (fst rows'.(0));
      Alcotest.(check string) "body" "abcabc" (Sequence.to_string a (snd rows'.(0))))

let test_io_labeled_inferred_alphabet () =
  with_tmp (fun path ->
      let oc = open_out path in
      output_string oc "x\tabba\n# comment line\n\ny\tcab\n";
      close_out oc;
      let a, rows = Seq_io.read_labeled path in
      Alcotest.(check int) "inferred alphabet abc" 3 (Alphabet.size a);
      Alcotest.(check int) "rows (comment and blank skipped)" 2 (Array.length rows))

let test_io_labeled_malformed () =
  with_tmp (fun path ->
      let oc = open_out path in
      output_string oc "no-tab-here\n";
      close_out oc;
      Alcotest.(check bool) "malformed line raises" true
        (try
           ignore (Seq_io.read_labeled path);
           false
         with Failure _ -> true))

let test_io_fasta_roundtrip () =
  with_tmp (fun path ->
      let a = Alphabet.amino_acids in
      let long = String.concat "" (List.init 10 (fun _ -> "acdefghik")) in
      let rows =
        [| ("globin", Sequence.of_string a long); ("kinase", Sequence.of_string a "mmm") |]
      in
      Seq_io.write_fasta path a rows;
      let _, rows' = Seq_io.read_fasta ~alphabet:a path in
      Alcotest.(check int) "rows" 2 (Array.length rows');
      Alcotest.(check string) "label" "globin" (fst rows'.(0));
      Alcotest.(check string) "long body reassembled from wrapped lines" long
        (Sequence.to_string a (snd rows'.(0))))

let test_io_tokens_roundtrip () =
  with_tmp (fun path ->
      let a = Alphabet.of_symbols [ "login"; "view"; "add-to-cart"; "checkout" ] in
      let rows = [| ("buyer", [| 0; 1; 2; 3 |]); ("browser", [| 1; 1; 1 |]) |] in
      Seq_io.write_tokens path a rows;
      let a', rows' = Seq_io.read_tokens ~alphabet:a path in
      Alcotest.(check int) "alphabet kept" 4 (Alphabet.size a');
      Alcotest.(check bool) "rows roundtrip" true (rows = rows'))

let test_io_tokens_inferred () =
  with_tmp (fun path ->
      let oc = open_out path in
      output_string oc "x\tfoo bar foo\ny\tbaz\n";
      close_out oc;
      let a, rows = Seq_io.read_tokens path in
      Alcotest.(check int) "3 distinct tokens" 3 (Alphabet.size a);
      Alcotest.(check int) "first-appearance order" 0 (Alphabet.code_exn a "foo");
      Alcotest.(check int) "rows" 2 (Array.length rows);
      Alcotest.(check (array int)) "codes" [| 0; 1; 0 |] (snd rows.(0)))

let test_io_tokens_unknown () =
  with_tmp (fun path ->
      let oc = open_out path in
      output_string oc "x\tfoo mystery\n";
      close_out oc;
      let a = Alphabet.of_symbols [ "foo" ] in
      Alcotest.(check bool) "unknown token raises" true
        (try ignore (Seq_io.read_tokens ~alphabet:a path); false with Failure _ -> true))

(* --- golden files: the exact on-disk bytes of each format ------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let test_golden_labeled () =
  with_tmp (fun path ->
      let a = Alphabet.lowercase in
      let rows =
        [| ("fam1", Sequence.of_string a "abcabc"); ("fam2", Sequence.of_string a "zzz") |]
      in
      Seq_io.write_labeled path a rows;
      Alcotest.(check string) "golden bytes" "fam1\tabcabc\nfam2\tzzz\n" (read_file path))

let test_golden_fasta () =
  with_tmp (fun path ->
      let a = Alphabet.lowercase in
      (* 75 symbols force one wrap at the 70-column boundary. *)
      let body = String.init 75 (fun i -> Char.chr (Char.code 'a' + (i mod 4))) in
      Seq_io.write_fasta path a [| ("globin", Sequence.of_string a body) |];
      let expected =
        ">seq0 globin\n" ^ String.sub body 0 70 ^ "\n" ^ String.sub body 70 5 ^ "\n"
      in
      Alcotest.(check string) "golden bytes" expected (read_file path))

let test_golden_tokens () =
  with_tmp (fun path ->
      let a = Alphabet.of_symbols [ "login"; "checkout" ] in
      Seq_io.write_tokens path a [| ("buyer", [| 0; 1; 0 |]); ("idle", [||]) |];
      Alcotest.(check string) "golden bytes" "buyer\tlogin checkout login\nidle\t\n"
        (read_file path))

(* --- malformed inputs -------------------------------------------------- *)

let write_raw path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let raises_failure f = try ignore (f ()); false with Failure _ -> true

let test_io_labeled_unknown_char () =
  with_tmp (fun path ->
      write_raw path "x\tabz\n";
      Alcotest.(check bool) "char outside explicit alphabet raises" true
        (raises_failure (fun () -> Seq_io.read_labeled ~alphabet:Alphabet.dna path)))

let test_io_fasta_unknown_char () =
  with_tmp (fun path ->
      write_raw path ">seq0 x\nacgt\nqqq\n";
      Alcotest.(check bool) "char outside explicit alphabet raises" true
        (raises_failure (fun () -> Seq_io.read_fasta ~alphabet:Alphabet.dna path)))

let test_io_fasta_ignores_preamble () =
  (* Documented behavior: body text before any header belongs to no
     record and is dropped rather than misattributed. *)
  with_tmp (fun path ->
      write_raw path "stray text\n>seq0 real\nac\n";
      let _, rows = Seq_io.read_fasta path in
      Alcotest.(check int) "only the headed record" 1 (Array.length rows);
      Alcotest.(check string) "label" "real" (fst rows.(0)))

let test_io_tokens_empty_file () =
  with_tmp (fun path ->
      write_raw path "";
      Alcotest.(check bool) "no tokens to infer an alphabet from" true
        (raises_failure (fun () -> Seq_io.read_tokens path)))

let test_io_tokens_missing_tab () =
  with_tmp (fun path ->
      write_raw path "label-without-body\n";
      Alcotest.(check bool) "missing TAB raises" true
        (raises_failure (fun () -> Seq_io.read_tokens path)))

(* Errors name the physical line: comments and blank lines count. *)
let test_io_missing_tab_line_number () =
  with_tmp (fun path ->
      write_raw path "# header\n\nA\tabc\nbad line\n";
      List.iter
        (fun (reader, read) ->
          Alcotest.check_raises reader
            (Failure (Printf.sprintf "Seq_io.%s: line 4: missing TAB" reader))
            (fun () -> ignore (read path)))
        [
          ("read_labeled", fun p -> Seq_io.read_labeled p);
          ("read_tokens", fun p -> Seq_io.read_tokens p);
        ])

(* A CRLF file reads exactly like its LF twin: no stray '\r' symbol. *)
let test_io_crlf_equals_lf () =
  let read_both read text =
    let lf = with_tmp (fun path -> write_raw path text; read path) in
    let crlf =
      with_tmp (fun path ->
          write_raw path (String.concat "\r\n" (String.split_on_char '\n' text));
          read path)
    in
    (lf, crlf)
  in
  let text = "# c\nx\tabc\ny\tbca\n\nz\tcab\n" in
  let (a, rows), (a', rows') = read_both (fun p -> Seq_io.read_labeled p) text in
  Alcotest.(check int) "labeled: same alphabet" (Alphabet.size a) (Alphabet.size a');
  Alcotest.(check bool) "labeled: same rows" true (rows = rows');
  let (a, rows), (a', rows') =
    read_both (fun p -> Seq_io.read_tokens p) "x\tgo stop\ny\tstop\n"
  in
  Alcotest.(check int) "tokens: same alphabet" (Alphabet.size a) (Alphabet.size a');
  Alcotest.(check bool) "tokens: same rows" true (rows = rows')

(* --- format round-trip properties -------------------------------------- *)

let io_roundtrip_tests =
  let label_gen =
    QCheck.(string_gen_of_size (Gen.int_range 1 8) (Gen.char_range 'a' 'z'))
  in
  let body_gen = QCheck.(string_gen_of_size (Gen.int_range 0 90) (Gen.char_range 'a' 'f')) in
  let rows_gen =
    QCheck.(list_of_size (Gen.int_range 0 6) (pair label_gen body_gen))
  in
  let roundtrip name write read =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name ~count:50 rows_gen (fun rows ->
           let a = Alphabet.lowercase in
           let rows =
             Array.of_list (List.map (fun (l, b) -> (l, Sequence.of_string a b)) rows)
           in
           with_tmp (fun path ->
               write path a rows;
               let _, rows' = read ~alphabet:a path in
               rows = rows')))
  in
  [
    roundtrip "labeled write/read roundtrip" Seq_io.write_labeled (fun ~alphabet path ->
        Seq_io.read_labeled ~alphabet path);
    roundtrip "fasta write/read roundtrip" Seq_io.write_fasta (fun ~alphabet path ->
        Seq_io.read_fasta ~alphabet path);
    roundtrip "tokens write/read roundtrip" Seq_io.write_tokens (fun ~alphabet path ->
        Seq_io.read_tokens ~alphabet path);
  ]

let qcheck_tests =
  let seq_gen = QCheck.(string_gen_of_size (Gen.int_range 0 100) (Gen.char_range 'a' 'f')) in
  io_roundtrip_tests
  @ [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"encode/decode roundtrip" ~count:300 seq_gen (fun s ->
           let a = Alphabet.lowercase in
           Alphabet.decode a (Alphabet.encode_string a s) = s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"suffix and prefix are segments" ~count:300
         (QCheck.pair seq_gen QCheck.small_nat)
         (fun (s, k) ->
           let a = Alphabet.lowercase in
           let seq = Alphabet.encode_string a s in
           let n = Array.length seq in
           let k = if n = 0 then 0 else k mod (n + 1) in
           let suffix = Array.sub seq (n - k) k in
           let prefix = Array.sub seq 0 k in
           Sequence.is_suffix_of suffix seq && Sequence.is_prefix_of prefix seq
           && Sequence.is_segment_of suffix seq
           && Sequence.is_segment_of prefix seq));
  ]

let () =
  Alcotest.run "seqdb"
    [
      ( "alphabet",
        [
          Alcotest.test_case "basic" `Quick test_alphabet_basic;
          Alcotest.test_case "duplicates" `Quick test_alphabet_duplicates;
          Alcotest.test_case "of_string dedup" `Quick test_alphabet_of_string_dedup;
          Alcotest.test_case "char range" `Quick test_alphabet_range;
          Alcotest.test_case "roundtrip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "unknown char" `Quick test_encode_unknown;
          Alcotest.test_case "standard alphabets" `Quick test_standard_alphabets;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "predicates" `Quick test_sequence_predicates;
          Alcotest.test_case "segment" `Quick test_sequence_segment;
          Alcotest.test_case "reverse" `Quick test_sequence_reverse;
          Alcotest.test_case "count occurrences" `Quick test_count_occurrences;
        ] );
      ( "database",
        [
          Alcotest.test_case "background" `Quick test_database_background;
          Alcotest.test_case "background unseen finite" `Quick
            test_database_background_unseen_symbol_finite;
          Alcotest.test_case "stats" `Quick test_database_stats;
          Alcotest.test_case "bad codes" `Quick test_database_bad_codes;
          Alcotest.test_case "subset" `Quick test_database_subset;
        ] );
      ( "io",
        [
          Alcotest.test_case "labeled roundtrip" `Quick test_io_labeled_roundtrip;
          Alcotest.test_case "inferred alphabet" `Quick test_io_labeled_inferred_alphabet;
          Alcotest.test_case "malformed line" `Quick test_io_labeled_malformed;
          Alcotest.test_case "fasta roundtrip" `Quick test_io_fasta_roundtrip;
          Alcotest.test_case "tokens roundtrip" `Quick test_io_tokens_roundtrip;
          Alcotest.test_case "tokens inferred" `Quick test_io_tokens_inferred;
          Alcotest.test_case "tokens unknown" `Quick test_io_tokens_unknown;
          Alcotest.test_case "labeled unknown char" `Quick test_io_labeled_unknown_char;
          Alcotest.test_case "fasta unknown char" `Quick test_io_fasta_unknown_char;
          Alcotest.test_case "fasta ignores preamble" `Quick test_io_fasta_ignores_preamble;
          Alcotest.test_case "tokens empty file" `Quick test_io_tokens_empty_file;
          Alcotest.test_case "tokens missing tab" `Quick test_io_tokens_missing_tab;
          Alcotest.test_case "missing tab line number" `Quick test_io_missing_tab_line_number;
          Alcotest.test_case "crlf reads like lf" `Quick test_io_crlf_equals_lf;
        ] );
      ( "golden",
        [
          Alcotest.test_case "labeled bytes" `Quick test_golden_labeled;
          Alcotest.test_case "fasta bytes" `Quick test_golden_fasta;
          Alcotest.test_case "tokens bytes" `Quick test_golden_tokens;
        ] );
      ("property", qcheck_tests);
    ]
