let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let with_in path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let write_labeled path alpha rows =
  with_out path (fun oc ->
      Array.iter
        (fun (label, s) -> Printf.fprintf oc "%s\t%s\n" label (Alphabet.decode alpha s))
        rows)

let infer_alphabet texts =
  let seen = Array.make 256 false in
  List.iter (fun s -> String.iter (fun ch -> seen.(Char.code ch) <- true) s) texts;
  let symbols = ref [] in
  for code = 255 downto 0 do
    if seen.(code) then symbols := String.make 1 (Char.chr code) :: !symbols
  done;
  if !symbols = [] then Alphabet.of_string "a" else Alphabet.of_symbols !symbols

let read_lines ic =
  let acc = ref [] in
  (try
     while true do
       acc := input_line ic :: !acc
     done
   with End_of_file -> ());
  List.rev !acc

(* The data lines of a labeled file, each with its 1-based physical
   line number for error messages. One trailing '\r' is stripped (CRLF
   files); blank lines and '#' comments are skipped. *)
let data_lines ic =
  List.filter (fun (_, l) -> String.trim l <> "" && l.[0] <> '#')
    (List.mapi
       (fun i l ->
         let n = String.length l in
         (i + 1, if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l))
       (read_lines ic))

(* Split a data line at its first TAB into label and body. *)
let split_tab ~reader (lineno, line) =
  match String.index_opt line '\t' with
  | None -> failwith (Printf.sprintf "Seq_io.%s: line %d: missing TAB" reader lineno)
  | Some tab ->
      (String.sub line 0 tab, String.sub line (tab + 1) (String.length line - tab - 1))

let read_labeled ?alphabet path =
  with_in path (fun ic ->
      let parsed = List.map (split_tab ~reader:"read_labeled") (data_lines ic) in
      let alpha =
        match alphabet with Some a -> a | None -> infer_alphabet (List.map snd parsed)
      in
      ( alpha,
        Array.of_list
          (List.map (fun (label, body) -> (label, Alphabet.encode_string alpha body)) parsed) ))

let write_fasta path alpha rows =
  with_out path (fun oc ->
      Array.iteri
        (fun i (label, s) ->
          Printf.fprintf oc ">seq%d %s\n" i label;
          let text = Alphabet.decode alpha s in
          let n = String.length text in
          let pos = ref 0 in
          while !pos < n do
            let len = min 70 (n - !pos) in
            output_string oc (String.sub text !pos len);
            output_char oc '\n';
            pos := !pos + len
          done)
        rows)

let read_fasta ?alphabet path =
  with_in path (fun ic ->
      let lines = read_lines ic in
      let records = ref [] in
      let label = ref None in
      let buf = Buffer.create 256 in
      let flush () =
        match !label with
        | None -> ()
        | Some l ->
            records := (l, Buffer.contents buf) :: !records;
            Buffer.clear buf
      in
      List.iter
        (fun line ->
          let line = String.trim line in
          if line = "" then ()
          else if line.[0] = '>' then begin
            flush ();
            let header = String.sub line 1 (String.length line - 1) in
            let l =
              match String.index_opt header ' ' with
              | Some sp -> String.sub header (sp + 1) (String.length header - sp - 1)
              | None -> header
            in
            label := Some l
          end
          else Buffer.add_string buf line)
        lines;
      flush ();
      let parsed = List.rev !records in
      let alpha =
        match alphabet with Some a -> a | None -> infer_alphabet (List.map snd parsed)
      in
      ( alpha,
        Array.of_list
          (List.map (fun (l, body) -> (l, Alphabet.encode_string alpha body)) parsed) ))

let write_tokens path alpha rows =
  with_out path (fun oc ->
      Array.iter
        (fun (label, s) ->
          Printf.fprintf oc "%s\t%s\n" label
            (String.concat " " (Array.to_list (Array.map (Alphabet.symbol alpha) s))))
        rows)

let read_tokens ?alphabet path =
  with_in path (fun ic ->
      let parsed =
        List.map
          (fun row ->
            let label, body = split_tab ~reader:"read_tokens" row in
            (label, List.filter (fun t -> t <> "") (String.split_on_char ' ' body)))
          (data_lines ic)
      in
      let alpha =
        match alphabet with
        | Some a -> a
        | None ->
            let seen = Hashtbl.create 64 in
            let order = ref [] in
            List.iter
              (fun (_, tokens) ->
                List.iter
                  (fun t ->
                    if not (Hashtbl.mem seen t) then begin
                      Hashtbl.add seen t ();
                      order := t :: !order
                    end)
                  tokens)
              parsed;
            (match !order with
            | [] -> failwith "Seq_io.read_tokens: no tokens in file"
            | _ -> Alphabet.of_symbols (List.rev !order))
      in
      let encode (label, tokens) =
        let codes =
          List.map
            (fun t ->
              match Alphabet.code alpha t with
              | Some c -> c
              | None -> failwith (Printf.sprintf "Seq_io.read_tokens: unknown token %S" t))
            tokens
        in
        (label, Array.of_list codes)
      in
      (alpha, Array.of_list (List.map encode parsed)))

let to_database alpha rows =
  (Seq_database.create alpha (Array.map snd rows), Array.map fst rows)
