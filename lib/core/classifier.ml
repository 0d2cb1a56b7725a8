type t = {
  (* Sorted by cluster id. Each model is compiled once, at construction,
     and never absorbs, so its automaton stays current and the
     classify_all workers only read it. *)
  models : Cluster.t array;
  log_background : float array;
  log_t : float;
  alphabet : Alphabet.t option;
}

type verdict = {
  cluster : int option;
  log_sim : float;
  scores : (int * float) list;
}

(* Shared by [make] and [load]; the one place classifier state is built,
   so corrupt persisted background vectors are rejected here too. A
   classifier records no members, so its clusters have capacity 0. *)
let build ~models ~log_background ~log_t ~alphabet =
  Similarity.validate_log_background log_background;
  let models = Array.map (fun (id, pst) -> Cluster.of_pst ~id ~capacity:0 pst) models in
  { models; log_background; log_t; alphabet }

let make ~models ~log_background ~t_linear ?alphabet () =
  if models = [] then invalid_arg "Classifier.make: no models";
  (* [< 1.0] alone lets NaN through (NaN comparisons are false). *)
  if not (Float.is_finite t_linear && t_linear >= 1.0) then
    invalid_arg "Classifier.make: t_linear must be a finite value >= 1";
  let models = Array.of_list (List.sort compare models) in
  build ~models ~log_background ~log_t:(log t_linear) ~alphabet

let of_result (result : Cluseq.result) db =
  make
    ~models:(Array.to_list result.models)
    ~log_background:(Seq_database.log_background db)
    ~t_linear:(Float.max 1.0 result.final_t)
    ~alphabet:(Seq_database.alphabet db) ()

let alphabet t = t.alphabet

(* The verdict on one sequence from its log-similarity to each model, in
   model order; the sort is stable, so equal scores keep that order. *)
let verdict t scores =
  match List.sort (fun (_, a) (_, b) -> compare b a) scores with
  | [] -> assert false
  | (best, score) :: _ as scores ->
      { cluster = (if score >= t.log_t then Some best else None); log_sim = score; scores }

(* A verdict reads no segment, so each model scores [s] with one lane
   of the block scan ({!Cluster.log_similarity}). *)
let classify t s =
  let score cl = (Cluster.id cl, Cluster.log_similarity cl ~log_background:t.log_background s) in
  verdict t (Array.to_list (Array.map score t.models))

(* Batch scoring is read-only against the stored models, so the scores
   fan out over the domain pool ({!Cluster.score_columns}), one
   log-similarity column per model; each sequence's verdict is then
   built from the same per-model score list, in the same model order,
   that [classify] builds, so the verdicts are identical to the
   per-sequence path for any domain count (the fuzz harness
   cross-checks the two). *)
let classify_all t db =
  let columns =
    Cluster.score_columns ~log_background:t.log_background t.models (Seq_database.sequences db)
  in
  let score j i cl = (Cluster.id cl, columns.(i).Similarity.log_sims.(j)) in
  Array.init (Seq_database.n_sequences db) (fun j ->
      verdict t (Array.to_list (Array.mapi (score j) t.models)))

let n_clusters t = Array.length t.models
let threshold t = exp t.log_t

(* --- persistence ------------------------------------------------------ *)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "cluseq-classifier 1\n";
      Printf.fprintf oc "log_t %.17g\n" t.log_t;
      Printf.fprintf oc "background %s\n"
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%.17g") t.log_background)));
      (match t.alphabet with
      | Some a ->
          Printf.fprintf oc "alphabet\t%s\n"
            (String.concat "\t"
               (List.init (Alphabet.size a) (fun i -> Alphabet.symbol a i)))
      | None -> Printf.fprintf oc "alphabet\t-\n");
      Printf.fprintf oc "models %d\n" (Array.length t.models);
      Array.iter
        (fun cl ->
          Printf.fprintf oc "model %d\n" (Cluster.id cl);
          Pst.to_channel oc (Cluster.pst cl))
        t.models)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail msg = failwith ("Classifier.load: " ^ msg) in
      let line () = try input_line ic with End_of_file -> fail "truncated" in
      if line () <> "cluseq-classifier 1" then fail "bad header";
      let log_t =
        match String.split_on_char ' ' (line ()) with
        | [ "log_t"; v ] -> (
            match float_of_string_opt v with Some f -> f | None -> fail "bad log_t")
        | _ -> fail "bad log_t line"
      in
      let log_background =
        match String.split_on_char ' ' (line ()) with
        | "background" :: rest ->
            Array.of_list
              (List.map
                 (fun v ->
                   match float_of_string_opt v with Some f -> f | None -> fail "bad background")
                 rest)
        | _ -> fail "bad background line"
      in
      let alphabet =
        match String.split_on_char '\t' (line ()) with
        | "alphabet" :: [ "-" ] -> None
        | "alphabet" :: syms when syms <> [] -> Some (Alphabet.of_symbols syms)
        | _ -> fail "bad alphabet line"
      in
      let n_models =
        match String.split_on_char ' ' (line ()) with
        | [ "models"; v ] -> (
            match int_of_string_opt v with Some n when n > 0 -> n | _ -> fail "bad model count")
        | _ -> fail "bad models line"
      in
      let models =
        List.init n_models (fun _ ->
            match String.split_on_char ' ' (line ()) with
            | [ "model"; id ] -> (
                match int_of_string_opt id with
                | Some id -> (id, Pst.of_channel ic)
                | None -> fail "bad model id")
            | _ -> fail "bad model line")
      in
      let models = Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) models) in
      Array.iteri
        (fun i (id, _) -> if i > 0 && fst models.(i - 1) = id then fail "repeated model id")
        models;
      (* Every model, the background and the alphabet must agree on the
         number of symbols, or scoring would index past one of them. *)
      let width = Array.length log_background in
      let agree what k =
        if k <> width then
          fail (Printf.sprintf "%s has %d symbols, the background %d" what k width)
      in
      Array.iter
        (fun (id, pst) ->
          agree (Printf.sprintf "model %d" id) (Pst.config pst).Pst.alphabet_size)
        models;
      Option.iter (fun a -> agree "the alphabet" (Alphabet.size a)) alphabet;
      build ~models ~log_background ~log_t ~alphabet)
