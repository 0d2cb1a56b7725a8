type linkage = Single | Complete | Average
type measure = Variational | Kl_symmetric

let default_pst_config ~alphabet_size : Pst.config =
  { (Pst.default_config ~alphabet_size) with significance = 2; max_depth = 5 }

let cluster ?(linkage = Average) ?(measure = Variational) ?pst_config ~k db =
  let n = Seq_database.n_sequences db in
  if k <= 0 || k > n then invalid_arg "Agglomerative.cluster";
  let alphabet_size = Alphabet.size (Seq_database.alphabet db) in
  let cfg = Option.value ~default:(default_pst_config ~alphabet_size) pst_config in
  let models =
    Array.map
      (fun s ->
        let t = Pst.create cfg in
        Pst.insert_sequence t s;
        t)
      (Seq_database.sequences db)
  in
  let dist_fn =
    match measure with
    | Variational -> Divergence.variational_profiles
    | Kl_symmetric -> Divergence.kl_profiles
  in
  (* O(N²) model-divergence matrix over N profiles built once: rows fan
     out over the domain pool (each worker writes only its own row's
     upper triangle), the mirror fill stays serial. Profiles are
     read-only, and each cell is computed exactly once, so the matrix is
     identical for any domain count. *)
  let pool = Par.get_pool () in
  let profiles = Par.map_chunks pool ~n (fun i -> Divergence.profile models.(i)) in
  let dist = Array.make_matrix n n 0.0 in
  Par.parallel_for pool ~lo:0 ~hi:n (fun i ->
      for j = i + 1 to n - 1 do
        dist.(i).(j) <- dist_fn profiles.(i) profiles.(j)
      done);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      dist.(j).(i) <- dist.(i).(j)
    done
  done;
  (* Union-find-free agglomeration: active cluster = list of members;
     linkage distances recomputed from the pairwise matrix. *)
  let clusters = ref (List.init n (fun i -> [ i ])) in
  let linkage_dist a b =
    let pairs = List.concat_map (fun i -> List.map (fun j -> dist.(i).(j)) b) a in
    match linkage with
    | Single -> List.fold_left Float.min infinity pairs
    | Complete -> List.fold_left Float.max neg_infinity pairs
    | Average -> List.fold_left ( +. ) 0.0 pairs /. float_of_int (List.length pairs)
  in
  while List.length !clusters > k do
    (* Find the closest pair of active clusters. *)
    let best = ref None in
    let rec scan = function
      | [] | [ _ ] -> ()
      | a :: rest ->
          List.iter
            (fun b ->
              let d = linkage_dist a b in
              match !best with
              | Some (_, _, bd) when bd <= d -> ()
              | _ -> best := Some (a, b, d))
            rest;
          scan rest
    in
    scan !clusters;
    match !best with
    | None -> invalid_arg "Agglomerative.cluster: unreachable"
    | Some (a, b, _) ->
        clusters := (a @ b) :: List.filter (fun c -> c != a && c != b) !clusters
  done;
  let labels = Array.make n 0 in
  List.iteri (fun ci members -> List.iter (fun i -> labels.(i) <- ci) members) !clusters;
  labels
