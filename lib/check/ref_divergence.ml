(* The tree-walking divergences, kept as the reference for Divergence's
   profiles. See ref_divergence.mli. *)

let check_compatible a b =
  if (Pst.config a).Pst.alphabet_size <> (Pst.config b).Pst.alphabet_size then
    invalid_arg "Divergence: alphabet size mismatch"

(* Collect the significant contexts of [t] as (label, count) pairs. *)
let significant_contexts t =
  let acc = ref [] in
  Pst.iter_nodes t (fun node ->
      if Pst.node_depth t node > 0 && Pst.is_significant t node then
        acc := (Array.of_list (Pst.node_label t node), Pst.node_count t node) :: !acc);
  !acc

(* The conditional distribution of [t] at [label], estimated as a query
   would: the exact node when present, else the prediction node of the
   context (longest significant suffix). *)
let distribution_at t label =
  let node =
    match Pst.find_node t label with
    | Some node when Pst.is_significant t node -> node
    | _ -> Pst.prediction_node t label ~lo:0 ~pos:(Array.length label)
  in
  Pst.next_distribution t node

let weighted_average_over_contexts a b per_context =
  check_compatible a b;
  (* Union of both trees' significant contexts; duplicates merged with
     summed weights (a context counted in both trees is simply more
     frequent overall). *)
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (label, count) ->
      let key = Array.to_list label in
      Hashtbl.replace tbl key
        (let prev = Option.value ~default:(label, 0) (Hashtbl.find_opt tbl key) in
         (label, snd prev + count)))
    (significant_contexts a @ significant_contexts b);
  let num = ref 0.0 and den = ref 0.0 in
  Hashtbl.iter
    (fun _ (label, weight) ->
      let pa = distribution_at a label and pb = distribution_at b label in
      num := !num +. (float_of_int weight *. per_context pa pb);
      den := !den +. float_of_int weight)
    tbl;
  if !den = 0.0 then 0.0 else !num /. !den

let variational a b =
  weighted_average_over_contexts a b (fun pa pb ->
      let acc = ref 0.0 in
      Array.iteri (fun i x -> acc := !acc +. Float.abs (x -. pb.(i))) pa;
      !acc)

let kl_symmetric a b =
  weighted_average_over_contexts a b (fun pa pb ->
      let acc = ref 0.0 in
      Array.iteri
        (fun i x ->
          let y = pb.(i) in
          if x > 0.0 && y > 0.0 then acc := !acc +. ((x -. y) *. log (x /. y)))
        pa;
      !acc)
