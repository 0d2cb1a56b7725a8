(* The pruning order by sorting serialized node lines, kept as the
   reference for Pst's selection. See ref_prune.mli. *)

let fail what = failwith ("Ref_prune.prune: " ^ what)

(* A node line's key, compared as an int list, smallest dropped first. *)
let key strategy significance line =
  match String.split_on_char ' ' line with
  | "node" :: path :: count :: _ -> (
      let depth = if path = "-" then 0 else List.length (String.split_on_char ',' path) in
      let count = match int_of_string_opt count with Some c -> c | None -> fail "bad count" in
      match strategy with
      | Pruning.Smallest_count_first -> [ count; -depth ]
      | Pruning.Longest_label_first -> [ -depth; count ]
      | Pruning.Expected_vector_first ->
          if count < significance then [ 0; count; -depth ] else [ 1 ])
  | _ -> fail "bad node line"

let prune s ~target =
  match String.split_on_char '\n' s with
  | header :: config :: root :: rest ->
      let strategy, significance =
        match String.split_on_char ' ' config with
        | [ "config"; _; _; c; _; _; p ] -> (
            match (int_of_string_opt c, Pruning.of_string p) with
            | Some c, Some p -> (p, c)
            | _ -> fail "bad config")
        | _ -> fail "bad config line"
      in
      let rec split acc = function
        | "end" :: tail -> (List.rev acc, tail)
        | l :: tail -> split (l :: acc) tail
        | [] -> fail "truncated"
      in
      let below, tail = split [] rest in
      let drop = List.length below + 1 - max 1 target in
      if drop <= 0 then s
      else begin
        (* Later lines first, so that a stable sort puts the later of
           equal keys first. *)
        let keyed = List.rev (List.mapi (fun i l -> (key strategy significance l, i)) below) in
        let order = List.stable_sort (fun (a, _) (b, _) -> compare a b) keyed in
        let dropped = Array.make (List.length below) false in
        List.iteri (fun j (_, i) -> if j < drop then dropped.(i) <- true) order;
        let kept = List.filteri (fun i _ -> not dropped.(i)) below in
        String.concat "\n" ((header :: config :: root :: kept) @ ("end" :: tail))
      end
  | _ -> fail "truncated"
