(* Realized-context divergences over per-model profiles. See
   divergence.mli and DESIGN.md §14. *)

(* A context label with its generic hash computed once. The union table
   is a [Hashtbl.Make] over these keys: with [hash] equal to
   [Hashtbl.hash] of the label as an int list, it buckets, grows and
   iterates exactly like the generic table keyed by that list which the
   reference ([Ref_divergence]) builds — the same summation order. *)
module Key = struct
  type t = { label : int array; hash : int }

  let equal a b =
    a.hash = b.hash
    && Array.length a.label = Array.length b.label
    &&
    let rec same i = i < 0 || (a.label.(i) = b.label.(i) && same (i - 1)) in
    same (Array.length a.label - 1)

  let hash k = k.hash
end

module Tbl = Hashtbl.Make (Key)

type profile = {
  alphabet_size : int;
  max_depth : int;
  (* The significant contexts (root excluded) in the reference's
     enumeration order — reverse depth-first preorder — with their
     counts and smoothed next-symbol distributions. *)
  keys : Key.t array;
  counts : int array;
  dists : float array array;
  root_dist : float array;
  (* The prediction walk's edges, one row of |Σ| per context and one for
     the root: [links.((parent + 1) * |Σ| + sym)] is the child's context
     index, or [-1]; parent [-1] stands for the root. The size of a
     compiled automaton's transition table. *)
  links : int array;
}

(* [Pst.next_distribution t node], with one [log]/[exp] pair for all the
   symbols never seen at the node: their smoothed probability depends
   on the node's total only, so it is the same float for each. *)
let distribution t node =
  let total = Pst.next_total t node in
  let prob count = exp (Pst.smoothed_log_prob t ~count ~total) in
  let d = Array.make (Pst.config t).Pst.alphabet_size (prob 0) in
  Pst.iter_next_counts t node (fun sym count -> d.(sym) <- prob count);
  d

let profile t =
  let cfg = Pst.config t in
  let a = cfg.Pst.alphabet_size in
  (* One preorder walk (the order of [Pst.iter_nodes]) over the
     significant nodes and the edges between them, by preorder position,
     [-1] for the root. A child never outcounts its parent (an invariant
     [Check.pst_invariants] checks), so no significant node hangs below
     an insignificant one and the walk need not enter one. *)
  let nodes = ref [] and k = ref 0 and edges = ref [] in
  let rec walk node pos =
    Pst.iter_children t node (fun sym child ->
        if Pst.is_significant t child then begin
          let cpos = !k in
          incr k;
          nodes := child :: !nodes;
          edges := (pos, sym, cpos) :: !edges;
          walk child cpos
        end)
  in
  walk (Pst.root t) (-1);
  let k = !k in
  (* [!nodes] is in reverse preorder: position [p] is index [k - 1 - p]. *)
  let nodes = Array.of_list !nodes in
  let index p = if p < 0 then -1 else k - 1 - p in
  let links = Array.make ((k + 1) * a) (-1) in
  List.iter (fun (p, sym, c) -> links.(((index p + 1) * a) + sym) <- index c) !edges;
  {
    alphabet_size = a;
    max_depth = cfg.Pst.max_depth;
    keys =
      Array.map
        (fun node ->
          let label = Pst.node_label t node in
          { Key.label = Array.of_list label; hash = Hashtbl.hash label })
        nodes;
    counts = Array.map (Pst.node_count t) nodes;
    dists = Array.map (distribution t) nodes;
    root_dist = distribution t (Pst.root t);
    links;
  }

(* The distribution [Pst.prediction_node] picks for [label]: walk from
   the root along its symbols, newest first, into significant contexts
   only, for at most [max_depth] steps. *)
let predicted p label =
  let len = Array.length label in
  let max_d = min p.max_depth len in
  let rec go i d =
    if d = max_d then i
    else
      let c = p.links.(((i + 1) * p.alphabet_size) + label.(len - 1 - d)) in
      if c < 0 then i else go c (d + 1)
  in
  let i = go (-1) 0 in
  if i < 0 then p.root_dist else p.dists.(i)

type entry = { mutable weight : int; in_a : int; mutable in_b : int }

(* The frequency-weighted average of [per_context] over the union of both
   profiles' contexts, summed in the reference's order. A context of one
   model is matched by label in the other, else falls back to that
   model's prediction. *)
let union_average a b per_context =
  if a.alphabet_size <> b.alphabet_size then invalid_arg "Divergence: alphabet size mismatch";
  let tbl = Tbl.create 256 in
  (* Labels are unique within a model, so only [b]'s can be found. *)
  Array.iteri (fun i key -> Tbl.add tbl key { weight = a.counts.(i); in_a = i; in_b = -1 }) a.keys;
  Array.iteri
    (fun j key ->
      match Tbl.find_opt tbl key with
      | Some e ->
          e.weight <- e.weight + b.counts.(j);
          e.in_b <- j
      | None -> Tbl.add tbl key { weight = b.counts.(j); in_a = -1; in_b = j })
    b.keys;
  let num = ref 0.0 and den = ref 0.0 in
  Tbl.iter
    (fun key e ->
      let pa = if e.in_a >= 0 then a.dists.(e.in_a) else predicted a key.Key.label in
      let pb = if e.in_b >= 0 then b.dists.(e.in_b) else predicted b key.Key.label in
      num := !num +. (float_of_int e.weight *. per_context pa pb);
      den := !den +. float_of_int e.weight)
    tbl;
  if !den = 0.0 then 0.0 else !num /. !den

(* In both sums a symbol with x = y adds +0.0, which leaves any partial
   sum unchanged, so it is skipped. *)
let variational_profiles a b =
  union_average a b (fun pa pb ->
      let acc = ref 0.0 in
      for i = 0 to Array.length pa - 1 do
        let x = pa.(i) and y = pb.(i) in
        if x <> y then acc := !acc +. Float.abs (x -. y)
      done;
      !acc)

let kl_profiles a b =
  union_average a b (fun pa pb ->
      let acc = ref 0.0 in
      for i = 0 to Array.length pa - 1 do
        let x = pa.(i) and y = pb.(i) in
        if x <> y && x > 0.0 && y > 0.0 then acc := !acc +. ((x -. y) *. log (x /. y))
      done;
      !acc)

let variational a b = variational_profiles (profile a) (profile b)
let kl_symmetric a b = kl_profiles (profile a) (profile b)
