let log_src = Logs.Src.create "pst" ~doc:"Probabilistic suffix tree maintenance"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Hot-path instruments: registered once at module init, each event is a
   single branch while metrics are disabled (see Obs). *)
let m_insertions = Obs.Metrics.counter "pst.insertions"
let m_symbols_inserted = Obs.Metrics.counter "pst.symbols_inserted"
let m_node_creations = Obs.Metrics.counter "pst.node_creations"
let m_prunings = Obs.Metrics.counter "pst.prunings"
let m_nodes_pruned = Obs.Metrics.counter "pst.nodes_pruned"
let m_prediction_lookups = Obs.Metrics.counter "pst.prediction_lookups"

type config = {
  alphabet_size : int;
  max_depth : int;
  significance : int;
  max_nodes : int;
  p_min : float;
  pruning : Pruning.strategy;
}

type node = {
  sym : int; (* edge symbol from parent; -1 at the root *)
  depth : int;
  parent : node option;
  mutable count : int;
  mutable next_total : int;
  next : int Smallmap.t; (* symbol -> C(label · symbol) *)
  children : node Smallmap.t; (* symbol -> child with label symbol·label *)
}

type t = {
  cfg : config;
  root : node;
  mutable n_nodes : int;
  log_uniform : float;
}

let default_config ~alphabet_size =
  {
    alphabet_size;
    max_depth = 10;
    significance = 30;
    max_nodes = 20_000;
    p_min = Float.min 1e-3 (1.0 /. (4.0 *. float_of_int alphabet_size));
    pruning = Pruning.Smallest_count_first;
  }

let make_node ~sym ~depth ~parent =
  { sym; depth; parent; count = 0; next_total = 0; next = Smallmap.create (); children = Smallmap.create () }

let create cfg =
  if cfg.alphabet_size <= 0 then invalid_arg "Pst.create: alphabet_size";
  if cfg.max_depth <= 0 then invalid_arg "Pst.create: max_depth";
  if cfg.significance <= 0 then invalid_arg "Pst.create: significance";
  if cfg.max_nodes < 1 then invalid_arg "Pst.create: max_nodes";
  if cfg.p_min < 0.0 || cfg.p_min *. float_of_int cfg.alphabet_size >= 1.0 then
    invalid_arg "Pst.create: p_min must satisfy 0 <= n*p_min < 1";
  {
    cfg;
    root = make_node ~sym:(-1) ~depth:0 ~parent:None;
    n_nodes = 1;
    log_uniform = -.log (float_of_int cfg.alphabet_size);
  }

let config t = t.cfg
let n_nodes t = t.n_nodes
let total_count t = t.root.count
let root t = t.root
let node_count n = n.count
let node_depth n = n.depth
let is_significant t n = n.depth = 0 || n.count >= t.cfg.significance

(* ------------------------------------------------------------------ *)
(* Pruning (paper Sec. 5.1)                                            *)
(* ------------------------------------------------------------------ *)

let subtree_size n =
  let rec go n acc = Smallmap.fold (fun _ child acc -> go child acc) n.children (acc + 1) in
  go n 0

(* Whether [n] is still reachable from the root: every ancestor must
   still list the next node on the path as its child. Checking only the
   immediate parent is not enough — a pruning pass that already removed
   an ancestor's subtree would otherwise "remove" [n] a second time and
   double-subtract its subtree from [n_nodes]. *)
let rec is_attached n =
  match n.parent with
  | None -> true
  | Some p ->
      (match Smallmap.find_opt p.children n.sym with Some c -> c == n | None -> false)
      && is_attached p

(* Detach [n] from its parent and account for the removed subtree. *)
let detach t n =
  match n.parent with
  | None -> ()
  | Some p ->
      if is_attached n then begin
        Smallmap.remove p.children n.sym;
        let sz = subtree_size n in
        t.n_nodes <- t.n_nodes - sz;
        Obs.Metrics.incr ~by:sz m_nodes_pruned
      end

(* Every node below the root, in reverse depth-first preorder (the
   order the pruning scans have always visited them in, which fixes how
   [Array.sort] breaks ties). *)
let nodes_below t =
  let arr = Array.make (t.n_nodes - 1) t.root in
  let i = ref (Array.length arr) in
  let rec go n =
    Smallmap.iter
      (fun _ c ->
        decr i;
        arr.(!i) <- c;
        go c)
      n.children
  in
  go t.root;
  assert (!i = 0);
  arr

(* Remove whole subtrees in [cmp] order until under [target]. *)
let prune_ordered t target cmp =
  let nodes = nodes_below t in
  Array.sort cmp nodes;
  let i = ref 0 in
  while t.n_nodes > target && !i < Array.length nodes do
    detach t nodes.(!i);
    incr i
  done

(* Pruning orders as direct field comparisons: smaller count first, and
   among equal counts the deeper node first (resp. deeper first, then
   smaller count). *)
let by_count_then_depth a b =
  let c = Int.compare a.count b.count in
  if c <> 0 then c else Int.compare b.depth a.depth

let by_depth_then_count a b =
  let c = Int.compare b.depth a.depth in
  if c <> 0 then c else Int.compare a.count b.count

let raw_prob n sym =
  if n.next_total = 0 then None
  else Some (float_of_int (Smallmap.get_int n.next sym) /. float_of_int n.next_total)

(* L1 distance between a node's conditional distribution and its parent's:
   small distance = "expected" probability vector (strategy 3). *)
let divergence_from_parent t n =
  match n.parent with
  | None -> infinity
  | Some p ->
      let acc = ref 0.0 in
      for sym = 0 to t.cfg.alphabet_size - 1 do
        let pn = match raw_prob n sym with None -> 0.0 | Some x -> x in
        let pp = match raw_prob p sym with None -> 0.0 | Some x -> x in
        acc := !acc +. Float.abs (pn -. pp)
      done;
      !acc

let prune_expected_vector t target =
  (* Phase 1: drop insignificant nodes, smallest count first. *)
  let sig_ = t.cfg.significance in
  prune_ordered t target (fun a b ->
      match (a.count < sig_, b.count < sig_) with
      | true, true -> by_count_then_depth a b
      | true, false -> -1
      | false, true -> 1
      | false, false -> 0);
  (* Phase 2: while still over budget, peel leaves whose distribution is
     closest to their parent's. Chunked re-scans keep this near O(n log n). *)
  while t.n_nodes > target do
    let leaves =
      List.filter (fun n -> Smallmap.length n.children = 0) (Array.to_list (nodes_below t))
    in
    match leaves with
    | [] -> (* only the root remains *) raise Exit
    | _ ->
        let keyed =
          List.map (fun n -> (divergence_from_parent t n, n)) leaves
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let excess = t.n_nodes - target in
        List.iteri (fun i (_, n) -> if i < excess then detach t n) keyed
  done

let prune_to t target =
  let target = max 1 target in
  if t.n_nodes > target then begin
    Obs.Metrics.incr m_prunings;
    let before = t.n_nodes in
    (match t.cfg.pruning with
    | Pruning.Smallest_count_first -> prune_ordered t target by_count_then_depth
    | Pruning.Longest_label_first -> prune_ordered t target by_depth_then_count
    | Pruning.Expected_vector_first -> ( try prune_expected_vector t target with Exit -> ()));
    Log.debug (fun m ->
        m "pruned %d -> %d nodes (target %d, %s)" before t.n_nodes target
          (Pruning.to_string t.cfg.pruning))
  end

let maybe_prune t =
  if t.n_nodes > t.cfg.max_nodes then
    (* Prune to 80% of the budget so insertion does not re-trigger at once. *)
    prune_to t (max 1 (t.cfg.max_nodes * 4 / 5))

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

let child_or_create t parent sym =
  let i = Smallmap.find_idx parent.children sym in
  if i >= 0 then Smallmap.value_at parent.children i
  else begin
    let n = make_node ~sym ~depth:(parent.depth + 1) ~parent:(Some parent) in
    Smallmap.set parent.children sym n;
    t.n_nodes <- t.n_nodes + 1;
    Obs.Metrics.incr m_node_creations;
    n
  end

let bump node next_sym =
  node.count <- node.count + 1;
  if next_sym >= 0 then begin
    Smallmap.add_int node.next next_sym 1;
    node.next_total <- node.next_total + 1
  end

let insert_segment t s ~lo ~hi =
  let len = Array.length s in
  if lo < 0 || hi >= len || lo > hi then invalid_arg "Pst.insert_segment";
  Obs.Metrics.incr m_insertions;
  Obs.Metrics.incr ~by:(hi - lo + 1) m_symbols_inserted;
  for e = lo to hi do
    let next_sym = if e < hi then s.(e + 1) else -1 in
    bump t.root next_sym;
    (* Walk the reversed context s.(e), s.(e-1), ... down to [max_depth]. *)
    let node = ref t.root in
    let d = ref 0 in
    let max_d = min t.cfg.max_depth (e - lo + 1) in
    while !d < max_d do
      node := child_or_create t !node s.(e - !d);
      bump !node next_sym;
      incr d
    done
  done;
  maybe_prune t

let insert_sequence t s =
  if Array.length s > 0 then insert_segment t s ~lo:0 ~hi:(Array.length s - 1)

(* ------------------------------------------------------------------ *)
(* Prediction                                                          *)
(* ------------------------------------------------------------------ *)

let prediction_node t s ~lo ~pos =
  (* Descend along s.(pos-1), s.(pos-2), ..., only into significant nodes. *)
  Obs.Metrics.incr m_prediction_lookups;
  let node = ref t.root in
  let d = ref 0 in
  let max_d = min t.cfg.max_depth (pos - lo) in
  let continue_ = ref true in
  while !continue_ && !d < max_d do
    let sym = s.(pos - 1 - !d) in
    let i = Smallmap.find_idx !node.children sym in
    if i >= 0 then begin
      let child = Smallmap.value_at !node.children i in
      if child.count >= t.cfg.significance then begin
        node := child;
        incr d
      end
      else continue_ := false
    end
    else continue_ := false
  done;
  !node

let next_log_prob t node sym =
  if sym < 0 || sym >= t.cfg.alphabet_size then invalid_arg "Pst.next_log_prob";
  if node.next_total = 0 then t.log_uniform
  else begin
    let raw = float_of_int (Smallmap.get_int node.next sym) /. float_of_int node.next_total in
    let n = float_of_int t.cfg.alphabet_size in
    let p =
      if t.cfg.p_min > 0.0 then ((1.0 -. (n *. t.cfg.p_min)) *. raw) +. t.cfg.p_min else raw
    in
    if p <= 0.0 then neg_infinity else log p
  end

let log_prob t s ~lo ~pos = next_log_prob t (prediction_node t s ~lo ~pos) s.(pos)

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let find_node t label =
  (* The node labeled s_j..s_{i-1} hangs off the path s_{i-1}, ..., s_j. *)
  let len = Array.length label in
  let rec go node d =
    if d = len then Some node
    else
      match Smallmap.find_opt node.children label.(len - 1 - d) with
      | None -> None
      | Some child -> go child (d + 1)
  in
  go t.root 0

let next_count n sym = Smallmap.get_int n.next sym
let next_total n = n.next_total

let node_children n =
  List.rev (Smallmap.fold (fun sym child acc -> (sym, child) :: acc) n.children [])

let next_distribution t n =
  Array.init t.cfg.alphabet_size (fun sym -> exp (next_log_prob t n sym))

let iter_nodes t f =
  let rec go n =
    f n;
    Smallmap.iter (fun _ c -> go c) n.children
  in
  go t.root

let node_label _t n =
  (* Climbing to the root yields the path in root-to-node order, which
     spells the label reversed (the tree is built on reversed contexts);
     reverse once more for the original symbol order. *)
  let rec go n acc = match n.parent with None -> acc | Some p -> go p (n.sym :: acc) in
  List.rev (go n [])

(* Deep structural copy: same counts, same Smallmap storage order, so
   every downstream operation (scoring, pruning scans) behaves
   bit-identically on the copy — the property the Check oracles rely on
   when snapshotting cluster models. *)
let copy t =
  let rec copy_node parent n =
    let n' =
      { sym = n.sym; depth = n.depth; parent; count = n.count; next_total = n.next_total;
        next = Smallmap.copy n.next; children = Smallmap.create () }
    in
    Smallmap.iter (fun sym child -> Smallmap.set n'.children sym (copy_node (Some n') child)) n.children;
    n'
  in
  { cfg = t.cfg; root = copy_node None t.root; n_nodes = t.n_nodes; log_uniform = t.log_uniform }

(* Counts-addition merge: a PST built from database A merged with one
   built from database B has exactly the counts of a PST built from
   A @ B (up to pruning), because every field is a sum of per-position
   observations. Smallmap keeps keys sorted, so the merged structure is
   independent of argument order — merge is commutative and associative
   under [equal_structure] as long as neither side has pruned. *)
let merge a b =
  if a.cfg <> b.cfg then invalid_arg "Pst.merge: configs differ";
  let t = copy a in
  let rec add dst src =
    dst.count <- dst.count + src.count;
    dst.next_total <- dst.next_total + src.next_total;
    Smallmap.iter (fun sym c -> Smallmap.add_int dst.next sym c) src.next;
    Smallmap.iter
      (fun sym child ->
        let dst_child =
          match Smallmap.find_opt dst.children sym with
          | Some c -> c
          | None ->
              let c = make_node ~sym ~depth:(dst.depth + 1) ~parent:(Some dst) in
              Smallmap.set dst.children sym c;
              t.n_nodes <- t.n_nodes + 1;
              Obs.Metrics.incr m_node_creations;
              c
        in
        add dst_child child)
      src.children
  in
  add t.root b.root;
  maybe_prune t;
  t

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let format_version = 1

(* The writer targets an abstract string sink and the reader an abstract
   line source, so the same (versioned) format serves channels and
   in-memory strings alike. *)
let write_to emit t =
  let c = t.cfg in
  emit (Printf.sprintf "pst %d\n" format_version);
  emit
    (Printf.sprintf "config %d %d %d %d %.17g %s\n" c.alphabet_size c.max_depth c.significance
       c.max_nodes c.p_min (Pruning.to_string c.pruning));
  (* One line per node: the root-to-node edge path (reversed label),
     count, and next-symbol counters. Parents precede children in DFS
     order, so reconstruction can create nodes along the path. *)
  let rec emit_node path node =
    let buf = Buffer.create 64 in
    Buffer.add_string buf
      (Printf.sprintf "node %s %d"
         (if path = [] then "-" else String.concat "," (List.rev_map string_of_int path))
         node.count);
    Smallmap.iter (fun sym cnt -> Buffer.add_string buf (Printf.sprintf " %d:%d" sym cnt)) node.next;
    Buffer.add_char buf '\n';
    emit (Buffer.contents buf);
    Smallmap.iter (fun sym child -> emit_node (sym :: path) child) node.children
  in
  emit_node [] t.root;
  emit "end\n"

let to_channel oc t = write_to (output_string oc) t

let to_string t =
  let buf = Buffer.create 1024 in
  write_to (Buffer.add_string buf) t;
  Buffer.contents buf

let read_from next_line =
  let fail msg = failwith ("Pst.of_channel: " ^ msg) in
  let line () = match next_line () with Some l -> l | None -> fail "truncated" in
  (match String.split_on_char ' ' (line ()) with
  | [ "pst"; v ] when int_of_string_opt v = Some format_version -> ()
  | _ -> fail "bad header or unsupported version");
  let t =
    match String.split_on_char ' ' (line ()) with
    | [ "config"; n; d; c; m; pmin; strategy ] -> (
        match
          ( int_of_string_opt n, int_of_string_opt d, int_of_string_opt c, int_of_string_opt m,
            float_of_string_opt pmin, Pruning.of_string strategy )
        with
        | Some n, Some d, Some c, Some m, Some pmin, Some strategy ->
            create
              { alphabet_size = n; max_depth = d; significance = c; max_nodes = m;
                p_min = pmin; pruning = strategy }
        | _ -> fail "bad config")
    | _ -> fail "bad config line"
  in
  (* Walk a root-to-node edge path, creating nodes without counting. *)
  let node_at path =
    List.fold_left
      (fun node sym ->
        match Smallmap.find_opt node.children sym with
        | Some child -> child
        | None ->
            let child = make_node ~sym ~depth:(node.depth + 1) ~parent:(Some node) in
            Smallmap.set node.children sym child;
            t.n_nodes <- t.n_nodes + 1;
            child)
      t.root path
  in
  let finished = ref false in
  while not !finished do
    match String.split_on_char ' ' (line ()) with
    | [ "end" ] -> finished := true
    | "node" :: path :: count :: next ->
        let path_syms =
          if path = "-" then []
          else
            List.map
              (fun x -> match int_of_string_opt x with Some v -> v | None -> fail "bad path")
              (String.split_on_char ',' path)
        in
        let node = node_at path_syms in
        (match int_of_string_opt count with
        | Some c -> node.count <- c
        | None -> fail "bad count");
        List.iter
          (fun pair ->
            match String.split_on_char ':' pair with
            | [ sym; cnt ] -> (
                match (int_of_string_opt sym, int_of_string_opt cnt) with
                | Some sym, Some cnt ->
                    Smallmap.set node.next sym cnt;
                    node.next_total <- node.next_total + cnt
                | _ -> fail "bad next entry")
            | _ -> fail "bad next entry")
          next
    | _ -> fail "unexpected line"
  done;
  t

let of_channel ic = read_from (fun () -> try Some (input_line ic) with End_of_file -> None)

let of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  read_from (fun () ->
      match !lines with
      | [] -> None
      | l :: rest ->
          lines := rest;
          Some l)

let equal_structure a b =
  let rec eq na nb =
    na.count = nb.count && na.next_total = nb.next_total
    && Smallmap.keys na.next = Smallmap.keys nb.next
    && Array.for_all (fun sym -> Smallmap.get_int na.next sym = Smallmap.get_int nb.next sym)
         (Smallmap.keys na.next)
    && Smallmap.keys na.children = Smallmap.keys nb.children
    && Array.for_all
         (fun sym ->
           match (Smallmap.find_opt na.children sym, Smallmap.find_opt nb.children sym) with
           | Some ca, Some cb -> eq ca cb
           | _ -> false)
         (Smallmap.keys na.children)
  in
  a.cfg = b.cfg && eq a.root b.root

let pp ?(max_depth = 3) ?(min_count = 1) ~symbol fmt t =
  let rec render node =
    if node.depth <= max_depth && (node.depth = 0 || node.count >= min_count) then begin
      let label = node_label t node in
      Format.fprintf fmt "%s" (String.make (2 * node.depth) ' ');
      if node.depth = 0 then Format.fprintf fmt "(root)"
      else List.iter (fun sym -> symbol fmt sym) label;
      Format.fprintf fmt "  C=%d%s" node.count (if is_significant t node then "*" else "");
      if node.next_total > 0 then begin
        (* Show the conditional distribution, most probable symbols first. *)
        let entries =
          Smallmap.fold (fun sym c acc -> (c, sym) :: acc) node.next []
          |> List.sort (fun a b -> compare b a)
        in
        Format.fprintf fmt "  P(next):";
        List.iteri
          (fun i (c, sym) ->
            if i < 4 then
              Format.fprintf fmt " %a=%.3f" symbol sym
                (float_of_int c /. float_of_int node.next_total))
          entries
      end;
      Format.fprintf fmt "@.";
      Smallmap.iter (fun _ child -> render child) node.children
    end
  in
  render t.root

type stats = {
  nodes : int;
  significant_nodes : int;
  max_depth_used : int;
  approx_bytes : int;
}

let stats t =
  let nodes = ref 0 and sig_nodes = ref 0 and maxd = ref 0 and bytes = ref 0 in
  iter_nodes t (fun n ->
      incr nodes;
      if is_significant t n then incr sig_nodes;
      if n.depth > !maxd then maxd := n.depth;
      (* record fields + two smallmaps (2 arrays each) *)
      bytes := !bytes + 64 + (16 * (Smallmap.length n.next + Smallmap.length n.children)));
  { nodes = !nodes; significant_nodes = !sig_nodes; max_depth_used = !maxd; approx_bytes = !bytes }
