(* The reference model is a flat table: context label (original symbol
   order) -> occurrence count + next-symbol counters. Everything the
   tree shares structurally is duplicated here, which is the point —
   the two representations can only agree if both count correctly. *)

type entry = {
  mutable count : int;
  next : int array; (* next-symbol counters, length |Σ| *)
  mutable next_total : int;
}

type t = {
  cfg : Pst.config;
  table : (int list, entry) Hashtbl.t;
  log_uniform : float;
}

let create (cfg : Pst.config) =
  if cfg.alphabet_size <= 0 then invalid_arg "Ref_pst.create: alphabet_size";
  if cfg.max_depth <= 0 then invalid_arg "Ref_pst.create: max_depth";
  if cfg.significance <= 0 then invalid_arg "Ref_pst.create: significance";
  if cfg.p_min < 0.0 || cfg.p_min *. float_of_int cfg.alphabet_size >= 1.0 then
    invalid_arg "Ref_pst.create: p_min must satisfy 0 <= n*p_min < 1";
  let t =
    { cfg; table = Hashtbl.create 64; log_uniform = -.log (float_of_int cfg.alphabet_size) }
  in
  Hashtbl.replace t.table []
    { count = 0; next = Array.make cfg.alphabet_size 0; next_total = 0 };
  t

let entry t label =
  match Hashtbl.find_opt t.table label with
  | Some e -> e
  | None ->
      let e = { count = 0; next = Array.make t.cfg.alphabet_size 0; next_total = 0 } in
      Hashtbl.replace t.table label e;
      e

let bump t label next_sym =
  let e = entry t label in
  e.count <- e.count + 1;
  if next_sym >= 0 then begin
    e.next.(next_sym) <- e.next.(next_sym) + 1;
    e.next_total <- e.next_total + 1
  end

let insert_segment t s ~lo ~hi =
  let len = Array.length s in
  if lo < 0 || hi >= len || lo > hi then invalid_arg "Ref_pst.insert_segment";
  for e = lo to hi do
    let next_sym = if e < hi then s.(e + 1) else -1 in
    bump t [] next_sym;
    let max_d = min t.cfg.max_depth (e - lo + 1) in
    for d = 1 to max_d do
      (* The context ending at position [e] of length [d], original order. *)
      let label = List.init d (fun j -> s.(e - d + 1 + j)) in
      bump t label next_sym
    done
  done

let insert_sequence t s =
  if Array.length s > 0 then insert_segment t s ~lo:0 ~hi:(Array.length s - 1)

let n_contexts t = Hashtbl.length t.table

(* The longest recorded-and-significant suffix of s.(lo) .. s.(pos-1),
   extended one symbol at a time exactly like Pst.prediction_node's
   walk: stop at the first extension that is absent or insignificant. *)
let prediction_entry t s ~lo ~pos =
  let best = ref (entry t []) in
  let best_label = ref [] in
  let d = ref 0 in
  let max_d = min t.cfg.max_depth (pos - lo) in
  let continue_ = ref true in
  while !continue_ && !d < max_d do
    let label = List.init (!d + 1) (fun j -> s.(pos - 1 - !d + j)) in
    match Hashtbl.find_opt t.table label with
    | Some e when e.count >= t.cfg.significance ->
        best := e;
        best_label := label;
        incr d
    | _ -> continue_ := false
  done;
  (!best, !best_label)

let prediction_label t s ~lo ~pos = snd (prediction_entry t s ~lo ~pos)

(* Written token-for-token like Pst.next_log_prob so the comparison is
   exact float equality, not within-epsilon. *)
let next_log_prob t (e : entry) sym =
  if sym < 0 || sym >= t.cfg.alphabet_size then invalid_arg "Ref_pst.next_log_prob";
  if e.next_total = 0 then t.log_uniform
  else begin
    let raw = float_of_int e.next.(sym) /. float_of_int e.next_total in
    let n = float_of_int t.cfg.alphabet_size in
    let p =
      if t.cfg.p_min > 0.0 then ((1.0 -. (n *. t.cfg.p_min)) *. raw) +. t.cfg.p_min else raw
    in
    if p <= 0.0 then neg_infinity else log p
  end

let log_prob t s ~lo ~pos = next_log_prob t (fst (prediction_entry t s ~lo ~pos)) s.(pos)

let string_of_label = function
  | [] -> "(root)"
  | l -> String.concat "," (List.map string_of_int l)

let diff t pst =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if Pst.n_nodes pst <> n_contexts t then
    err "node count: tree has %d, oracle has %d contexts" (Pst.n_nodes pst) (n_contexts t);
  let seen = Hashtbl.create (n_contexts t) in
  let rec walk node =
    let label = Pst.node_label pst node in
    Hashtbl.replace seen label ();
    (match Hashtbl.find_opt t.table label with
    | None -> err "tree node %s missing from oracle" (string_of_label label)
    | Some e ->
        if Pst.node_count pst node <> e.count then
          err "count at %s: tree %d, oracle %d" (string_of_label label)
            (Pst.node_count pst node) e.count;
        if Pst.next_total pst node <> e.next_total then
          err "next_total at %s: tree %d, oracle %d" (string_of_label label)
            (Pst.next_total pst node) e.next_total;
        for sym = 0 to t.cfg.alphabet_size - 1 do
          if Pst.next_count pst node sym <> e.next.(sym) then
            err "next count at %s for symbol %d: tree %d, oracle %d" (string_of_label label)
              sym (Pst.next_count pst node sym) e.next.(sym)
        done);
    Pst.iter_children pst node (fun _ child -> walk child)
  in
  walk (Pst.root pst);
  Hashtbl.iter
    (fun label _ ->
      if not (Hashtbl.mem seen label) then
        err "oracle context %s missing from tree" (string_of_label label))
    t.table;
  List.rev !errs
