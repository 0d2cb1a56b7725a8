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
let h_insert_seconds = Obs.Metrics.histogram "pst.insert_seconds"
let h_prune_seconds = Obs.Metrics.histogram "pst.prune_seconds"

type config = {
  alphabet_size : int;
  max_depth : int;
  significance : int;
  max_nodes : int;
  p_min : float;
  pruning : Pruning.strategy;
}

(* The tree is a struct of int arrays indexed by node id (a slot), so
   inserting a symbol allocates nothing and copying a tree is a blit.
   Slot 0 is the root. A node's children hang off [child] in a chain
   through [sibling], sorted by edge symbol; its next-symbol counters
   are a run of [run_len] (symbol, count) entries sorted by symbol,
   starting at slot [run] of the entry arrays. A run's capacity is the
   power of two at or above its length; it moves to a slot of the next
   capacity when it fills up. Pruning returns node slots and runs to
   free lists, and nothing is ever renumbered: a slot keeps its id for
   as long as it stays in the tree ([Psa.refresh] relies on that).
   Every walk starts at the root, which has a child for nearly every
   symbol, so the root's children are also indexed by symbol.

   A node seen once has a subtree that is one chain, the rest of that
   one occurrence, every node of it with count 1 and the occurrence's
   next symbol. Insertion keeps such a chain as a tail (a suffix tree's
   leaf edge): its first node, the head, is a slot whose [child] is
   [-2 - off], where [pool.(off)] is the tail's length L and
   [pool.(off + 1 .. off + L)] its edge symbols, newest first (the
   order the insertion walk reads them). The tail's nodes share the
   head's count and next counters, and each has an id past every slot:
   [used + head * max_depth + (k - 1)] for the node k edges below the
   head, valid until the tree next changes. A second occurrence splits
   the tail one node at a time as its walk goes down the shared part.
   Tails are made only when significance is at least 2, so no tail node
   is significant and the prediction walk and its automaton never enter
   one. [n_nodes] counts tail nodes, so every observable — the node
   budget, pruning, serialization — is that of the tree of slots. *)
type node = int

let none = -1

(* [parent] of a slot on the node free list. *)
let released = -2

type t = {
  cfg : config;
  log_uniform : float;
  mutable n_nodes : int; (* slots in the tree plus tail nodes *)
  (* Moves whenever the set of significant non-root nodes may have
     changed: by one when a count reaches [significance], by
     [removal_step] when pruning detaches a significant node. A compiled
     automaton stays structurally valid while it holds still, and can be
     patched while its removal part does (see [Psa.refresh]). *)
  mutable active_changes : int;
  mutable used : int; (* node slots handed out, released ones included *)
  mutable free_node : int; (* released node slots, chained through [sibling] *)
  mutable count : int array;
  mutable next_total : int array;
  mutable parent : int array;
  mutable sym : int array; (* edge symbol from the parent; -1 at the root *)
  mutable depth : int array;
  mutable child : int array; (* first child, [none], or [-2 - off] at a head *)
  mutable sibling : int array;
  mutable run : int array;
  mutable run_len : int array;
  root_child : int array; (* symbol -> the root's child along it, or [none] *)
  mutable entries_used : int;
  mutable entry_sym : int array;
  mutable entry_count : int array;
  (* Per capacity class k (runs of 2^k entries): released runs, chained
     through their first [entry_sym] slot. *)
  free_runs : int array;
  mutable pool : int array; (* tails: a length, then that many edge symbols *)
  mutable pool_used : int;
  mutable pool_garbage : int; (* words below [pool_used] that no tail holds *)
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

(* The capacity class of a run of [len >= 1] entries. *)
let run_class len =
  let k = ref 0 in
  while 1 lsl !k < len do
    incr k
  done;
  !k

let initial_slots = 16

let create cfg =
  if cfg.alphabet_size <= 0 then invalid_arg "Pst.create: alphabet_size";
  if cfg.max_depth <= 0 then invalid_arg "Pst.create: max_depth";
  if cfg.significance <= 0 then invalid_arg "Pst.create: significance";
  if cfg.max_nodes < 1 then invalid_arg "Pst.create: max_nodes";
  if cfg.p_min < 0.0 || cfg.p_min *. float_of_int cfg.alphabet_size >= 1.0 then
    invalid_arg "Pst.create: p_min must satisfy 0 <= n*p_min < 1";
  let slots fill = Array.make initial_slots fill in
  {
    cfg;
    log_uniform = -.log (float_of_int cfg.alphabet_size);
    n_nodes = 1;
    active_changes = 0;
    used = 1;
    free_node = none;
    count = slots 0;
    next_total = slots 0;
    parent = slots none;
    sym = slots none;
    depth = slots 0;
    child = slots none;
    sibling = slots none;
    run = slots 0;
    run_len = slots 0;
    root_child = Array.make cfg.alphabet_size none;
    entries_used = 0;
    entry_sym = slots 0;
    entry_count = slots 0;
    free_runs = Array.make (run_class cfg.alphabet_size + 1) none;
    pool = [||];
    pool_used = 0;
    pool_garbage = 0;
  }

(* A head's tail: [pool.(tail_off t h)] is its length, the symbols follow. *)
let is_head t n = t.child.(n) < none
let tail_off t h = -2 - t.child.(h)
let tail_len t h = t.pool.(tail_off t h)

(* The id of the node [k >= 1] edges below head [h] on its tail, and
   back: the head and [k] of a tail node. Tail ids start at [used], so
   they are valid only until a slot is handed out. *)
let tail_id t h k = t.used + (h * t.cfg.max_depth) + (k - 1)
let head_of t n = (n - t.used) / t.cfg.max_depth
let pos_of t n = ((n - t.used) mod t.cfg.max_depth) + 1

(* The slot holding [n]'s counts: [n] itself, or the head of its tail. *)
let slot_of t n = if n < t.used then n else head_of t n
let config t = t.cfg
let n_nodes t = t.n_nodes
let total_count t = t.count.(0)
let root _ = 0
let node_count t n = t.count.(slot_of t n)
let node_depth t n = if n < t.used then t.depth.(n) else t.depth.(head_of t n) + pos_of t n
let next_total t n = t.next_total.(slot_of t n)
let is_significant t n = node_depth t n = 0 || node_count t n >= t.cfg.significance
let active_changes t = t.active_changes

(* [active_changes] counts crossings in its low bits and removals above
   them: a second counter would add a word to every model. Crossings
   would have to reach 2^31 (on 64-bit) to carry into the removal part,
   and a carry only reads as a removal, which costs a recompile. *)
let removal_shift = Sys.int_size / 2
let removal_step = 1 lsl removal_shift
let grew_only t ~since = t.active_changes lsr removal_shift = since lsr removal_shift
let node_id_bound t = t.used

(* ------------------------------------------------------------------ *)
(* Slot storage                                                        *)
(* ------------------------------------------------------------------ *)

(* A loop rather than [Array.blit]: the fresh array lives in the major
   heap, where a blit goes through the write barrier for every element,
   ints included. *)
let grown (a : int array) size fill =
  let b = Array.make size fill in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

(* Geometric growth by half: a finished model carries at most 50% (on
   average about 25%) spare slots. *)
let grown_size len = max initial_slots (len * 3 / 2)

(* The slots whose count reached [significance] during the insertions
   given the buffer, in the order they crossed. Its array is made at the
   first crossing, so a buffer that saw none holds no storage. *)
module Crossings = struct
  type t = { mutable ids : int array; mutable len : int }

  let create () = { ids = [||]; len = 0 }
  let length b = b.len

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Pst.Crossings.get";
    b.ids.(i)

  let clear b = b.len <- 0

  let push b n =
    if b.len = Array.length b.ids then b.ids <- grown b.ids (max 8 (2 * b.len)) 0;
    b.ids.(b.len) <- n;
    b.len <- b.len + 1
end

let grow_nodes t =
  let size = grown_size (Array.length t.count) in
  t.count <- grown t.count size 0;
  t.next_total <- grown t.next_total size 0;
  t.parent <- grown t.parent size none;
  t.sym <- grown t.sym size none;
  t.depth <- grown t.depth size 0;
  t.child <- grown t.child size none;
  t.sibling <- grown t.sibling size none;
  t.run <- grown t.run size 0;
  t.run_len <- grown t.run_len size 0

(* A fresh slot below [parent] along [sym], neither linked nor counted
   in [n_nodes]. *)
let new_slot t ~parent ~sym =
  let n =
    if t.free_node <> none then begin
      let n = t.free_node in
      t.free_node <- t.sibling.(n);
      n
    end
    else begin
      if t.used = Array.length t.count then grow_nodes t;
      t.used <- t.used + 1;
      t.used - 1
    end
  in
  t.count.(n) <- 0;
  t.next_total.(n) <- 0;
  t.parent.(n) <- parent;
  t.sym.(n) <- sym;
  t.depth.(n) <- t.depth.(parent) + 1;
  t.child.(n) <- none;
  t.sibling.(n) <- none;
  t.run.(n) <- 0;
  t.run_len.(n) <- 0;
  n

let alloc_run t k =
  let head = t.free_runs.(k) in
  if head <> none then begin
    t.free_runs.(k) <- t.entry_sym.(head);
    head
  end
  else begin
    let off = t.entries_used in
    let needed = off + (1 lsl k) in
    if needed > Array.length t.entry_sym then begin
      let size = max needed (grown_size (Array.length t.entry_sym)) in
      t.entry_sym <- grown t.entry_sym size 0;
      t.entry_count <- grown t.entry_count size 0
    end;
    t.entries_used <- needed;
    off
  end

let free_run t off len =
  if len > 0 then begin
    let k = run_class len in
    t.entry_sym.(off) <- t.free_runs.(k);
    t.free_runs.(k) <- off
  end

(* Copy every live tail to the front of a fresh pool of [size] words. *)
let compact_pool t size =
  let pool = Array.make size 0 and used = ref 0 in
  for h = 1 to t.used - 1 do
    if t.parent.(h) <> released && is_head t h then begin
      let off = tail_off t h in
      let len = t.pool.(off) in
      for j = 0 to len do
        pool.(!used + j) <- t.pool.(off + j)
      done;
      t.child.(h) <- -2 - !used;
      used := !used + len + 1
    end
  done;
  t.pool <- pool;
  t.pool_used <- !used;
  t.pool_garbage <- 0

(* [words] pool words for a new tail. A full pool compacts instead of
   growing when more than half of it is garbage (split, cut or released
   tails). *)
let alloc_pool t words =
  let len = Array.length t.pool in
  if t.pool_used + words > len then begin
    if 2 * t.pool_garbage > t.pool_used then
      compact_pool t (max len (t.pool_used - t.pool_garbage + words))
    else t.pool <- grown t.pool (max (t.pool_used + words) (grown_size len)) 0
  end;
  let off = t.pool_used in
  t.pool_used <- off + words;
  off

(* Hang [len >= 1] edge symbols, [arr.(i)], [arr.(i + step)], ..., from
   the childless slot [h] as its tail. *)
let hang_tail t h arr i step len =
  let off = alloc_pool t (len + 1) in
  t.pool.(off) <- len;
  for j = 1 to len do
    t.pool.(off + j) <- arr.(i + ((j - 1) * step))
  done;
  t.child.(h) <- -2 - off

(* The slot child of [p] along [s], or [none]; [p] is not a head, and
   [s] may be any int. *)
let slot_child t p s =
  if p = 0 then if s >= 0 && s < Array.length t.root_child then t.root_child.(s) else none
  else begin
    let c = ref t.child.(p) in
    while !c <> none && t.sym.(!c) < s do
      c := t.sibling.(!c)
    done;
    if !c <> none && t.sym.(!c) = s then !c else none
  end

(* A new node below [p] (not a head) along [s], linked in its sorted
   place and counted in [n_nodes]. *)
let link_child t p s =
  let prev = ref none and c = ref t.child.(p) in
  while !c <> none && t.sym.(!c) < s do
    prev := !c;
    c := t.sibling.(!c)
  done;
  let n = new_slot t ~parent:p ~sym:s in
  t.sibling.(n) <- !c;
  if !prev = none then t.child.(p) <- n else t.sibling.(!prev) <- n;
  if p = 0 then t.root_child.(s) <- n;
  t.n_nodes <- t.n_nodes + 1;
  n

(* The child of [p] (not a head) along the symbol [s], created in its
   sorted place if absent; [counted] creations feed the
   [pst.node_creations] counter. *)
let child_or_create ~counted t p s =
  let c = slot_child t p s in
  if c <> none then c
  else begin
    if counted then Obs.Metrics.incr m_node_creations;
    link_child t p s
  end

(* Index within [n]'s run of the first entry whose symbol is >= [s]. *)
let seek t n s =
  let off = t.run.(n) and len = t.run_len.(n) in
  let i = ref 0 in
  while !i < len && t.entry_sym.(off + !i) < s do
    incr i
  done;
  !i

let has_entry t n i s = i < t.run_len.(n) && t.entry_sym.(t.run.(n) + i) = s

(* Move [len] entries from slot [src] to slot [dst] (runs are short:
   a loop beats a blit's call). *)
let move_entries t ~src ~dst len =
  if dst < src then
    for k = 0 to len - 1 do
      t.entry_sym.(dst + k) <- t.entry_sym.(src + k);
      t.entry_count.(dst + k) <- t.entry_count.(src + k)
    done
  else
    for k = len - 1 downto 0 do
      t.entry_sym.(dst + k) <- t.entry_sym.(src + k);
      t.entry_count.(dst + k) <- t.entry_count.(src + k)
    done

(* Open a new entry (s, c) at index [i] of [n]'s run, moving the run to
   the next capacity class when it is full (its length a power of two). *)
let insert_entry t n i s c =
  let len = t.run_len.(n) and off = t.run.(n) in
  if len land (len - 1) = 0 then begin
    let off' = alloc_run t (run_class (len + 1)) in
    move_entries t ~src:off ~dst:off' i;
    move_entries t ~src:(off + i) ~dst:(off' + i + 1) (len - i);
    free_run t off len;
    t.run.(n) <- off'
  end
  else move_entries t ~src:(off + i) ~dst:(off + i + 1) (len - i);
  t.entry_sym.(t.run.(n) + i) <- s;
  t.entry_count.(t.run.(n) + i) <- c;
  t.run_len.(n) <- len + 1

(* Add [c] observations of next symbol [s] at the slot [n]. *)
let add_next t n s c =
  let i = seek t n s in
  if has_entry t n i s then begin
    let slot = t.run.(n) + i in
    t.entry_count.(slot) <- t.entry_count.(slot) + c
  end
  else insert_entry t n i s c;
  t.next_total.(n) <- t.next_total.(n) + c

let next_count t n s =
  let n = slot_of t n in
  let i = seek t n s in
  if has_entry t n i s then t.entry_count.(t.run.(n) + i) else 0

let iter_next_counts t n f =
  let n = slot_of t n in
  let off = t.run.(n) in
  for i = 0 to t.run_len.(n) - 1 do
    f t.entry_sym.(off + i) t.entry_count.(off + i)
  done

let iter_children t n f =
  if n >= t.used then begin
    let off = tail_off t (head_of t n) and k = pos_of t n in
    if k < t.pool.(off) then f t.pool.(off + k + 1) (n + 1)
  end
  else if is_head t n then f t.pool.(tail_off t n + 1) (tail_id t n 1)
  else begin
    let c = ref t.child.(n) in
    while !c <> none do
      f t.sym.(!c) !c;
      c := t.sibling.(!c)
    done
  end

(* The child of any node [p] along [s], or [none]; [s] may be any int. *)
let find_child t p s =
  if p < t.used && not (is_head t p) then slot_child t p s
  else begin
    let h = slot_of t p and k = if p < t.used then 0 else pos_of t p in
    let off = tail_off t h in
    if k < t.pool.(off) && t.pool.(off + k + 1) = s then tail_id t h (k + 1) else none
  end

(* Make the first node of head [h]'s tail a slot — the head of the rest
   of the tail, if any — so that [h] can take another occurrence. The
   new slot gets [h]'s count and its next entry (a head has count 1, so
   it has at most one); the rest of the tail stays where it was. *)
let split_head t h =
  let off = tail_off t h in
  let len = t.pool.(off) in
  let c = new_slot t ~parent:h ~sym:t.pool.(off + 1) in
  t.child.(h) <- c;
  t.count.(c) <- t.count.(h);
  if t.run_len.(h) > 0 then add_next t c t.entry_sym.(t.run.(h)) t.entry_count.(t.run.(h));
  if len > 1 then begin
    t.pool.(off + 1) <- len - 1;
    t.child.(c) <- -2 - (off + 1);
    t.pool_garbage <- t.pool_garbage + 1
  end
  else t.pool_garbage <- t.pool_garbage + 2

(* ------------------------------------------------------------------ *)
(* Pruning (paper Sec. 5.1)                                            *)
(* ------------------------------------------------------------------ *)

(* Return [n]'s subtree to the free lists; the number of nodes released,
   a head's tail included. A released slot's [parent] is [released],
   which is how [compact_pool] tells a free slot from a head. *)
let rec release t n =
  let size = ref 1 in
  if is_head t n then begin
    let len = tail_len t n in
    size := 1 + len;
    t.pool_garbage <- t.pool_garbage + len + 1
  end
  else begin
    let c = ref t.child.(n) in
    while !c <> none do
      let next = t.sibling.(!c) in
      size := !size + release t !c;
      c := next
    done
  end;
  free_run t t.run.(n) t.run_len.(n);
  t.parent.(n) <- released;
  t.sibling.(n) <- t.free_node;
  t.free_node <- n;
  !size

(* Detach [n] from its parent and account for the removed subtree. A
   tail node cuts its tail above it; a tail cut to nothing leaves its
   head a plain leaf. *)
let detach t n =
  if n >= t.used then begin
    let h = head_of t n and k = pos_of t n in
    let off = tail_off t h in
    let len = t.pool.(off) in
    t.n_nodes <- t.n_nodes - (len - k + 1);
    if k = 1 then begin
      t.child.(h) <- none;
      t.pool_garbage <- t.pool_garbage + len + 1
    end
    else begin
      t.pool.(off) <- k - 1;
      t.pool_garbage <- t.pool_garbage + (len - k + 1)
    end
  end
  else begin
    let p = t.parent.(n) in
    (* Only a significant subtree root can take significant nodes with
       it: a child never outcounts its parent. *)
    if t.count.(n) >= t.cfg.significance then
      t.active_changes <- t.active_changes + removal_step;
    if p = 0 then t.root_child.(t.sym.(n)) <- none;
    if t.child.(p) = n then t.child.(p) <- t.sibling.(n)
    else begin
      let c = ref t.child.(p) in
      while t.sibling.(!c) <> n do
        c := t.sibling.(!c)
      done;
      t.sibling.(!c) <- t.sibling.(n)
    end;
    t.n_nodes <- t.n_nodes - release t n
  end

(* The pruning order is canonical: it depends on the tree's contents,
   not on its history or its slot ids. Each node below the root has a
   key, smallest pruned first (smallest-count: by count, the deeper node
   first among equal counts; longest-label: deeper first, then by
   count; expected-vector: like smallest-count over the insignificant
   nodes, every significant node tied after them), and among equal keys
   the node later in depth-first preorder (children by symbol: the line
   order of [to_string]) goes first. A child never outcounts its
   parent, is deeper and comes later, so under every key it goes before
   its parent: any first stretch of the order is closed under
   descendants, and removing it deepest first detaches one node at a
   time.

   A node's place is its position in reverse preorder (position 0 is the
   last node of the preorder), and [(key lsl bits) lor position], with
   [2^bits] at or above the number of positions, orders nodes exactly as
   the pruning does. [max_depth] and the root's count bound every depth
   and count, so they scale the keys in place of the observed maxima;
   every key is below [(root count + 1) * (max_depth + 1)], and packing
   stays exact while that times [2^bits] fits in an int: with
   [max_depth] under 64 and under 2^21 nodes, up to a root count of 2^35
   symbols on 64-bit. *)
let prune_key t =
  let d_max = t.cfg.max_depth and c_max = t.count.(0) and sig_ = t.cfg.significance in
  let by_count c d = (c * (d_max + 1)) + (d_max - d) in
  match t.cfg.pruning with
  | Pruning.Smallest_count_first -> by_count
  | Pruning.Longest_label_first -> fun c d -> ((d_max - d) * (c_max + 1)) + c
  | Pruning.Expected_vector_first ->
      fun c d -> if c < sig_ then by_count c d else by_count sig_ 0

(* One reverse-preorder walk writing each position's node to [node] and
   its packed key to [packed]. [go n d i] writes the nodes below [n], at
   depth [d], at the positions below [i] and returns the lowest it
   wrote. A tail node has its head's count and is [k] deeper than the
   head. *)
let prune_walk t ~bits node packed =
  let key = prune_key t in
  let rec go n d i =
    let c = t.child.(n) in
    if c < none then begin
      let count = t.count.(n) and len = tail_len t n in
      for k = 1 to len do
        node.(i - k) <- tail_id t n k;
        packed.(i - k) <- (key count (d + k) lsl bits) lor (i - k)
      done;
      i - len
    end
    else siblings c (d + 1) i
  and siblings c d i =
    if c = none then i
    else begin
      let i = i - 1 in
      node.(i) <- c;
      packed.(i) <- (key t.count.(c) d lsl bits) lor i;
      siblings t.sibling.(c) d (go c d i)
    end
  in
  let i = go 0 0 (Array.length node) in
  assert (i = 0)

let median3 (a : int) b c =
  if a < b then if b < c then b else if a < c then c else a
  else if a < c then a
  else if b < c then c
  else b

(* Hoare's FIND: rearrange the distinct values of [a] so that [a.(k)] is
   the one sorting would put there, with every smaller value before it
   and every larger one after it. Expected O(n), in place. *)
let select (a : int array) k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let x = median3 a.(!lo) a.((!lo + !hi) / 2) a.(!hi) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < x do
        incr i
      done;
      while x < a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let v = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- v;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done

(* Remove the first [n_nodes - target] nodes of the order: select them,
   mark their positions, and detach them by ascending position, which
   puts descendants first. *)
let prune_ordered t target =
  let m = t.n_nodes - 1 and victims = t.n_nodes - target in
  let bits = run_class m in
  let node = Array.make m 0 and packed = Array.make m 0 in
  prune_walk t ~bits node packed;
  select packed (victims - 1);
  let mask = (1 lsl bits) - 1 in
  for j = 0 to victims - 1 do
    let i = packed.(j) land mask in
    node.(i) <- lnot node.(i)
  done;
  for i = 0 to m - 1 do
    if node.(i) < 0 then detach t (lnot node.(i))
  done

let prune_to t target =
  let target = max 1 target in
  if t.n_nodes > target then begin
    Obs.Metrics.time h_prune_seconds @@ fun () ->
    Obs.Metrics.incr m_prunings;
    let before = t.n_nodes in
    prune_ordered t target;
    Obs.Metrics.incr ~by:(before - t.n_nodes) m_nodes_pruned;
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

let bump t n next_sym =
  t.count.(n) <- t.count.(n) + 1;
  if next_sym >= 0 then add_next t n next_sym 1

(* The insertion walk below the slot [node], which has just taken this
   occurrence: [len] more edges, the k-th (from 0) along
   [arr.(i + k * step)], each node bumped with [next_sym] and its
   crossing counted, and reported to [crossings] if given. A head met on
   the way is split first, so the node that crosses is always a slot; a
   node the walk creates takes the rest of the walk as its tail
   (significance 2 and up). Returns the number of nodes created. *)
let descend t crossings node arr i step len next_sym =
  let sig_ = t.cfg.significance in
  let node = ref node and k = ref 0 and created = ref 0 in
  while !k < len do
    let s = arr.(i + (!k * step)) in
    let c = slot_child t !node s in
    let fresh = c = none in
    let c = if fresh then link_child t !node s else c in
    if is_head t c then split_head t c;
    bump t c next_sym;
    if t.count.(c) = sig_ then begin
      t.active_changes <- t.active_changes + 1;
      match crossings with Some b -> Crossings.push b c | None -> ()
    end;
    node := c;
    incr k;
    if fresh then begin
      incr created;
      let rest = len - !k in
      if sig_ >= 2 && rest > 0 then begin
        hang_tail t c arr (i + (!k * step)) step rest;
        t.n_nodes <- t.n_nodes + rest;
        created := !created + rest;
        k := len
      end
    end
  done;
  !created

let insert_segment ?crossings t s ~lo ~hi =
  let len = Array.length s in
  if lo < 0 || hi >= len || lo > hi then invalid_arg "Pst.insert_segment";
  let n = t.cfg.alphabet_size in
  for e = lo to hi do
    if s.(e) < 0 || s.(e) >= n then
      invalid_arg "Pst.insert_segment: symbol outside the alphabet"
  done;
  Obs.Metrics.time h_insert_seconds @@ fun () ->
  Obs.Metrics.incr m_insertions;
  Obs.Metrics.incr ~by:(hi - lo + 1) m_symbols_inserted;
  let created = ref 0 in
  for e = lo to hi do
    let next_sym = if e < hi then s.(e + 1) else -1 in
    bump t 0 next_sym;
    (* Walk the reversed context s.(e), s.(e-1), ... down to [max_depth]. *)
    created :=
      !created + descend t crossings 0 s e (-1) (min t.cfg.max_depth (e - lo + 1)) next_sym
  done;
  Obs.Metrics.incr ~by:!created m_node_creations;
  maybe_prune t

let insert_sequence t s =
  if Array.length s > 0 then insert_segment t s ~lo:0 ~hi:(Array.length s - 1)

(* ------------------------------------------------------------------ *)
(* Prediction                                                          *)
(* ------------------------------------------------------------------ *)

let prediction_node t s ~lo ~pos =
  (* Descend along s.(pos-1), s.(pos-2), ..., only into significant
     nodes: slots that are not heads. *)
  Obs.Metrics.incr m_prediction_lookups;
  let node = ref 0 in
  let d = ref 0 in
  let max_d = min t.cfg.max_depth (pos - lo) in
  let continue_ = ref true in
  while !continue_ && !d < max_d do
    let child = slot_child t !node s.(pos - 1 - !d) in
    if child <> none && t.count.(child) >= t.cfg.significance then begin
      node := child;
      incr d
    end
    else continue_ := false
  done;
  !node

(* The one smoothing formula: every probability read, in the tree walk
   and in a compiled automaton's emission rows, goes through it, so both
   produce the same float from the same two counters. *)
let smoothed_log_prob t ~count ~total =
  if total = 0 then t.log_uniform
  else begin
    let raw = float_of_int count /. float_of_int total in
    let n = float_of_int t.cfg.alphabet_size in
    let p =
      if t.cfg.p_min > 0.0 then ((1.0 -. (n *. t.cfg.p_min)) *. raw) +. t.cfg.p_min else raw
    in
    if p <= 0.0 then neg_infinity else log p
  end

let next_log_prob t n sym =
  if sym < 0 || sym >= t.cfg.alphabet_size then invalid_arg "Pst.next_log_prob";
  smoothed_log_prob t ~count:(next_count t n sym) ~total:(next_total t n)

let log_prob t s ~lo ~pos = next_log_prob t (prediction_node t s ~lo ~pos) s.(pos)

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let find_node t label =
  (* The node labeled s_j..s_{i-1} hangs off the path s_{i-1}, ..., s_j. *)
  let len = Array.length label in
  let rec go n d =
    if d = len then Some n
    else
      let c = find_child t n label.(len - 1 - d) in
      if c = none then None else go c (d + 1)
  in
  go 0 0

let parent t n =
  if n = 0 then 0
  else if n < t.used then t.parent.(n)
  else if pos_of t n = 1 then head_of t n
  else n - 1

let edge_symbol t n =
  if n < t.used then t.sym.(n) else t.pool.(tail_off t (head_of t n) + pos_of t n)

(* Climbing from [n], the edges spell its label oldest symbol first, so
   the label one newest symbol shorter is that of the parent's shortened
   node extended along [n]'s own edge; the root at depth 1, [none] where
   a node on the way is missing. *)
let rec shortened t n =
  if node_depth t n <= 1 then 0
  else
    let p = shortened t (parent t n) in
    if p = none then none else find_child t p (edge_symbol t n)

let drop_newest t n =
  if n = 0 then None
  else
    let p = shortened t n in
    if p = none then None else Some p

let next_distribution t n =
  Array.init t.cfg.alphabet_size (fun sym -> exp (next_log_prob t n sym))

let iter_nodes t f =
  let rec go n =
    f n;
    if is_head t n then
      for k = 1 to tail_len t n do
        f (tail_id t n k)
      done
    else begin
      let c = ref t.child.(n) in
      while !c <> none do
        go !c;
        c := t.sibling.(!c)
      done
    end
  in
  go 0

let node_label t n =
  (* Climbing to the root yields the path in root-to-node order, which
     spells the label reversed (the tree is built on reversed contexts);
     reverse once more for the original symbol order. A tail node's
     edges below its head spell older symbols still. *)
  let rec go n acc = if n = 0 then acc else go t.parent.(n) (t.sym.(n) :: acc) in
  if n < t.used then List.rev (go n [])
  else begin
    let h = head_of t n and k = pos_of t n in
    let off = tail_off t h in
    let rec tail j acc = if j > k then acc else tail (j + 1) (t.pool.(off + j) :: acc) in
    tail 1 [] @ List.rev (go h [])
  end

(* A blit of every slot and pool word in use: the copy has the same ids,
   runs, tails and free lists, so every later operation (scoring,
   insertion, pruning) behaves bit-identically on it — the property the
   Check oracles rely on when snapshotting cluster models. *)
let copy t =
  let nodes a = Array.sub a 0 t.used and entries a = Array.sub a 0 t.entries_used in
  {
    t with
    count = nodes t.count;
    next_total = nodes t.next_total;
    parent = nodes t.parent;
    sym = nodes t.sym;
    depth = nodes t.depth;
    child = nodes t.child;
    sibling = nodes t.sibling;
    run = nodes t.run;
    run_len = nodes t.run_len;
    entry_sym = entries t.entry_sym;
    entry_count = entries t.entry_count;
    root_child = Array.copy t.root_child;
    free_runs = Array.copy t.free_runs;
    pool = Array.sub t.pool 0 t.pool_used;
  }

(* Counts-addition merge: a PST built from database A merged with one
   built from database B has exactly the counts of a PST built from
   A @ B (up to pruning), because every field is a sum of per-position
   observations. Children and runs are kept sorted by symbol, so the
   merged structure is independent of argument order — merge is
   commutative and associative under [equal_structure] as long as
   neither side has pruned.

   A head of [b] and its tail are one occurrence: below a node new to
   the merge the tail is copied as it is, below any other node it is
   walked in like an insertion. A head of [a]'s copy splits before it
   takes counts. Merged counts are not crossings: [active_changes] is
   [a]'s until the merged tree prunes, and the walk reports none. *)
let merge a b =
  if a.cfg <> b.cfg then invalid_arg "Pst.merge: configs differ";
  let t = copy a in
  let created = ref 0 in
  let rec add dst src =
    let fresh = t.count.(dst) = 0 && t.run_len.(dst) = 0 && t.child.(dst) = none in
    if is_head t dst then split_head t dst;
    t.count.(dst) <- t.count.(dst) + b.count.(src);
    iter_next_counts b src (add_next t dst);
    if is_head b src then begin
      let off = tail_off b src and len = tail_len b src in
      if fresh then begin
        hang_tail t dst b.pool (off + 1) 1 len;
        t.n_nodes <- t.n_nodes + len;
        created := !created + len
      end
      else begin
        let next_sym = if b.run_len.(src) > 0 then b.entry_sym.(b.run.(src)) else -1 in
        created := !created + descend t None dst b.pool (off + 1) 1 len next_sym
      end
    end
    else iter_children b src (fun s c -> add (child_or_create ~counted:true t dst s) c)
  in
  let changes = t.active_changes in
  add 0 0;
  t.active_changes <- changes;
  Obs.Metrics.incr ~by:!created m_node_creations;
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
  let rec emit_node path n =
    let buf = Buffer.create 64 in
    Buffer.add_string buf
      (Printf.sprintf "node %s %d"
         (if path = [] then "-" else String.concat "," (List.rev_map string_of_int path))
         (node_count t n));
    iter_next_counts t n (fun sym cnt ->
        Buffer.add_string buf (Printf.sprintf " %d:%d" sym cnt));
    Buffer.add_char buf '\n';
    emit (Buffer.contents buf);
    iter_children t n (fun sym child -> emit_node (sym :: path) child)
  in
  emit_node [] 0;
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
  (* Symbols index the tree's per-symbol reads; counts are occurrences. *)
  let symbol what x =
    match int_of_string_opt x with
    | Some v when v >= 0 && v < t.cfg.alphabet_size -> v
    | _ -> fail what
  in
  let occurrences what x =
    match int_of_string_opt x with Some v when v >= 0 -> v | _ -> fail what
  in
  let finished = ref false in
  while not !finished do
    match String.split_on_char ' ' (line ()) with
    | [ "end" ] -> finished := true
    | "node" :: path :: count :: next ->
        let path_syms =
          if path = "-" then []
          else List.map (symbol "bad path") (String.split_on_char ',' path)
        in
        (* Walk the root-to-node edge path, creating slots without
           counting: a loaded tree has no tails. *)
        let node = List.fold_left (child_or_create ~counted:false t) 0 path_syms in
        t.count.(node) <- occurrences "bad count" count;
        List.iter
          (fun pair ->
            match String.split_on_char ':' pair with
            | [ sym; cnt ] ->
                let sym = symbol "bad next entry" sym
                and cnt = occurrences "bad next entry" cnt in
                if has_entry t node (seek t node sym) sym then fail "repeated next entry";
                add_next t node sym cnt
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

(* Node by node through the accessors, so a tail and its slots compare
   equal. *)
let equal_structure a b =
  let entries t n =
    let acc = ref [] in
    iter_next_counts t n (fun sym c -> acc := (sym, c) :: !acc);
    !acc
  and children t n =
    let acc = ref [] in
    iter_children t n (fun sym c -> acc := (sym, c) :: !acc);
    List.rev !acc
  in
  let rec eq na nb =
    node_count a na = node_count b nb
    && next_total a na = next_total b nb
    && entries a na = entries b nb
    && List.equal (fun (sa, ca) (sb, cb) -> sa = sb && eq ca cb) (children a na) (children b nb)
  in
  a.cfg = b.cfg && eq 0 0

let pp ?(max_depth = 3) ?(min_count = 1) ~symbol fmt t =
  let rec render n =
    let depth = node_depth t n and count = node_count t n in
    if depth <= max_depth && (depth = 0 || count >= min_count) then begin
      Format.fprintf fmt "%s" (String.make (2 * depth) ' ');
      if depth = 0 then Format.fprintf fmt "(root)"
      else List.iter (fun sym -> symbol fmt sym) (node_label t n);
      Format.fprintf fmt "  C=%d%s" count (if is_significant t n then "*" else "");
      let total = next_total t n in
      if total > 0 then begin
        (* Show the conditional distribution, most probable symbols first. *)
        let entries = ref [] in
        iter_next_counts t n (fun sym c -> entries := (c, sym) :: !entries);
        Format.fprintf fmt "  P(next):";
        List.iteri
          (fun i (c, sym) ->
            if i < 4 then
              Format.fprintf fmt " %a=%.3f" symbol sym (float_of_int c /. float_of_int total))
          (List.sort (fun a b -> compare b a) !entries)
      end;
      Format.fprintf fmt "@.";
      iter_children t n (fun _ child -> render child)
    end
  in
  render 0

type stats = {
  nodes : int;
  significant_nodes : int;
  max_depth_used : int;
  approx_bytes : int;
}

(* The heap words of the store's arrays, spare capacity included. *)
let store_words t =
  let block a = Array.length a + 1 in
  (9 * block t.count)
  + block t.root_child + block t.entry_sym + block t.entry_count + block t.free_runs
  + block t.pool

let stats t =
  let nodes = ref 0 and sig_nodes = ref 0 and maxd = ref 0 in
  iter_nodes t (fun n ->
      incr nodes;
      if is_significant t n then incr sig_nodes;
      if node_depth t n > !maxd then maxd := node_depth t n);
  {
    nodes = !nodes;
    significant_nodes = !sig_nodes;
    max_depth_used = !maxd;
    approx_bytes = store_words t * (Sys.word_size / 8);
  }
