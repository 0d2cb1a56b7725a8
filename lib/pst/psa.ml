(* Compiling a frozen PST into a flat probabilistic suffix automaton.

   The tree's *active* nodes — the root plus every node whose whole root
   path has count >= significance — are exactly the nodes
   Pst.prediction_node can return: the greedy walk descends only into
   significant children, and since a node's tree ancestors are the
   shorter suffixes of its context (each PST edge prepends one *older*
   symbol), "reachable by the walk" = "every ancestor significant".
   The prediction for a history h is therefore the longest active
   suffix of h, capped at max_depth.

   Tracking "longest suffix of the input that belongs to a given string
   set" online is the Aho–Corasick problem. We build the AC automaton
   of the active labels written oldest-symbol-first: trie edges append
   one *newer* symbol, so reading the input left to right walks the
   trie, and the trie's inherent prefix-closure supplies precisely the
   extra states needed when the active set is not closed under dropping
   the newest symbol. That closure matters: on a *pruned* tree, a
   context w may be gone while its extension w·a survives (w lives in a
   different subtree than w·a, so subtree pruning can remove one
   without the other), and then the prediction depth jumps by more than
   one — a state per active node with a parent-recursion transition
   table gets this wrong, which is exactly what the fuzz oracle caught.
   On a never-pruned tree counts are monotone (every occurrence of w·a
   ending at position e contains an occurrence of w ending at e-1), the
   closure adds nothing, and states = active nodes.

   Failure links and the dense transition table come from the standard
   BFS (fail(child of u via a) = trans(fail u, a); trans(u, a) = child
   or trans(fail u, a)). Each state's *prediction node* is the deepest
   active suffix of its label — its own tree node when the label is an
   active context, else the failure chain's prediction (any active
   proper suffix is itself a trie node, hence a suffix of the failure
   target's label). Emissions are then precomputed with the tree's own
   smoothing formula (Pst.smoothed_log_prob), so the stored floats are
   bit-equal to what the tree walk computes at score time.

   Everything but the emissions is a function of the active set alone.
   While that set holds still (Pst.active_changes unchanged), an
   insertion only moves counts, and [refresh] brings the automaton up
   to date by rewriting the rows of the states whose prediction node's
   next_total moved — with the same row routine as [compile], hence
   the same floats a fresh compile would store.

   When the set only grew — contexts turned significant and no
   significant node was pruned — [refresh] patches the automaton
   instead of leaving it to a recompile, provided it has no closure
   states (every state predicts from its own node, so states = active
   nodes). The new contexts are the slots the insertions reported as
   they crossed (Pst.Crossings), which the caller hands over; there must
   be as many as Pst.active_changes moved by, so nothing the insertions
   did goes unseen and no part of the tree is walked to find them. A
   new context L = l1..lm gets a state u. Its trie children
   l1..lm·a have no states yet (a state's label minus its newest symbol
   is a state; a new L·a is deeper and patched later), so u's
   transitions are its failure link's: those of L's tree parent
   l2..lm. And every state whose label ends in L' = l1..l(m-1) — the
   states of L''s active subtree — now reaches u on lm, since the
   longest active suffix of its label·lm is L: a longer one would be an
   extension x·L, active only after L. No other transition and no
   prediction node changes. New contexts are patched shallowest first,
   so L's parent and L' already have states, and u is registered before
   the sweep because L lies in L''s subtree when it is one repeated
   symbol (then u reaches itself on lm). The result is the automaton a
   fresh compile would build, up to the numbering of its states. A
   crossing whose L' is not active (pruning since the compile took L'
   and it came back with a lower count) would need a closure state, and
   then [refresh] refuses, as it does after a significant node was
   pruned, and the caller recompiles.

   A transition entry holds the next state's row offset, state * n, not
   its number, so a scan's state chain is one add and one load per
   symbol (psa_stubs.c); [compile] and [patch] write offsets, and [step]
   divides.

   The finished tables live in Bigarrays, i.e. off the OCaml heap: the
   GC neither scans nor moves them, a compiled automaton is one flat
   malloc'd block per table, and Par worker domains read them without
   copies or cross-domain write traffic. A float64 Bigarray stores the
   exact IEEE double written into it, so off-heap storage changes no
   bit of any emission the tree walk would produce. *)

let m_compilations = Obs.Metrics.counter "pst.compilations"
let m_refreshes = Obs.Metrics.counter "pst.refreshes"
let m_patches = Obs.Metrics.counter "pst.patches"
let m_compiled_states = Obs.Metrics.counter "pst.compiled_states"
let m_table_bytes = Obs.Metrics.counter "pst.compiled_table_bytes"
let h_compile_seconds = Obs.Metrics.histogram "similarity.compile_seconds"
let h_refresh_seconds = Obs.Metrics.histogram "similarity.refresh_seconds"

type trans_table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type emit_table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* States [0, n_states) are in use. A compile sizes every table for
   exactly those; a patch grows them by half, so rows past [n_states]
   may be spare. *)
type t = {
  alphabet_size : int;
  mutable n_states : int;
  mutable trans : trans_table; (* state * n + sym -> next state * n *)
  mutable emit : emit_table; (* state * n + sym -> log P(sym | prediction ctx) *)
  mutable pred : Pst.node array; (* state -> its prediction node's id (an int) *)
  mutable pred_total : int array; (* state -> that node's next_total when its row was written *)
  source : Pst.t; (* the tree compiled *)
  mutable active_changes : int; (* its Pst.active_changes when last brought current *)
}

let alphabet_size t = t.alphabet_size
let n_states t = t.n_states
let transitions t = Bigarray.Array1.sub t.trans 0 (t.n_states * t.alphabet_size)
let emissions t = Bigarray.Array1.sub t.emit 0 (t.n_states * t.alphabet_size)

let check_state t state =
  if state < 0 || state >= t.n_states then invalid_arg "Psa: state out of range"

let prediction_depth t i =
  check_state t i;
  Pst.node_depth t.source t.pred.(i)

let cell t state sym =
  check_state t state;
  if sym < 0 || sym >= t.alphabet_size then invalid_arg "Psa: symbol out of range";
  (state * t.alphabet_size) + sym

let step t state sym = Bigarray.Array1.get t.trans (cell t state sym) / t.alphabet_size
let emission t state sym = Bigarray.Array1.get t.emit (cell t state sym)

(* 8 bytes per cell of both tables (int and float64 elements) and per
   entry of the two side arrays, over the states in use. *)
let table_bytes t = 8 * t.n_states * ((2 * t.alphabet_size) + 2)

(* State [u]'s emission row from its prediction node [nd]: the smoothed
   log-probability of every symbol by the tree's own formula. All
   zero-count symbols share one value, so a row costs one [log] plus one
   per observed symbol. The only writer of emission rows, for [compile],
   [patch] and [refresh] alike. [emit]'s type is spelled out so the
   writes compile to direct float64 stores rather than calls to the
   generic Bigarray primitive with a boxed float. *)
let write_row pst (emit : emit_table) ~n u nd =
  let total = Pst.next_total pst nd and base = u * n in
  let unseen = Pst.smoothed_log_prob pst ~count:0 ~total in
  for a = 0 to n - 1 do
    Bigarray.Array1.set emit (base + a) unseen
  done;
  Pst.iter_next_counts pst nd (fun a count ->
      Bigarray.Array1.set emit (base + a) (Pst.smoothed_log_prob pst ~count ~total))

(* The trie under construction, one per domain. Automata are compiled
   on the submitting domain and inside apply tasks alike; a working
   array allocated per call would land in the major heap every time, so
   it is kept and reused. *)
let trie_scratch = Domain.DLS.new_key (fun () -> ref [||])

(* Timed by [Metrics.time], not a span: clusters compile at creation and
   whenever a refresh cannot patch — far too often for the span tree. *)
let compile pst =
  Obs.Metrics.time h_compile_seconds @@ fun () ->
  let cfg = Pst.config pst in
  let n = cfg.Pst.alphabet_size in
  let sigma = cfg.Pst.significance in
  (* --- 1. trie of active labels, oldest symbol first (growable) --- *)
  let scratch = Domain.DLS.get trie_scratch in
  let count = ref 0 in
  (* A fresh trie node: its row of children starts empty. *)
  let new_state () =
    let id = !count in
    if (id + 1) * n > Array.length !scratch then begin
      let grown = Array.make (max (64 * n) (2 * Array.length !scratch)) (-1) in
      Array.blit !scratch 0 grown 0 (id * n);
      scratch := grown
    end;
    Array.fill !scratch (id * n) n (-1);
    incr count;
    id
  in
  ignore (new_state () (* state 0: the root, the empty context *));
  let add_child u a =
    let c = !scratch.((u * n) + a) in
    if c >= 0 then c
    else begin
      let id = new_state () in
      !scratch.((u * n) + a) <- id;
      id
    end
  in
  (* DFS over active tree nodes. [path] holds the PST edge symbols with
     the most recent edge at the head; PST edges prepend older symbols,
     so the head is the *oldest* context symbol — the trie consumes the
     list front to back. *)
  let actives = ref [] in
  let rec dfs node path =
    actives := (List.fold_left add_child 0 path, node) :: !actives;
    Pst.iter_children pst node (fun s child ->
        if Pst.node_count pst child >= sigma then dfs child (s :: path))
  in
  dfs (Pst.root pst) [];
  let n_states = !count in
  let children = !scratch in
  let anode = Array.make n_states None in
  List.iter (fun (u, node) -> anode.(u) <- Some node) !actives;
  (* --- 2. failure links + dense transitions, BFS (parents first) --- *)
  let trans = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (n_states * n) in
  Bigarray.Array1.fill trans 0;
  let fail = Array.make n_states 0 in
  let pred = Array.make n_states (Pst.root pst) in
  (match anode.(0) with Some root -> pred.(0) <- root | None -> ());
  let q = Queue.create () in
  let discover c failure =
    fail.(c) <- failure;
    (pred.(c) <- (match anode.(c) with Some nd -> nd | None -> pred.(failure)));
    Queue.add c q
  in
  for a = 0 to n - 1 do
    let c = children.(a) in
    if c >= 0 then begin
      discover c 0;
      Bigarray.Array1.set trans a (c * n)
    end
  done;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let base = u * n and fbase = fail.(u) * n in
    for a = 0 to n - 1 do
      let c = children.(base + a) in
      if c >= 0 then begin
        discover c (Bigarray.Array1.get trans (fbase + a) / n);
        Bigarray.Array1.set trans (base + a) (c * n)
      end
      else Bigarray.Array1.set trans (base + a) (Bigarray.Array1.get trans (fbase + a))
    done
  done;
  (* --- 3. emissions via the tree's own smoothing: bit-equal floats --- *)
  let emit = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n_states * n) in
  let pred_total = Array.map (Pst.next_total pst) pred in
  Array.iteri (fun u nd -> write_row pst emit ~n u nd) pred;
  Obs.Metrics.incr m_compilations;
  Obs.Metrics.incr ~by:n_states m_compiled_states;
  let t =
    {
      alphabet_size = n;
      n_states;
      trans;
      emit;
      pred;
      pred_total;
      source = pst;
      active_changes = Pst.active_changes pst;
    }
  in
  Obs.Metrics.incr ~by:(table_bytes t) m_table_bytes;
  t

(* Room for [more] states past [n_states]: every table and side array
   grows by half, so a patched state costs O(|Σ|) amortized. *)
let reserve t more =
  let needed = t.n_states + more in
  if needed > Array.length t.pred then begin
    let n = t.alphabet_size and cap = max needed (Array.length t.pred * 3 / 2) in
    let used = t.n_states * n in
    let grown_table kind old =
      let table = Bigarray.Array1.create kind Bigarray.c_layout (cap * n) in
      Bigarray.Array1.blit (Bigarray.Array1.sub old 0 used) (Bigarray.Array1.sub table 0 used);
      table
    in
    let grown a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n_states;
      b
    in
    t.trans <- grown_table Bigarray.int t.trans;
    t.emit <- grown_table Bigarray.float64 t.emit;
    t.pred <- grown t.pred (Pst.root t.source);
    t.pred_total <- grown t.pred_total 0
  end

(* Node id -> state for [patch], one per domain like the trie scratch;
   every entry is -1 between uses. *)
let state_scratch = Domain.DLS.new_key (fun () -> ref [||])

(* What [refresh] reads when its caller reported no crossings; never
   written, so every domain may share it. *)
let no_crossings = Pst.Crossings.create ()

(* The newest symbol of [nd]'s label: the edge below the root on its
   path. *)
let rec newest_symbol pst nd =
  if Pst.node_depth pst nd <= 1 then Pst.edge_symbol pst nd
  else newest_symbol pst (Pst.parent pst nd)

(* Adds a state for every context that turned active since [t] was last
   brought current: the slots [crossings] holds, which must be all of
   them — as many as [Pst.active_changes] moved by (see the header).
   Returns [false], touching nothing, when that takes a full compile: a
   significant node was pruned, the buffer does not account for every
   crossing, [t] has closure states, or a new context's label minus its
   newest symbol is not active. *)
let patch t pst crossings =
  let k = Pst.Crossings.length crossings in
  Pst.grew_only pst ~since:t.active_changes
  && k = Pst.active_changes pst - t.active_changes
  &&
  let sigma = (Pst.config pst).Pst.significance and n = t.alphabet_size in
  let scratch = Domain.DLS.get state_scratch in
  let bound = Pst.node_id_bound pst in
  if Array.length !scratch < bound then
    scratch := Array.make (max bound (2 * Array.length !scratch)) (-1);
  let state = !scratch and slot (nd : Pst.node) = (nd :> int) in
  (* [pred] inverted. A closure state predicts from the node of its
     longest active suffix, which has a state of its own, so the
     automaton is closure-free exactly when no node is claimed twice. *)
  let closure_free = ref true in
  for u = 0 to t.n_states - 1 do
    let i = slot t.pred.(u) in
    if state.(i) >= 0 then closure_free := false else state.(i) <- u
  done;
  Fun.protect ~finally:(fun () ->
      for u = 0 to t.n_states - 1 do
        state.(slot t.pred.(u)) <- -1
      done)
  @@ fun () ->
  !closure_free
  &&
  (* Each new context's L' (its label minus the newest symbol) must be
     active; a child never outcounts its parent, so a significant L' is.
     The depths bound the shallowest-first sweep below. *)
  let prefixes_active = ref true and dmin = ref max_int and dmax = ref 0 in
  for i = 0 to k - 1 do
    let nd = Pst.Crossings.get crossings i in
    (match Pst.drop_newest pst nd with
    | Some p when Pst.is_significant pst p -> ()
    | _ -> prefixes_active := false);
    let d = Pst.node_depth pst nd in
    dmin := min !dmin d;
    dmax := max !dmax d
  done;
  !prefixes_active
  && begin
       reserve t k;
       let trans = t.trans in
       let add nd =
         let u = t.n_states and p = state.(slot (Pst.parent pst nd)) in
         t.n_states <- u + 1;
         t.pred.(u) <- nd;
         state.(slot nd) <- u;
         for a = 0 to n - 1 do
           Bigarray.Array1.set trans ((u * n) + a) (Bigarray.Array1.get trans ((p * n) + a))
         done;
         write_row pst t.emit ~n u nd;
         t.pred_total.(u) <- Pst.next_total pst nd;
         (* The states of L''s active subtree; a node without a state
            there is new and deeper than L, and so is all below it. *)
         let newest = newest_symbol pst nd in
         let rec sweep nd =
           let v = state.(slot nd) in
           if v >= 0 then begin
             Bigarray.Array1.set trans ((v * n) + newest) (u * n);
             Pst.iter_children pst nd (fun _ c -> if Pst.node_count pst c >= sigma then sweep c)
           end
         in
         sweep (Option.get (Pst.drop_newest pst nd))
       in
       (* Shallowest first; the order among equal depths only numbers
          the states. *)
       for d = !dmin to !dmax do
         for i = 0 to k - 1 do
           let nd = Pst.Crossings.get crossings i in
           if Pst.node_depth pst nd = d then add nd
         done
       done;
       Obs.Metrics.incr m_patches;
       true
     end

let refresh ?(crossings = no_crossings) t pst =
  pst == t.source
  && Obs.Metrics.time h_refresh_seconds (fun () ->
         (Pst.active_changes pst = t.active_changes || patch t pst crossings)
         && begin
              t.active_changes <- Pst.active_changes pst;
              let n = t.alphabet_size in
              for u = 0 to t.n_states - 1 do
                let nd = t.pred.(u) in
                let total = Pst.next_total pst nd in
                if total <> t.pred_total.(u) then begin
                  write_row pst t.emit ~n u nd;
                  t.pred_total.(u) <- total
                end
              done;
              Obs.Metrics.incr m_refreshes;
              true
            end)

(* --- batch scoring ---------------------------------------------------- *)

(* Reusable output columns for [score_batch], one slot per lane (=
   sequence in the block): the log-similarity in an unboxed float array
   and the segment bounds in two int arrays, pre-sized so a scan
   allocates nothing per symbol or per lane. The Kadane accumulators
   live in the scan's registers. *)
type batch = {
  mutable cap : int;
  mutable log_sim : float array;
  mutable lo : int array;
  mutable hi : int array;
}

let batch_create ?(capacity = 64) () =
  let cap = max 1 capacity in
  { cap; log_sim = Array.make cap neg_infinity; lo = Array.make cap 0; hi = Array.make cap 0 }

let batch_capacity b = b.cap

let ensure_capacity b n =
  if n > b.cap then begin
    let cap = max n (2 * b.cap) in
    b.cap <- cap;
    b.log_sim <- Array.make cap neg_infinity;
    b.lo <- Array.make cap 0;
    b.hi <- Array.make cap 0
  end

let batch_log_sim b j = b.log_sim.(j)
let batch_seg_lo b j = b.lo.(j)
let batch_seg_hi b j = b.hi.(j)

(* The two scans of psa_stubs.c. [scan] writes lane j's log-similarity
   at index [at + j], four lanes in flight; [segment] writes one lane's
   log-similarity and best segment bounds at index [at]. Both return
   [false] on a symbol outside [0, n). *)
external scan :
  trans_table ->
  emit_table ->
  int ->
  float array ->
  Sequence.t array ->
  int ->
  float array ->
  bool = "cluseq_psa_scan_bytecode" "cluseq_psa_scan"
[@@noalloc]

external segment :
  trans_table ->
  emit_table ->
  int ->
  float array ->
  Sequence.t ->
  int ->
  float array ->
  int array ->
  int array ->
  bool = "cluseq_psa_segment_bytecode" "cluseq_psa_segment"
[@@noalloc]

let check_background t log_background =
  if Array.length log_background < t.alphabet_size then
    invalid_arg "Psa.score_batch: log_background shorter than the alphabet"

let symbol_outside () = invalid_arg "Psa.score_batch: symbol outside the compiled alphabet"

(* One automaton over a block of sequences, lane-major: each lane streams
   through cache linearly with the automaton state and the Kadane
   accumulators in registers, so the block costs zero heap words per
   symbol. Four lanes are in flight at once, a finished lane's slot
   refilled from the block, so four independent dependency chains
   overlap whatever the lanes' lengths. (A position-major variant — all
   lanes advancing one symbol per step against a state column — was
   measured ~25% slower: automaton states diverge across lanes within a
   few symbols, so interleaving buys no table-row reuse and pays a lane
   gather per symbol.)

   Per lane, either stub's float operations give the bits of the tree
   walk's ([Similarity.score]), on the same values in the same order
   (see psa_stubs.c for why its selects equal the walk's branches), and
   lanes never interact — so every log-similarity is bit-for-bit the
   tree walk's, whatever the block around it, its slot or the lanes it
   shares rounds with (the QCheck properties and the fuzz oracles
   enforce exact equality). The stubs write inside [at, at + lanes)
   only, which the checks below guarantee lie in the columns. *)
let score_into t ~log_background seqs ~at ~log_sim =
  if at < 0 || at + Array.length seqs > Array.length log_sim then
    invalid_arg "Psa.score_into: columns shorter than at + lanes";
  check_background t log_background;
  if not (scan t.trans t.emit t.alphabet_size log_background seqs at log_sim) then
    symbol_outside ()

let segment_into t ~log_background s ~at ~log_sim ~seg_lo ~seg_hi =
  if at < 0 || at >= Array.length log_sim || at >= Array.length seg_lo
     || at >= Array.length seg_hi
  then invalid_arg "Psa.segment_into: cell outside the columns";
  check_background t log_background;
  if not (segment t.trans t.emit t.alphabet_size log_background s at log_sim seg_lo seg_hi)
  then symbol_outside ()

let score_batch t ~log_background ~batch seqs =
  ensure_capacity batch (Array.length seqs);
  Array.iteri
    (fun j s ->
      segment_into t ~log_background s ~at:j ~log_sim:batch.log_sim ~seg_lo:batch.lo
        ~seg_hi:batch.hi)
    seqs
