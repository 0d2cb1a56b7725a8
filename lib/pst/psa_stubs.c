/* The two Kadane scans over a compiled automaton, with no branch on the
   scores: Psa.score_into's block scan, which computes log-similarities
   only, and Psa.segment_into's one-lane scan, which also tracks the
   best segment's bounds.

   Per symbol the tree walk's recurrence (Similarity.score) is
     y' = if y >= 0 then y + x else x;     start' = if y >= 0 then start else i
     if y' > z then (z, lo, hi) <- (y', start', i)
   and both tests depend on the data, so as branches they mispredict
   often enough to cost most of each symbol. Here they become selects:
     y' = max(-0.0, y) + x     z' = max(y', z)
   where max(a, b) is MAXSD's a > b ? a : b, which returns its second
   operand on ties; in the segment scan, start, lo and hi take integer
   selects on the same two comparisons. The bits are the tree walk's for
   every input that is not NaN:
   - when y < 0, max(-0.0, y) is -0.0, and -0.0 (not +0.0) is the exact
     identity of IEEE addition in every sign of zero: -0.0 + x = x;
   - when y >= 0, -0.0 included, max(-0.0, y) is y itself;
   - y' = z keeps the older z and its bounds, as the walk's [>] does.
   No NaN reaches the scan: emissions are finite or -inf and the
   background is validated finite, so neither x nor y is ever NaN.
   The exactness needs add, subtract and compare exactly as written, so
   this file must not be built with -ffast-math or similar flags (there
   is no multiply for -ffp-contract to fuse).

   Both scans perform the same float operations in the same order, so a
   lane's log-similarity is the same in either; only the segment scan
   pays for the bounds. The transition table holds premultiplied row
   offsets (next state * n), so the state chain is one add and one load
   per symbol: row' = trans[row + sym].

   The block scan keeps four lanes in flight, so that four independent
   dependency chains overlap. A lane that finishes hands its slot to the
   block's next lane ("refill"), so lanes of unequal length keep all
   four slots busy; each round advances every slot by the fewest
   symbols any of them has left. Once fewer than four lanes remain, each
   runs to its end alone. Each lane keeps its own accumulators and its
   one-lane operation order, whatever slot it runs in and whoever shares
   the round, so interleaving changes no bit.

   The stubs read the Bigarray tables, the background and the lanes in
   place and allocate nothing, hence [@@noalloc]: no GC can run while
   they do, and no value moves under them. They rely on flat float
   arrays (the configure option flat_float_array, on by default): a
   [float array] is a block of unboxed doubles, read and written as one.
   On a toolchain without them the build stops at the #error below. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <math.h>
#ifndef FLAT_FLOAT_ARRAY
#error "psa_stubs.c needs flat float arrays (configure option flat_float_array)"
#endif
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

/* a > b ? a : b, with b on ties. The intrinsic is what keeps the select
   a select: gcc 12 -O2 compiles the plain ?: on x86-64 into the branches
   this file exists to remove (it folds -0.0 + x into x and merges the z
   select with the bounds' test), and that build read 6.4-9.9 ns per
   symbol in traced benchmark runs against 3.7-4.9 ns with MAXSD (DESIGN.md
   section 13). The ?: stays for targets without SSE2, where it gives the
   same bits. */
static inline double select_max(double a, double b)
{
#if defined(__SSE2__)
  return _mm_cvtsd_f64(_mm_max_sd(_mm_set_sd(a), _mm_set_sd(b)));
#else
  return a > b ? a : b;
#endif
}

/* The tables a scan reads. */
struct tables {
  const intnat *trans;
  const double *emit;
  const double *log_background;
  uintnat n;
};

static inline struct tables tables_of(value v_trans, value v_emit, value v_n,
                                      value v_log_background)
{
  struct tables t = { (const intnat *) Caml_ba_data_val(v_trans),
                      (const double *) Caml_ba_data_val(v_emit),
                      (const double *) v_log_background, Long_val(v_n) };
  return t;
}

/* One symbol of a log-similarity lane: the Kadane accumulators Y and Z
   and the row offset, stepped by [sym], already checked against the
   alphabet. */
static inline void sim_step(const struct tables *t, double *y, double *z, uintnat *row,
                            uintnat sym)
{
  const uintnat idx = *row + sym;
  *y = select_max(-0.0, *y) + (t->emit[idx] - t->log_background[sym]);
  *row = (uintnat) t->trans[idx];
  *z = select_max(*y, *z);
}

/* A block lane in flight: its unscanned symbols, how many are left, its
   accumulators and row offset, and the lane index it is stored at. */
struct slot {
  const value *s;
  intnat left;
  double y, z;
  uintnat row;
  mlsize_t lane;
};

/* Loads the block's next lane into [a]: 1, or 0 once every lane has been
   taken. An empty lane has nothing to scan: its log-similarity, -inf, is
   stored at once and the next lane taken. */
static inline int slot_fill(struct slot *a, value v_seqs, mlsize_t *next, double *out)
{
  const mlsize_t lanes = Wosize_val(v_seqs);
  while (*next < lanes) {
    const mlsize_t j = (*next)++;
    const value seq = Field(v_seqs, j);
    if (Wosize_val(seq) == 0) {
      out[j] = -INFINITY;
      continue;
    }
    a->s = (const value *) Op_val(seq);
    a->left = Wosize_val(seq);
    a->y = a->z = -INFINITY;
    a->row = 0;
    a->lane = j;
    return 1;
  }
  return 0;
}

/* Lane [a]'s remaining symbols, alone; 0 on a symbol outside [0, n).
   One unsigned compare catches negative symbols too. */
static inline int slot_finish(const struct tables *t, struct slot *a, double *out)
{
  double y = a->y, z = a->z;
  uintnat row = a->row;
  for (intnat i = 0; i < a->left; i++) {
    const uintnat sym = (uintnat) Long_val(a->s[i]);
    if (sym >= t->n) return 0;
    sim_step(t, &y, &z, &row, sym);
  }
  out[a->lane] = z;
  return 1;
}

/* Scans every lane of [seqs]; lane j's log-similarity goes to
   [log_sim] at index [at + j], which the caller checked lies inside it.
   Four slots run in rounds (see the header): a round steps all four by
   the fewest symbols any has left, in one loop whose accumulators and
   row offsets stay in registers; then every finished lane is stored and
   its slot refilled. When the block runs dry, the lanes still in flight
   finish one at a time. Returns false when some lane holds a symbol
   outside [0, n) (the column is then written only in part), true
   otherwise. */
CAMLprim value cluseq_psa_scan(value v_trans, value v_emit, value v_n, value v_log_background,
                               value v_seqs, value v_at, value v_log_sim)
{
  const struct tables t = tables_of(v_trans, v_emit, v_n, v_log_background);
  const uintnat n = t.n;
  double *out = (double *) v_log_sim + Long_val(v_at);
  struct slot sl[4];
  mlsize_t next = 0;
  int live = 0;
  while (live < 4 && slot_fill(&sl[live], v_seqs, &next, out)) live++;
  while (live == 4) {
    intnat m = sl[0].left;
    for (int k = 1; k < 4; k++) m = sl[k].left < m ? sl[k].left : m;
    const value *s0 = sl[0].s, *s1 = sl[1].s, *s2 = sl[2].s, *s3 = sl[3].s;
    double y0 = sl[0].y, y1 = sl[1].y, y2 = sl[2].y, y3 = sl[3].y;
    double z0 = sl[0].z, z1 = sl[1].z, z2 = sl[2].z, z3 = sl[3].z;
    uintnat r0 = sl[0].row, r1 = sl[1].row, r2 = sl[2].row, r3 = sl[3].row;
    for (intnat i = 0; i < m; i++) {
      const uintnat a0 = (uintnat) Long_val(s0[i]), a1 = (uintnat) Long_val(s1[i]);
      const uintnat a2 = (uintnat) Long_val(s2[i]), a3 = (uintnat) Long_val(s3[i]);
      if ((a0 >= n) | (a1 >= n) | (a2 >= n) | (a3 >= n)) return Val_false;
      sim_step(&t, &y0, &z0, &r0, a0);
      sim_step(&t, &y1, &z1, &r1, a1);
      sim_step(&t, &y2, &z2, &r2, a2);
      sim_step(&t, &y3, &z3, &r3, a3);
    }
    sl[0].y = y0; sl[1].y = y1; sl[2].y = y2; sl[3].y = y3;
    sl[0].z = z0; sl[1].z = z1; sl[2].z = z2; sl[3].z = z3;
    sl[0].row = r0; sl[1].row = r1; sl[2].row = r2; sl[3].row = r3;
    /* Store the finished lanes and refill their slots; a slot the block
       cannot refill is dropped, which ends the rounds. */
    live = 0;
    for (int k = 0; k < 4; k++) {
      struct slot a = sl[k];
      a.s += m;
      a.left -= m;
      if (a.left == 0) {
        out[a.lane] = a.z;
        if (!slot_fill(&a, v_seqs, &next, out)) continue;
      }
      sl[live++] = a;
    }
  }
  for (int k = 0; k < live; k++)
    if (!slot_finish(&t, &sl[k], out)) return Val_false;
  return Val_true;
}

CAMLprim value cluseq_psa_scan_bytecode(value *argv, int argn)
{
  (void) argn;
  return cluseq_psa_scan(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}

/* Scans one lane [seq] with its best segment: the log-similarity and the
   segment's bounds go to index [at] of [log_sim], [lo] and [hi], which
   the caller checked lies inside all three. The float operations are the
   block scan's, in its order; [start], [lo] and [hi] take integer
   selects on the comparisons the two MAXSDs make. An empty lane keeps the [-1, -1]
   bounds of Similarity's empty result; the others start at [0, 0], as
   the tree walk does. Returns false, writing nothing, on a symbol
   outside [0, n). */
CAMLprim value cluseq_psa_segment(value v_trans, value v_emit, value v_n,
                                  value v_log_background, value v_seq, value v_at,
                                  value v_log_sim, value v_lo, value v_hi)
{
  const struct tables t = tables_of(v_trans, v_emit, v_n, v_log_background);
  const value *s = (const value *) Op_val(v_seq);
  const intnat len = Wosize_val(v_seq);
  const mlsize_t at = Long_val(v_at);
  double y = -INFINITY, z = -INFINITY;
  uintnat row = 0;
  intnat start = 0, lo = len == 0 ? -1 : 0, hi = lo;
  for (intnat i = 0; i < len; i++) {
    const uintnat sym = (uintnat) Long_val(s[i]);
    if (sym >= t.n) return Val_false;
    const uintnat idx = row + sym;
    const double x = t.emit[idx] - t.log_background[sym];
    const int extend = y >= 0.0;
    y = select_max(-0.0, y) + x;
    start = extend ? start : i;
    row = (uintnat) t.trans[idx];
    const int better = y > z;
    z = select_max(y, z);
    lo = better ? start : lo;
    hi = better ? i : hi;
  }
  Store_double_flat_field(v_log_sim, at, z);
  /* Immediate integers: no write barrier needed. */
  Field(v_lo, at) = Val_long(lo);
  Field(v_hi, at) = Val_long(hi);
  return Val_true;
}

CAMLprim value cluseq_psa_segment_bytecode(value *argv, int argn)
{
  (void) argn;
  return cluseq_psa_segment(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                            argv[7], argv[8]);
}
