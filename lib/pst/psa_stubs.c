/* The Kadane scan of Psa.score_batch: every lane of a block run over one
   compiled automaton, with no branch on the scores.

   Per symbol the tree walk's recurrence (Similarity.score) is
     y' = if y >= 0 then y + x else x;     start' = if y >= 0 then start else i
     if y' > z then (z, lo, hi) <- (y', start', i)
   and both tests depend on the data, so as branches they mispredict
   often enough to cost most of each symbol. Here they become selects:
     y' = max(-0.0, y) + x     z' = max(y', z)
   where max(a, b) is MAXSD's a > b ? a : b, which returns its second
   operand on ties; start, lo and hi take integer selects on the same two
   comparisons. The bits are the tree walk's for every input that is not
   NaN:
   - when y < 0, max(-0.0, y) is -0.0, and -0.0 (not +0.0) is the exact
     identity of IEEE addition in every sign of zero: -0.0 + x = x;
   - when y >= 0, -0.0 included, max(-0.0, y) is y itself;
   - y' = z keeps the older z and its bounds, as the walk's [>] does.
   No NaN reaches the scan: emissions are finite or -inf and the
   background is validated finite, so neither x nor y is ever NaN.
   The exactness needs add, subtract and compare exactly as written, so
   this file must not be built with -ffast-math or similar flags (there
   is no multiply for -ffp-contract to fuse).

   The stub reads the Bigarray tables, the background and the lanes in
   place and allocates nothing, hence [@@noalloc]: no GC can run while
   it does, and no value moves under it. It relies on flat float arrays
   (the configure option flat_float_array, on by default): a [float
   array] is a block of unboxed doubles, read and written as one. On a
   toolchain without them the build stops at the #error below. */

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

/* One lane's scan registers: the Kadane accumulators Y and Z, the
   automaton state, the running segment's start and the best segment's
   bounds. */
struct lane {
  double y, z;
  intnat state, start, lo, hi;
};

/* Empty lanes keep the [-1, -1] bounds of Similarity's empty result;
   the others start at [0, 0], as the tree walk does. */
static inline struct lane lane_start(intnat len)
{
  struct lane a = { -INFINITY, -INFINITY, 0, 0, 0, 0 };
  if (len == 0) a.lo = a.hi = -1;
  return a;
}

/* Symbol [i] of a lane, [sym] already checked against the alphabet. */
static inline void lane_step(struct lane *a, const intnat *trans, const double *emit,
                             const double *log_background, uintnat n, uintnat sym, intnat i)
{
  const uintnat idx = (uintnat) a->state * n + sym;
  const double x = emit[idx] - log_background[sym];
  const int extend = a->y >= 0.0;
  a->y = select_max(-0.0, a->y) + x;
  a->start = extend ? a->start : i;
  a->state = trans[idx];
  const int better = a->y > a->z;
  a->z = select_max(a->y, a->z);
  a->lo = better ? a->start : a->lo;
  a->hi = better ? i : a->hi;
}

/* Lane [a]'s symbols [from, len) of [s]; 0 on a symbol outside [0, n).
   One unsigned compare catches negative symbols too. */
static inline int lane_run(struct lane *a, const value *s, intnat from, intnat len,
                           const intnat *trans, const double *emit,
                           const double *log_background, uintnat n)
{
  for (intnat i = from; i < len; i++) {
    const uintnat sym = (uintnat) Long_val(s[i]);
    if (sym >= n) return 0;
    lane_step(a, trans, emit, log_background, n, sym, i);
  }
  return 1;
}

static inline void lane_store(const struct lane *a, value v_log_sim, value v_lo, value v_hi,
                              mlsize_t k)
{
  Store_double_flat_field(v_log_sim, k, a->z);
  /* Immediate integers: no write barrier needed. */
  Field(v_lo, k) = Val_long(a->lo);
  Field(v_hi, k) = Val_long(a->hi);
}

/* Scans every lane of [seqs]; lane j's log-similarity and segment bounds
   go to [log_sim], [lo] and [hi] at index [at + j], which the caller
   checked lies inside all three. Lanes go two at a time: one loop steps
   both over their common length, so that the two dependency chains
   overlap, and the longer lane's tail and an odd last lane run alone.
   Each lane's operations and their order are the one-lane loop's, so
   pairing changes no bit. Returns false when some lane holds a symbol
   outside [0, n) (the columns are then written only in part), true
   otherwise. */
CAMLprim value cluseq_psa_scan(value v_trans, value v_emit, value v_n, value v_log_background,
                               value v_seqs, value v_at, value v_log_sim, value v_lo,
                               value v_hi)
{
  const intnat *trans = (const intnat *) Caml_ba_data_val(v_trans);
  const double *emit = (const double *) Caml_ba_data_val(v_emit);
  const double *log_background = (const double *) v_log_background;
  const uintnat n = Long_val(v_n);
  const mlsize_t at = Long_val(v_at);
  const mlsize_t lanes = Wosize_val(v_seqs);
  mlsize_t j = 0;
  for (; j + 1 < lanes; j += 2) {
    const value *s0 = (const value *) Op_val(Field(v_seqs, j));
    const value *s1 = (const value *) Op_val(Field(v_seqs, j + 1));
    const intnat l0 = Wosize_val(Field(v_seqs, j)), l1 = Wosize_val(Field(v_seqs, j + 1));
    const intnat common = l0 < l1 ? l0 : l1;
    struct lane a = lane_start(l0), b = lane_start(l1);
    for (intnat i = 0; i < common; i++) {
      const uintnat sa = (uintnat) Long_val(s0[i]), sb = (uintnat) Long_val(s1[i]);
      if ((sa >= n) | (sb >= n)) return Val_false;
      lane_step(&a, trans, emit, log_background, n, sa, i);
      lane_step(&b, trans, emit, log_background, n, sb, i);
    }
    if (!lane_run(&a, s0, common, l0, trans, emit, log_background, n)
        || !lane_run(&b, s1, common, l1, trans, emit, log_background, n))
      return Val_false;
    lane_store(&a, v_log_sim, v_lo, v_hi, at + j);
    lane_store(&b, v_log_sim, v_lo, v_hi, at + j + 1);
  }
  if (j < lanes) {
    const value seq = Field(v_seqs, j);
    const intnat l = Wosize_val(seq);
    struct lane a = lane_start(l);
    if (!lane_run(&a, (const value *) Op_val(seq), 0, l, trans, emit, log_background, n))
      return Val_false;
    lane_store(&a, v_log_sim, v_lo, v_hi, at + j);
  }
  return Val_true;
}

CAMLprim value cluseq_psa_scan_bytecode(value *argv, int argn)
{
  (void) argn;
  return cluseq_psa_scan(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                         argv[7], argv[8]);
}
