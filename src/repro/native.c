/* Native kernels: the plain driver's per-ball row loops, its fused
 * draw-select-place chunks, the Vose table build and the allocation
 * service's staleness windows.
 *
 * Each function reproduces a Python or NumPy path of the package bit for
 * bit, on the same inputs:
 *
 *   run_rows        repro.core.fast.run_batch, once per row of an (R, k, d)
 *                   chunk (int64 loads compared by cross-multiplication);
 *   fused_rows      one chunk of the plain driver as NumPy would draw it
 *                   (AliasSampler.sample, then the tie uniforms) followed
 *                   by run_rows, without the (R, k, d) arrays;
 *   pcg64_draws     the draws of fused_rows alone, for the load-time probe;
 *   decide_windows  repro.core.rounds.stale_windows: every staleness window
 *                   of one service hash chunk, each key by stale_choice's
 *                   rule against the frozen loads, which take the live ones
 *                   at each window boundary;
 *   vose            the two-stack table build of AliasSampler.__init__.
 *
 * Draws.  fused_rows steps NumPy's PCG64 (XSL-RR 128/64) itself: a
 * bounded int is NumPy's 32-bit Lemire rejection on next_uint32, which
 * hands out the two halves of one 64-bit output low half first and keeps
 * the high half buffered (has_uint32/uinteger) for the next call; a
 * double is (next_uint64 >> 11) * 2^-53 and leaves that buffer alone.
 * The state crosses as six uint64 (state high/low, increment high/low,
 * has_uint32, uinteger) that repro/native.py reads from and writes back
 * to the generator's public `state`, so no NumPy struct layout is read
 * here.  Without a 128-bit integer type the draw kernels report
 * NATIVE_NO_DRAWS and the caller keeps NumPy's draws.
 *
 * Built once with the system compiler and loaded through ctypes by
 * repro/native.py, which also guards every call: a caller refuses this
 * tier when (max load + balls + 1) * max(capacity) could pass 2^62, so no
 * product here overflows.  Every candidate index is bounds-checked; a bad
 * one returns an error code instead of touching memory.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_NATIVE_ABI 3

enum { NATIVE_OK = 0, NATIVE_BAD_INDEX = 1, NATIVE_NO_MEMORY = 2,
       NATIVE_NO_DRAWS = 3 };

int64_t repro_native_abi(void) { return REPRO_NATIVE_ABI; }

/* d = 2: fast._run_batch_d2.  mode 0 prefers the larger capacity on a load
 * tie, mode 2 the smaller, mode 1 (and an exact capacity tie) the coin.
 * Branch-free: each comparison is data-dependent and mispredicts about
 * half the time.  A repeated candidate (a == b) wins either way. */
static int row_d2(int64_t n, int64_t k, int64_t *cnt, const int64_t *caps,
                  const int64_t *ch, const double *u, double *h, int mode)
{
    int64_t sign = mode == 0 ? 1 : mode == 2 ? -1 : 0;
    for (int64_t j = 0; j < k; j++) {
        int64_t a = ch[2 * j], b = ch[2 * j + 1];
        if ((uint64_t)a >= (uint64_t)n || (uint64_t)b >= (uint64_t)n)
            return NATIVE_BAD_INDEX;
        int64_t ca = caps[a], cb = caps[b];
        int64_t la = (cnt[a] + 1) * cb, lb = (cnt[b] + 1) * ca;
        int64_t pref = sign * ((cb > ca) - (cb < ca)); /* > 0: b's capacity wins */
        int64_t tie_b = (pref > 0) | ((pref == 0) & (u[j] >= 0.5));
        int64_t take_b = (lb < la) | ((lb == la) & tie_b);
        int64_t chosen = a ^ ((a ^ b) & -take_b);
        cnt[chosen] += 1;
        if (h)
            h[j] = (double)cnt[chosen] / (double)caps[chosen];
    }
    return NATIVE_OK;
}

/* One ball among the d candidates `row`, against the loads `cnt`: the
 * smallest (cnt + 1) / cap by cross-multiplication; `best` collects the
 * distinct tied bins in first-seen order, mode 0 keeps the largest
 * capacity among them, mode 2 the smallest, mode 1 all; a surviving tie
 * takes best[(int)(u * size)].  Returns the winner, or -1 on a bad index.
 * The one copy of the general-d rule (fast._run_batch_general and
 * rounds.stale_choice, which is mode 0). */
static inline int64_t pick(int64_t n, int64_t d, const int64_t *row,
                           const int64_t *cnt, const int64_t *caps, double u,
                           int mode, int64_t *best)
{
    int64_t first = row[0];
    if ((uint64_t)first >= (uint64_t)n)
        return -1;
    int64_t size = 1, best_num = cnt[first] + 1, best_den = caps[first];
    best[0] = first;
    for (int64_t i = 1; i < d; i++) {
        int64_t b = row[i];
        if ((uint64_t)b >= (uint64_t)n)
            return -1;
        int64_t num = cnt[b] + 1, den = caps[b];
        int64_t lhs = num * best_den, rhs = best_num * den;
        if (lhs < rhs) {
            best[0] = b;
            size = 1;
            best_num = num;
            best_den = den;
        } else if (lhs == rhs) {
            int64_t seen = 0;
            for (int64_t t = 0; t < size; t++)
                if (best[t] == b) {
                    seen = 1;
                    break;
                }
            if (!seen)
                best[size++] = b;
        }
    }
    if (size > 1 && mode != 1) {
        int64_t keep = caps[best[0]];
        for (int64_t t = 1; t < size; t++) {
            int64_t c = caps[best[t]];
            if (mode == 0 ? c > keep : c < keep)
                keep = c;
        }
        int64_t kept = 0;
        for (int64_t t = 0; t < size; t++)
            if (caps[best[t]] == keep)
                best[kept++] = best[t];
        size = kept;
    }
    if (size == 1)
        return best[0];
    int64_t pos = (int64_t)(u * (double)size);
    return pos < 0 || pos >= size ? -1 : best[pos];
}

/* General d: fast._run_batch_general, one pick per ball. */
static int row_general(int64_t n, int64_t k, int64_t d, int64_t *cnt,
                       const int64_t *caps, const int64_t *ch, const double *u,
                       double *h, int mode, int64_t *best)
{
    for (int64_t j = 0; j < k; j++) {
        int64_t chosen = pick(n, d, ch + j * d, cnt, caps, u[j], mode, best);
        if (chosen < 0)
            return NATIVE_BAD_INDEX;
        cnt[chosen] += 1;
        if (h)
            h[j] = (double)cnt[chosen] / (double)caps[chosen];
    }
    return NATIVE_OK;
}

/* R rows of one chunk: counts (R, n), caps (n,), choices (R, k, d),
 * tie_u (R, k); heights, when not NULL, holds R rows of k doubles
 * `hstride` doubles apart. */
int run_rows(int64_t R, int64_t n, int64_t k, int64_t d, int64_t *counts,
             const int64_t *caps, const int64_t *choices, const double *tie_u,
             double *heights, int64_t hstride, int mode)
{
    int64_t *best = NULL;
    if (d != 2) {
        best = malloc((size_t)d * sizeof *best);
        if (!best)
            return NATIVE_NO_MEMORY;
    }
    int status = NATIVE_OK;
    for (int64_t r = 0; r < R && status == NATIVE_OK; r++) {
        int64_t *cnt = counts + r * n;
        const int64_t *ch = choices + r * k * d;
        const double *u = tie_u + r * k;
        double *h = heights ? heights + r * hstride : NULL;
        status = d == 2 ? row_d2(n, k, cnt, caps, ch, u, h, mode)
                        : row_general(n, k, d, cnt, caps, ch, u, h, mode, best);
    }
    free(best);
    return status;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* NumPy's PCG64 state, kept in locals while a chunk is drawn. */
typedef struct {
    u128 state, inc;
    uint64_t has_uint32, uinteger;
} pcg64;

#define PCG64_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static pcg64 pcg64_load(const uint64_t *st)
{
    pcg64 g = {((u128)st[0] << 64) | st[1], ((u128)st[2] << 64) | st[3],
               st[4], st[5]};
    return g;
}

static void pcg64_store(const pcg64 *g, uint64_t *st)
{
    st[0] = (uint64_t)(g->state >> 64);
    st[1] = (uint64_t)g->state;
    st[2] = (uint64_t)(g->inc >> 64);
    st[3] = (uint64_t)g->inc;
    st[4] = g->has_uint32;
    st[5] = g->uinteger;
}

static inline uint64_t pcg64_next64(pcg64 *g)
{
    g->state = g->state * PCG64_MULT + g->inc;
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (v >> rot) | (v << ((-rot) & 63));
}

static inline uint32_t pcg64_next32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t)g->uinteger;
    }
    uint64_t next = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = next >> 32;
    return (uint32_t)next;
}

static inline double pcg64_double(pcg64 *g)
{
    return (double)(pcg64_next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* Generator.integers(0, n): Lemire's rejection on 32-bit words, for
 * 2 <= n < 2^32. */
static inline uint32_t pcg64_bounded(pcg64 *g, uint32_t n)
{
    uint64_t m = (uint64_t)pcg64_next32(g) * n;
    uint32_t leftover = (uint32_t)m;
    if (leftover < n) {
        uint32_t threshold = (uint32_t)(0u - n) % n;
        while (leftover < threshold) {
            m = (uint64_t)pcg64_next32(g) * n;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* The LCG jumped `delta` steps ahead (PCG64.advance), the buffered half
 * word left as it was. */
static void pcg64_jump(pcg64 *g, uint64_t delta)
{
    u128 mult = PCG64_MULT, plus = g->inc, acc_mult = 1, acc_plus = 0;
    while (delta) {
        if (delta & 1) {
            acc_mult *= mult;
            acc_plus = acc_plus * mult + plus;
        }
        plus = (mult + 1) * plus;
        mult *= mult;
        delta >>= 1;
    }
    g->state = acc_mult * g->state + acc_plus;
}

/* The draws of one chunk: `nints` bounded ints in [0, n), then the next
 * `ndoubles` doubles, then `nties` more doubles, as three NumPy calls
 * would make them.  The ties are read from a second cursor, the stream
 * jumped `ndoubles` steps past the ints (a double is one step), which is
 * where the stream ends up. */
int pcg64_draws(uint64_t *st, int64_t n, int64_t nints, int64_t *ints,
                int64_t ndoubles, double *doubles, int64_t nties, double *ties)
{
    pcg64 g = pcg64_load(st);
    for (int64_t i = 0; i < nints; i++)
        ints[i] = pcg64_bounded(&g, (uint32_t)n);
    pcg64 tie = g;
    pcg64_jump(&tie, (uint64_t)ndoubles);
    for (int64_t i = 0; i < ndoubles; i++)
        doubles[i] = pcg64_double(&g);
    for (int64_t i = 0; i < nties; i++)
        ties[i] = pcg64_double(&tie);
    pcg64_store(&tie, st);
    return NATIVE_OK;
}

#define FUSED_TILE 256

/* One plain-driver chunk of R rows of k balls from one PCG64 stream, in
 * NumPy's order: every row's R * k * d column draws (integers), then as
 * many alias doubles (random), then R * k tie doubles (random).  The
 * columns go to `cols` first; then one pass per row selects each column
 * or its alias (u < prob[col], AliasSampler.sample's rule), reading the
 * alias doubles from the stream and the ties from a cursor jumped past
 * them, and places the row's balls a tile at a time with run_rows' loops.
 * Selected candidates go to `out` (R rows `ostride` apart) when it is not
 * NULL; counts, caps, heights and mode are run_rows'. */
int fused_rows(int64_t R, int64_t n, int64_t k, int64_t d, uint64_t *st,
               uint32_t *cols, const double *prob, const int64_t *alias,
               int64_t *counts, const int64_t *caps, double *heights,
               int64_t hstride, int64_t *out, int64_t ostride, int mode)
{
    if (n < 2 || n > (int64_t)UINT32_MAX)
        return NATIVE_BAD_INDEX;
    int64_t total = R * k * d;
    pcg64 g = pcg64_load(st);
    for (int64_t i = 0; i < total; i++)
        cols[i] = pcg64_bounded(&g, (uint32_t)n);
    pcg64 tie = g;
    pcg64_jump(&tie, (uint64_t)total);

    int64_t *tile = NULL, *best = NULL;
    if (!out)
        tile = malloc((size_t)(FUSED_TILE * d) * sizeof *tile);
    if (d != 2)
        best = malloc((size_t)d * sizeof *best);
    if ((!out && !tile) || (d != 2 && !best)) {
        free(tile);
        free(best);
        return NATIVE_NO_MEMORY;
    }
    double u[FUSED_TILE];
    int status = NATIVE_OK;
    const uint32_t *c = cols;
    for (int64_t r = 0; r < R && status == NATIVE_OK; r++) {
        int64_t *cnt = counts + r * n;
        for (int64_t j0 = 0; j0 < k && status == NATIVE_OK; j0 += FUSED_TILE) {
            int64_t jn = k - j0 < FUSED_TILE ? k - j0 : FUSED_TILE;
            int64_t *ch = out ? out + r * ostride + j0 * d : tile;
            for (int64_t t = 0; t < jn * d; t++, c++) {
                int64_t col = *c, other = alias[col];
                int64_t keep = pcg64_double(&g) < prob[col];
                ch[t] = other ^ ((other ^ col) & -keep);
            }
            for (int64_t t = 0; t < jn; t++)
                u[t] = pcg64_double(&tie);
            double *h = heights ? heights + r * hstride + j0 : NULL;
            status = d == 2 ? row_d2(n, jn, cnt, caps, ch, u, h, mode)
                            : row_general(n, jn, d, cnt, caps, ch, u, h, mode, best);
        }
    }
    free(tile);
    free(best);
    pcg64_store(&tie, st);
    return status;
}
#else
int pcg64_draws(uint64_t *st, int64_t n, int64_t nints, int64_t *ints,
                int64_t ndoubles, double *doubles, int64_t nties, double *ties)
{
    return NATIVE_NO_DRAWS;
}

int fused_rows(int64_t R, int64_t n, int64_t k, int64_t d, uint64_t *st,
               uint32_t *cols, const double *prob, const int64_t *alias,
               int64_t *counts, const int64_t *caps, double *heights,
               int64_t hstride, int64_t *out, int64_t ostride, int mode)
{
    return NATIVE_NO_DRAWS;
}
#endif

/* The service's staleness windows over one hash chunk: ball j (owners
 * row j, tie draw u[j]) is picked against `frozen` by stale_choice's rule
 * (mode 0) and counted in `live`; the first window holds `first` balls,
 * every later one `every`, and at each window boundary `live` is copied
 * into `frozen` (where the service's view refreshes).  Winners go to
 * `winners`; `frozen` and `live` (n loads each) are updated in place. */
int decide_windows(int64_t W, int64_t d, int64_t n, const int64_t *owners,
                   const double *u, int64_t *frozen, int64_t *live,
                   const int64_t *caps, int64_t first, int64_t every,
                   int64_t *winners)
{
    int64_t *best = malloc((size_t)d * sizeof *best);
    if (!best)
        return NATIVE_NO_MEMORY;
    int status = NATIVE_OK;
    int64_t left = first;
    for (int64_t j = 0; j < W; j++) {
        int64_t chosen = pick(n, d, owners + j * d, frozen, caps, u[j], 0, best);
        if (chosen < 0) {
            status = NATIVE_BAD_INDEX;
            break;
        }
        winners[j] = chosen;
        live[chosen] += 1;
        if (--left == 0) {
            memcpy(frozen, live, (size_t)n * sizeof *live);
            left = every;
        }
    }
    free(best);
    return status;
}

/* Vose's two-stack build over `scaled` (p * n, consumed): the same LIFO
 * order and the same `(s[hi] + s[lo]) - 1.0` as the Python loop, so the
 * tables come out byte-identical.  `small` and `large` hold n entries. */
void vose(int64_t n, double *scaled, double *prob, int64_t *alias,
          int64_t *small, int64_t *large)
{
    int64_t ns = 0, nl = 0;
    for (int64_t i = 0; i < n; i++) {
        prob[i] = 1.0;
        alias[i] = i;
        if (scaled[i] < 1.0)
            small[ns++] = i;
        else
            large[nl++] = i;
    }
    while (ns && nl) {
        int64_t lo = small[--ns], hi = large[--nl];
        prob[lo] = scaled[lo];
        alias[lo] = hi;
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0;
        if (scaled[hi] < 1.0)
            small[ns++] = hi;
        else
            large[nl++] = hi;
    }
}
