/* Native kernels: the plain driver's per-ball row loops, the alias
 * column-or-alias select, the Vose table build and the allocation
 * service's staleness windows.
 *
 * Each function reproduces a Python or NumPy path of the package bit for
 * bit, on the same inputs:
 *
 *   run_rows        repro.core.fast.run_batch, once per row of an (R, k, d)
 *                   chunk (int64 loads compared by cross-multiplication);
 *   decide_windows  repro.core.rounds.stale_windows: every staleness window
 *                   of one service hash chunk, each key by stale_choice's
 *                   rule against the frozen loads, which take the live ones
 *                   at each window boundary;
 *   alias_select    the select of repro.sampling.alias.AliasSampler.sample;
 *   vose            the two-stack table build of AliasSampler.__init__.
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

#define REPRO_NATIVE_ABI 2

enum { NATIVE_OK = 0, NATIVE_BAD_INDEX = 1, NATIVE_NO_MEMORY = 2 };

int64_t repro_native_abi(void) { return REPRO_NATIVE_ABI; }

/* d = 2: fast._run_batch_d2.  mode 0 prefers the larger capacity on a load
 * tie, mode 2 the smaller, mode 1 (and an exact capacity tie) the coin. */
static int row_d2(int64_t n, int64_t k, int64_t *cnt, const int64_t *caps,
                  const int64_t *ch, const double *u, double *h, int mode)
{
    for (int64_t j = 0; j < k; j++) {
        int64_t a = ch[2 * j], b = ch[2 * j + 1], chosen;
        if ((uint64_t)a >= (uint64_t)n || (uint64_t)b >= (uint64_t)n)
            return NATIVE_BAD_INDEX;
        if (a == b) {
            chosen = a;
        } else {
            int64_t ca = caps[a], cb = caps[b];
            int64_t la = (cnt[a] + 1) * cb, lb = (cnt[b] + 1) * ca;
            if (la < lb)
                chosen = a;
            else if (lb < la)
                chosen = b;
            else if (mode == 0 && ca != cb)
                chosen = ca > cb ? a : b;
            else if (mode == 2 && ca != cb)
                chosen = ca < cb ? a : b;
            else
                chosen = u[j] < 0.5 ? a : b;
        }
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

/* In place: cols[i] = u[i] < prob[cols[i]] ? cols[i] : alias[cols[i]]. */
int alias_select(int64_t size, int64_t *cols, const double *u,
                 const double *prob, const int64_t *alias, int64_t n)
{
    for (int64_t i = 0; i < size; i++) {
        int64_t c = cols[i];
        if ((uint64_t)c >= (uint64_t)n)
            return NATIVE_BAD_INDEX;
        cols[i] = u[i] < prob[c] ? c : alias[c];
    }
    return NATIVE_OK;
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
