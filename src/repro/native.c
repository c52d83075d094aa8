/* Native kernels of the plain driver: the per-ball row loops, the alias
 * column-or-alias select and the Vose table build.
 *
 * Each function reproduces a Python or NumPy path of the package bit for
 * bit, on the same inputs:
 *
 *   run_rows      repro.core.fast.run_batch, once per row of an (R, k, d)
 *                 chunk (int64 loads compared by cross-multiplication);
 *   alias_select  the select of repro.sampling.alias.AliasSampler.sample;
 *   vose          the two-stack table build of AliasSampler.__init__.
 *
 * Built once with the system compiler and loaded through ctypes by
 * repro/native.py, which also guards every call: the driver refuses this
 * tier when (m + 1) * max(capacity) could pass 2^62, so no product here
 * overflows.  Every candidate index is bounds-checked; a bad one returns
 * an error code instead of touching memory.
 */
#include <stdint.h>
#include <stdlib.h>

#define REPRO_NATIVE_ABI 1

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

/* General d: fast._run_batch_general.  `best` holds the distinct tied bins
 * in first-seen order; a surviving tie takes best[(int)(u * size)]. */
static int row_general(int64_t n, int64_t k, int64_t d, int64_t *cnt,
                       const int64_t *caps, const int64_t *ch, const double *u,
                       double *h, int mode, int64_t *best)
{
    for (int64_t j = 0; j < k; j++) {
        const int64_t *row = ch + j * d;
        int64_t first = row[0];
        if ((uint64_t)first >= (uint64_t)n)
            return NATIVE_BAD_INDEX;
        int64_t size = 1, best_num = cnt[first] + 1, best_den = caps[first];
        best[0] = first;
        for (int64_t i = 1; i < d; i++) {
            int64_t b = row[i];
            if ((uint64_t)b >= (uint64_t)n)
                return NATIVE_BAD_INDEX;
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
        int64_t chosen = best[0];
        if (size > 1) {
            int64_t pos = (int64_t)(u[j] * (double)size);
            if (pos < 0 || pos >= size)
                return NATIVE_BAD_INDEX;
            chosen = best[pos];
        }
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
