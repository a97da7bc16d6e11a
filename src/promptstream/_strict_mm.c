/* Strict-order float32 products, all row-major.
 *
 * strict_mm_f32: c = a @ b.  Each c[i,j] starts at +0.0f and adds the
 * float32 product a[i,kk]*b[kk,j] for kk = 0, 1, ..., k-1, rounding after
 * every multiply and every add.
 *
 * strict_conv3x3_f32: the 3x3 convolution of a (ci,h,w) map x, padding 1,
 * stride s, by weights w of shape (co,ci,3,3), into c of shape
 * (co, h/s, w/s).  It is the product of w as a (co, ci*9) matrix with the
 * map's (ci*9, h/s * w/s) patch matrix, row kk = ch*9 + dy*3 + dx of which
 * reads x[ch, oy*s + dy - 1, ox*s + dx - 1] (+0.0f outside the map) for
 * output pixel j = oy*(w/s) + ox.  The patches are gathered straight from
 * x into each panel, so no patch matrix is built, and the sum runs in the
 * same order as strict_mm_f32 over that matrix: the bytes are the same.
 *
 * Only the tiling changes what runs: a tile of MR rows by NR columns of
 * accumulators is held in registers over the whole k loop, reading a
 * contiguous, zero-padded NR-column panel of the right operand.  The two
 * entry points differ only in how they fill the panel.  Compile with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math or
 * any flag that lets the compiler reassociate the sum.
 */
#include <stdlib.h>
#include <string.h>

#define MR 4
#define NR 32

/* c[:, j0:j0+nc] = a @ panel for the m rows of a (k columns, row-major). */
static void tile_rows(const float *a, const float *panel, float *c, long m, long k, long n, long j0, long nc)
{
    for (long i0 = 0; i0 < m; i0 += MR) {
        const float *row[MR];
        float acc[MR][NR];
        for (int r = 0; r < MR; r++)  /* past row m, repeat the last row */
            row[r] = a + (i0 + r < m ? i0 + r : m - 1) * k;
        for (int r = 0; r < MR; r++)
            for (int j = 0; j < NR; j++)
                acc[r][j] = 0.0f;
        for (long kk = 0; kk < k; kk++) {
            const float *p = panel + kk * NR;
            for (int r = 0; r < MR; r++) {
                float x = row[r][kk];
                for (int j = 0; j < NR; j++)
                    acc[r][j] += x * p[j];
            }
        }
        for (int r = 0; r < MR && i0 + r < m; r++)
            memcpy(c + (i0 + r) * n + j0, acc[r], sizeof(float) * nc);
    }
}

/* A k x NR panel, or NULL; free() it. */
static float *new_panel(long k)
{
    return aligned_alloc(64, sizeof(float) * NR * (k > 0 ? k : 1));
}

int strict_mm_f32(const float *a, const float *b, float *c, long m, long k, long n)
{
    float *panel = new_panel(k);
    if (!panel)
        return 1;
    for (long j0 = 0; j0 < n; j0 += NR) {
        long nc = n - j0 < NR ? n - j0 : NR;
        for (long kk = 0; kk < k; kk++) {
            memcpy(panel + kk * NR, b + kk * n + j0, sizeof(float) * nc);
            memset(panel + kk * NR + nc, 0, sizeof(float) * (NR - nc));
        }
        tile_rows(a, panel, c, m, k, n, j0, nc);
    }
    free(panel);
    return 0;
}

/* The patch matrix's columns j0 .. j0+nc-1 (output pixels) into a panel. */
static void gather_panel(float *restrict panel, const float *restrict x, long ci, long h, long w, long s,
                         long wo, long j0, long nc)
{
    long oy = j0 / wo, ox = j0 % wo;
    for (long t = 0, run; t < nc; t += run, oy++, ox = 0) {
        run = wo - ox < nc - t ? wo - ox : nc - t;  /* pixels left in this output row */
        for (long dy = 0; dy < 3; dy++) {
            long iy = oy * s + dy - 1;
            for (long dx = 0; dx < 3; dx++) {
                /* Input column of pixel ox + u is x0 + u*s; at most one
                 * pixel falls off each end of the row. */
                long x0 = ox * s + dx - 1;
                long lo = x0 < 0;
                long hi = run - (x0 + (run - 1) * s >= w);
                float *d = panel + (dy * 3 + dx) * NR + t;
                for (long ch = 0; ch < ci; ch++, d += 9 * NR) {
                    if (iy < 0 || iy >= h) {
                        memset(d, 0, sizeof(float) * run);
                        continue;
                    }
                    const float *row = x + (ch * h + iy) * w;
                    if (s == 1 && run == NR) {  /* fixed length: vector loads and stores */
                        for (long u = 0; u < NR; u++)
                            d[u] = u >= lo && u < hi ? row[x0 + u] : 0.0f;
                    } else {
                        for (long u = 0; u < lo; u++)
                            d[u] = 0.0f;
                        for (long u = lo; u < hi; u++)
                            d[u] = row[x0 + u * s];
                        for (long u = hi; u < run; u++)
                            d[u] = 0.0f;
                    }
                }
            }
        }
    }
    if (nc < NR)
        for (long kk = 0; kk < ci * 9; kk++)
            memset(panel + kk * NR + nc, 0, sizeof(float) * (NR - nc));
}

int strict_conv3x3_f32(const float *x, const float *w, float *c, long ci, long h, long wd, long co, long s)
{
    long ho = h / s, wo = wd / s, n = ho * wo, k = ci * 9;
    float *panel = new_panel(k);
    if (!panel)
        return 1;
    for (long j0 = 0; j0 < n; j0 += NR) {
        long nc = n - j0 < NR ? n - j0 : NR;
        gather_panel(panel, x, ci, h, wd, s, wo, j0, nc);
        tile_rows(w, panel, c, co, k, n, j0, nc);
    }
    free(panel);
    return 0;
}
