/* Strict-order float32 matrix product: c = a @ b, all row-major.
 *
 * Each c[i,j] starts at +0.0f and adds the float32 product a[i,kk]*b[kk,j]
 * for kk = 0, 1, ..., k-1, rounding after every multiply and every add.
 * Only the tiling changes what runs: a tile of MR rows by NR columns of
 * accumulators is held in registers over the whole k loop.  Compile with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math or
 * any flag that lets the compiler reassociate the sum.
 */
#include <stdlib.h>
#include <string.h>

#define MR 4
#define NR 32

int strict_mm_f32(const float *a, const float *b, float *c, long m, long k, long n)
{
    /* b's NR-column panel, contiguous and zero-padded past column n. */
    float *panel = aligned_alloc(64, sizeof(float) * NR * (k > 0 ? k : 1));
    if (!panel)
        return 1;
    for (long j0 = 0; j0 < n; j0 += NR) {
        long nc = n - j0 < NR ? n - j0 : NR;
        for (long kk = 0; kk < k; kk++) {
            memcpy(panel + kk * NR, b + kk * n + j0, sizeof(float) * nc);
            memset(panel + kk * NR + nc, 0, sizeof(float) * (NR - nc));
        }
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
    free(panel);
    return 0;
}
