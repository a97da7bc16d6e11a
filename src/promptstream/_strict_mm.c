/* Strict-order float32 products, cubic resampling and the elementwise
 * passes of silu, group_norm and softmax_last, all row-major.
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
 * products differ only in how they fill the panel.  Compile with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math or
 * any flag that lets the compiler reassociate the sum.
 *
 * The source fixes the tile's vector width.  gcc's tuning for the Xeons
 * with AVX-512 (-march=native on Skylake-SP through Sapphire Rapids)
 * prefers 256-bit vectors, so a 4 x 32 tile would be 16 ymm accumulators on
 * a host whose registers are twice as wide.  With the pragma below it is 8
 * zmm accumulators wherever the host has AVX-512, and the render's products
 * run 1.3-1.4x faster on a 2-vCPU Sapphire Rapids (BENCH_12.json); a host
 * without AVX-512 compiles what it did before.  The width changes no bytes:
 * each lane still rounds one float32 multiply and then one add, in the same
 * k order.
 *
 * Threads.  Both products cut their m x n output c (a convolution's
 * m is co, its n the output pixels) into the same tasks: task
 * t = p*chunks + r is rows [r*MC, r*MC + MC) of NR-column panel p, where
 * chunks = ceil(m / MC).  The tasks run on up to T threads: the caller's
 * thread and T-1 detached pthreads made for the call.  Every thread claims
 * the next task from a counter until none is left, so a thread that starts
 * late, or that shares its CPU, takes fewer tasks instead of holding up the
 * call; the caller returns once every task is done, without waiting for a
 * helper that has yet to start.  Every thread fills its own panel, and only
 * when its task moves to another panel.  Each entry of c is still computed
 * by one thread, from +0.0f over kk = 0 .. k-1, in the same register tile,
 * so the bytes do not depend on T or on which thread ran which task.  T is
 * the number of CPUs in the calling thread's affinity mask, at most the
 * number of tasks, and 1 for a product of fewer than SPLIT_MIN_WORK
 * multiply-adds (m*k*n; a convolution's k is ci*9).  The affinity mask is
 * the one control: there is no pool, no OpenMP and no environment
 * variable.  If a thread cannot be made, the others run its share.
 *
 * resample4_f32: four-tap resampling of the middle axis of x, viewed as
 * (outer, n, inner), into out of shape (outer, nj, inner):
 * out[o,j,i] = (t0*w0 + t1*w1) + (t2*w2 + t3*w3) with tk = x[o, idx[k,j], i]
 * and wk = w[k,j], for idx (4,nj) of indices in [0, n) and w (4,nj).  Every
 * product and sum rounds to float32 in that order, the order of the numpy
 * form, so the bytes are the same.  It writes the final layout straight,
 * with no copy of x and no array per tap, and runs on the caller's thread:
 * the render's x8 upsample is 3.1M multiply-adds an axis, below
 * SPLIT_MIN_WORK.  It allocates nothing.  The 512-bit preference reaches
 * it too: the render's last-axis pass (3x512x64 to 3x512x512) takes
 * 0.85-0.92 ms against 1.01-1.04 ms at 256 bits.
 *
 * The elementwise passes.  silu, group_norm and softmax_last keep numpy's
 * exp and its pairwise sums, whose bytes come from numpy's own SIMD loops.
 * Every other step is one exactly rounded operation (min, max, compare and
 * select, sub, mul, div, add), so a pass runs several of them per entry, in
 * the numpy forms' order, with the same bytes, in one pass over memory:
 *   silu          neg_abs_f32:  e = minimum(x, -x); then numpy's exp(e);
 *                 silu_f32:     e = x * (maximum(e, [x >= 0]) / (e + 1)).
 *   group_norm    numpy's mu, the mean of each group's row, out = (x - mu)^2,
 *                 the mean of each row and r = 1/sqrt(var + eps);
 *                 group_norm_f32: out = ((x - mu) * r) * gamma[c] + beta[c].
 *   softmax_last  sub_rowmax_f32: out = x - max(row), for rows of at least
 *                 LANES (16) entries; then numpy's exp, row sums and division.
 * Each writes out (or e) in place, so an op allocates its output alone,
 * and runs on the caller's thread: a 1 MiB pass takes about 0.07 ms, and
 * a pthread 31-42 us to make.  Like the products, the passes raise no
 * floating-point warning, and the three ops run their numpy steps under
 * np.errstate(invalid="ignore", over="ignore"), so an op warns about
 * neither inf - inf, -inf * 0 nor overflow, with or without the library.
 *
 * NaN.  Where two NaNs meet, numpy passes on one of them by where the pair
 * sits in its vectors, not by operand: in a float32 product of 17 to 31
 * entries (numpy 2.4, AVX-512), the first 16 give a's NaN and the others
 * b's, and a row's max is not always the row's first NaN.  No fixed rule in
 * C gives those bytes, so a NaN sends the call to the op's numpy form, and
 * every NaN an op returns has its numpy form's bytes.  The products and
 * the resample decline when their output holds a NaN (one test per tile
 * or row), the passes when their operands do: x for silu and
 * softmax_last, and mu, gamma or beta for group_norm, whose mu is NaN
 * wherever its group of x holds one.  Without a NaN operand, the NaNs the
 * passes' steps make are the host's default NaN (inf - inf, 0 * inf), the
 * same in C and numpy, r's among them, and no pass reads a NaN that
 * numpy's exp made.
 *
 * Every entry point returns 0 once it has written its output.  One that
 * meets a NaN as above, or a softmax_last whose rows are shorter than one
 * vector, returns 1 (DECLINED), and the op runs its numpy form; a product
 * that got no memory for its panel returns 2 (NO_PANEL), and the op raises
 * MemoryError.  numerics._strict_kernel reads these two codes.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__)
#pragma GCC target("prefer-vector-width=512")
#endif

/* The entry points' return codes other than 0 (see the header). */
enum { DECLINED = 1, NO_PANEL = 2 };

#define MR 4
#define NR 32
/* Rows in one task: a multiple of MR. */
#define MC (16 * MR)
/* Multiply-adds below which a product stays on the caller's thread.  On a
 * 2-vCPU Xeon (AVX-512, gcc 12.2), making an empty pthread and joining it
 * takes 31-42 us.  Two threads against one with the 512-bit tile, medians
 * of 40 calls in three runs: 0.70-0.75x at 64^3 (0.26M), 0.85-0.94x at
 * 77x32 @ 32x1024 (2.5M), 0.92-1.10x at 128^3 (2.1M), 0.95-1.35x at
 * 77x48 @ 48x1024 (3.8M) and 1.26-1.47x at 160^3 (4.1M); the render
 * block's products (25M and up) 1.4-2.1x, bar one reading of 0.97x.  The
 * 256-bit tile crossed over at the same sizes.  The decode path's rank-16
 * compose (77x16 @ 16x1024, 1.3M; 0.74-0.91x) and the fit's 77x8 @ 8x1024
 * (0.6M; 0.72-0.74x) stay on one thread. */
#define SPLIT_MIN_WORK (1L << 22)

/* c[:, j0:j0+nc] = a @ panel for the m rows of a (k columns, row-major); nonzero if c holds a NaN. */
static int tile_rows(const float *a, const float *panel, float *c, long m, long k, long n, long j0, long nc)
{
    int nan = 0;  /* one test per tile: a select per entry made 77x8 @ 8x1024 about 30% slower */
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
        for (int r = 0; r < MR; r++)
            for (int j = 0; j < NR; j++)
                nan |= acc[r][j] != acc[r][j];
        for (int r = 0; r < MR && i0 + r < m; r++)
            memcpy(c + (i0 + r) * n + j0, acc[r], sizeof(float) * nc);
    }
    return nan;
}

/* Let another hardware thread run while this one waits for the others' tasks. */
static void relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    sched_yield();
#endif
}

/* A k x NR panel, or NULL; free() it. */
static float *new_panel(long k)
{
    return aligned_alloc(64, sizeof(float) * NR * (k > 0 ? k : 1));
}

/* One call: c = a @ B for a of m x k and B of k x n.  fill(job, panel, j0, nc)
 * writes B's columns j0 .. j0+nc-1 into panel, zero-padded to NR columns;
 * B is b, or the patch matrix of the map b. */
struct job {
    void (*fill)(const struct job *, float *panel, long j0, long nc);
    const float *a, *b;
    float *c;
    long m, k, n;
    long ci, h, wd, s;             /* strict_conv3x3_f32: b is the (ci,h,wd) map */
    long chunks, tasks;            /* set by run_job */
    long next;                     /* the next task to claim */
    long done;                     /* tasks finished */
    long refs;                     /* threads that hold the job; the last one frees it */
    int nan;                       /* set once a task's part of c holds a NaN */
};

static void run_tasks(struct job *j, float *panel)
{
    long filled = -1;  /* the panel number that panel holds */
    for (long t; (t = __atomic_fetch_add(&j->next, 1, __ATOMIC_RELAXED)) < j->tasks;) {
        long p = t / j->chunks, r0 = t % j->chunks * MC;
        long j0 = p * NR, nc = j->n - j0 < NR ? j->n - j0 : NR, rows = j->m - r0 < MC ? j->m - r0 : MC;
        if (filled != p)
            j->fill(j, panel, j0, nc);
        filled = p;
        if (tile_rows(j->a + r0 * j->k, panel, j->c + r0 * j->n, rows, j->k, j->n, j0, nc))
            __atomic_store_n(&j->nan, 1, __ATOMIC_RELAXED);
        __atomic_fetch_add(&j->done, 1, __ATOMIC_RELEASE);  /* publishes the task's part of c */
    }
}

static void release(struct job *j)
{
    if (__atomic_sub_fetch(&j->refs, 1, __ATOMIC_ACQ_REL) == 0)
        free(j);
}

/* A helper thread: without a panel of its own, it leaves its share to the others. */
static void *helper(void *arg)
{
    struct job *j = arg;
    float *panel = new_panel(j->k);
    if (panel)
        run_tasks(j, panel);
    free(panel);
    release(j);
    return NULL;
}

/* T for a job's tasks (see Threads above). */
static long threads_for(const struct job *j)
{
    cpu_set_t set;
    if (j->tasks < 2 || (double)j->m * j->k * j->n < SPLIT_MIN_WORK || sched_getaffinity(0, sizeof set, &set))
        return 1;
    long t = CPU_COUNT(&set);
    return t < j->tasks ? t : j->tasks;
}

/* Run every task of *job on the caller's thread and up to T-1 detached
 * helpers; NO_PANEL if the caller has no panel, DECLINED if c holds a NaN
 * (the tasks still run to the end).  The caller waits for the
 * tasks, not for the helpers: one that starts after the last task was
 * claimed finds nothing to do, and the last thread out frees the job. */
static int run_job(struct job *job)
{
    float *panel = new_panel(job->k);
    if (!panel)
        return NO_PANEL;
    job->chunks = (job->m + MC - 1) / MC;
    job->tasks = job->chunks * ((job->n + NR - 1) / NR);
    long t = threads_for(job);
    struct job *j = t > 1 ? malloc(sizeof *j) : NULL;
    if (!j) {  /* one thread, or no memory to share the job: the caller runs every task */
        run_tasks(job, panel);
        free(panel);
        return job->nan ? DECLINED : 0;
    }
    *j = *job;
    j->refs = t;
    for (long i = 1; i < t; i++) {
        pthread_t tid;
        if (pthread_create(&tid, NULL, helper, j))
            __atomic_sub_fetch(&j->refs, 1, __ATOMIC_RELAXED);  /* the others run its share */
        else
            pthread_detach(tid);
    }
    run_tasks(j, panel);
    free(panel);
    while (__atomic_load_n(&j->done, __ATOMIC_ACQUIRE) < j->tasks)
        relax();
    int nan = __atomic_load_n(&j->nan, __ATOMIC_RELAXED);  /* each task's store came before its done */
    release(j);
    return nan ? DECLINED : 0;
}

/* Columns j0 .. j0+nc-1 of b. */
static void pack_panel(const struct job *j, float *panel, long j0, long nc)
{
    for (long kk = 0; kk < j->k; kk++) {
        memcpy(panel + kk * NR, j->b + kk * j->n + j0, sizeof(float) * nc);
        memset(panel + kk * NR + nc, 0, sizeof(float) * (NR - nc));
    }
}

int strict_mm_f32(const float *a, const float *b, float *c, long m, long k, long n)
{
    struct job j = {.fill = pack_panel, .a = a, .b = b, .c = c, .m = m, .k = k, .n = n};
    return run_job(&j);
}

/* The patch matrix's columns j0 .. j0+nc-1 (output pixels). */
static void gather_panel(const struct job *j, float *restrict panel, long j0, long nc)
{
    const float *restrict x = j->b;
    long ci = j->ci, h = j->h, w = j->wd, s = j->s, wo = w / s;
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
    struct job j = {.fill = gather_panel, .a = w, .b = x, .c = c, .m = co, .k = ci * 9, .n = (h / s) * (wd / s),
                    .ci = ci, .h = h, .wd = wd, .s = s};
    return run_job(&j);
}

/* One NaN test per row of out, not a branch per entry: with restrict on
 * every pointer, that lets gcc vectorize the last-axis loop with gathers.
 * DECLINED once a row holds a NaN. */
int resample4_f32(const float *restrict x, const long *restrict idx, const float *restrict w, float *restrict out,
                  long outer, long n, long inner, long nj)
{
    const long *restrict i0 = idx, *restrict i1 = idx + nj, *restrict i2 = idx + 2 * nj, *restrict i3 = idx + 3 * nj;
    const float *restrict w0 = w, *restrict w1 = w + nj, *restrict w2 = w + 2 * nj, *restrict w3 = w + 3 * nj;
    for (long o = 0; o < outer; o++) {
        const float *restrict xo = x + o * n * inner;
        float *restrict d = out + o * nj * inner;
        if (inner == 1) {  /* the last axis: one row of nj outputs, each gathering its four taps */
            int nan = 0;
            for (long j = 0; j < nj; j++) {
                float v = (xo[i0[j]] * w0[j] + xo[i1[j]] * w1[j]) + (xo[i2[j]] * w2[j] + xo[i3[j]] * w3[j]);
                d[j] = v;
                nan |= v != v;
            }
            if (nan)
                return DECLINED;
            continue;
        }
        for (long j = 0; j < nj; j++, d += inner) {  /* a row of inner outputs from four contiguous rows */
            const float *restrict r0 = xo + i0[j] * inner, *restrict r1 = xo + i1[j] * inner;
            const float *restrict r2 = xo + i2[j] * inner, *restrict r3 = xo + i3[j] * inner;
            float a0 = w0[j], a1 = w1[j], a2 = w2[j], a3 = w3[j];
            int nan = 0;
            for (long i = 0; i < inner; i++) {
                float v = (r0[i] * a0 + r1[i] * a1) + (r2[i] * a2 + r3[i] * a3);
                d[i] = v;
                nan |= v != v;
            }
            if (nan)
                return DECLINED;
        }
    }
    return 0;
}

/* The elementwise passes (see the header). */

/* e = minimum(x, -x) = -|x| over n entries; DECLINED if x holds a NaN. */
int neg_abs_f32(const float *restrict x, float *restrict e, long n)
{
    int nan = 0;
    for (long i = 0; i < n; i++) {
        e[i] = x[i] < -x[i] ? x[i] : -x[i];
        nan |= x[i] != x[i];
    }
    return nan ? DECLINED : 0;
}

/* e = x * (maximum(e, [x >= 0]) / (e + 1)) for e = exp(-|x|): x times its sigmoid. */
int silu_f32(const float *restrict x, float *restrict e, long n)
{
    for (long i = 0; i < n; i++) {
        float ge = x[i] >= 0.0f ? 1.0f : 0.0f;
        float num = e[i] > ge ? e[i] : ge;
        e[i] = x[i] * (num / (e[i] + 1.0f));
    }
    return 0;
}

/* out[k, i] = ((x[k, i] - mu[g]) * r[g]) * gamma[k] + beta[k] for channel k of
 * group g = k / (c / groups), hw entries a channel; DECLINED, writing nothing,
 * if mu, gamma or beta holds a NaN (mu does wherever x does). */
int group_norm_f32(const float *restrict x, const float *restrict mu, const float *restrict r,
                   const float *restrict gamma, const float *restrict beta, float *restrict out,
                   long c, long hw, long groups)
{
    long per = c / groups;
    for (long k = 0; k < c; k++)
        if (mu[k / per] != mu[k / per] || gamma[k] != gamma[k] || beta[k] != beta[k])
            return DECLINED;
    for (long k = 0; k < c; k++, x += hw, out += hw) {
        float m = mu[k / per], s = r[k / per], ga = gamma[k], be = beta[k];
        for (long i = 0; i < hw; i++)
            out[i] = ((x[i] - m) * s) * ga + be;
    }
    return 0;
}

/* Rows of softmax_last in 16-lane vectors; a row ends with the vector of
 * its last 16 entries, which may share entries with the one before it, so
 * no entry runs in a scalar tail. */
#define LANES 16
typedef float f32x16 __attribute__((vector_size(LANES * sizeof(float))));
typedef int i32x16 __attribute__((vector_size(LANES * sizeof(int))));

/* out = x - max(row) over rows of n entries; DECLINED if x holds a NaN or n < LANES. */
int sub_rowmax_f32(const float *restrict x, float *restrict out, long rows, long n)
{
    if (n < LANES)
        return DECLINED;
    for (long row = 0; row < rows; row++, x += n, out += n) {
        float m = x[0];
        int nan = m != m;
        f32x16 v, vm;
        memcpy(&vm, x + n - LANES, sizeof vm);
        i32x16 bad = vm != vm;
        for (long i = 0; i < n - LANES; i += LANES) {
            memcpy(&v, x + i, sizeof v);
            i32x16 gt = v > vm;
            vm = (f32x16)((gt & (i32x16)v) | (~gt & (i32x16)vm));
            bad |= v != v;
        }
        for (int j = 0; j < LANES; j++) {
            m = vm[j] > m ? vm[j] : m;
            nan |= bad[j];
        }
        if (nan)
            return DECLINED;
        for (long i = 0; i < n - LANES; i += LANES) {
            memcpy(&v, x + i, sizeof v);
            v = v - m;
            memcpy(out + i, &v, sizeof v);
        }
        memcpy(&v, x + n - LANES, sizeof v);
        v = v - m;
        memcpy(out + n - LANES, &v, sizeof v);
    }
    return 0;
}
