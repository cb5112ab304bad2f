/* The package's compiled kernels: the energy tables over a capacity grid
 * (energy_generation and energy_tables, for sim.py), the sweeps of one Gibbs
 * chain or of two in lockstep (gibbs_chain, for gibbs.py) and the
 * follower's best response to every leader capacity of a block of rows at
 * every sweep point (follower_best, for game.py). Each performs exactly the
 * operations of the fallback beside its caller (numpy in sim.py and game.py,
 * plain Python in gibbs.py), in the same order and with plain double
 * arithmetic, so both paths give the same bits as long as the compiler
 * neither contracts a*b+c into a fused multiply-add nor reassociates: build
 * with -ffp-contract=off and without -ffast-math. No kernel returns an
 * error: each caller checks what it passes, and game.py refuses what a
 * non-finite table or an overflowing profit would make of the results.
 * gibbs_chain also draws its uniforms itself, from each chain's numpy
 * PCG64 stream, where the fallback draws them with numpy. Otherwise the
 * loops are plain: a hand optimisation stays only where it was timed to
 * pay (energy_tables' guarded division, follower_best's order_key maximum).
 *
 * gibbs_chain needs unsigned __int128 (GCC and Clang have it on 64-bit
 * targets). A compiler without it fails the build, and the package runs
 * every fallback, with one warning.
 *
 * The energy kernels compute, per cell, the operations of the literal
 * per-timestep loop documented in sim.py:
 *
 *   e_g1[i]   += x1[t]*grid[i]        (e_g2 likewise with x2)
 *   g1 = x1[t]*grid[i];  total = g1 + x2[t]*grid[j]
 *   surplus   = max(total - p_d[t], 0)
 *   share     = total > 0 ? g1 / total : 0
 *   pc1       = surplus * share
 *   e_c1[i,j] += pc1;  e_c2[i,j] += surplus - pc1
 *
 * Timesteps are one hour long (ingest accepts hourly series only), so the
 * sums are energies in MWh without a timestep factor.
 *
 * Each cell is summed over t in ascending order from +0.0, so the tables
 * are bit-identical to that loop. Only the order in which cells are visited
 * changes. energy_generation runs t outside and i inside, which the compiler
 * vectorises across i. energy_tables fills a block of rows of e_c1 and e_c2,
 * so the caller can hold a few rows of the k x k tables at a time: per row
 * i, t runs outside and the column loop inside, which the compiler
 * vectorises across j, and the row's two accumulator rows (16 KB at
 * k = 1,002) stay in L1 while t sweeps the series.
 *
 * Inputs x1, x2 and grid are >= 0 (sim.PerUnitSeries and StrategyGrid
 * check this). Each kernel writes every cell of its outputs, so none needs
 * zeroing on entry.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* One binary, dispatched at load time to the widest vector unit present.
 * target_clones needs ifunc support (GNU/Linux ELF); elsewhere the portable
 * version is built. Defining VECTOR_CLONES on the command line (empty, with
 * -mavx512f, -mavx2 or no -m flag) builds one clone alone, so each can be
 * run and checked on any CPU that has its vector unit. */
#ifdef VECTOR_CLONES
#elif defined(__x86_64__) && defined(__linux__) && defined(__GNUC__)
#define VECTOR_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define VECTOR_CLONES
#endif

/* e_g1 and e_g2, k cells each: the generation sums of every grid row.
 * Built for the baseline vector unit alone: at k = 21 its AVX2 and AVX-512
 * clones slowed the energy_tables call after them by ~0.2-0.4 ms, more
 * than this ~0.03 ms loop takes. */
void energy_generation(ptrdiff_t n, ptrdiff_t k,
                       const double *restrict x1, const double *restrict x2,
                       const double *restrict grid,
                       double *restrict e_g1, double *restrict e_g2)
{
    for (ptrdiff_t i = 0; i < k; i++)
        e_g1[i] = e_g2[i] = 0.0;
    for (ptrdiff_t t = 0; t < n; t++) {
        const double u1 = x1[t], u2 = x2[t];
        for (ptrdiff_t i = 0; i < k; i++) {
            e_g1[i] += u1 * grid[i];
            e_g2[i] += u2 * grid[i];
        }
    }
}

/* Rows row0 .. row0 + rows - 1 of the k x k curtailment tables, written
 * to e_c1 and e_c2, each a rows x k block whose row r is grid row row0 + r.
 */
VECTOR_CLONES
void energy_tables(ptrdiff_t n, ptrdiff_t k, ptrdiff_t row0, ptrdiff_t rows,
                   const double *restrict x1, const double *restrict x2,
                   const double *restrict p_d, const double *restrict grid,
                   double *restrict e_c1, double *restrict e_c2)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        double *restrict c1 = e_c1 + r * k;
        double *restrict c2 = e_c2 + r * k;
        const double own = grid[row0 + r];
        for (ptrdiff_t j = 0; j < k; j++)
            c1[j] = c2[j] = 0.0;
        for (ptrdiff_t t = 0; t < n; t++) {
            const double g1 = x1[t] * own;
            const double u2 = x2[t], d = p_d[t];
            for (ptrdiff_t j = 0; j < k; j++) {
                const double total = g1 + u2 * grid[j];
                double surplus = total - d;
                surplus = surplus < 0.0 ? 0.0 : surplus;
                /* share = total > 0 ? g1/total : 0, written so the division
                 * runs in every lane and the loop vectorises without
                 * masking: total + 0.0 == total, and where total is 0 so is
                 * g1 (both outputs are >= 0), giving 0/1 == 0. */
                const double share = g1 / (total + (total > 0.0 ? 0.0 : 1.0));
                const double pc1 = surplus * share;
                c1[j] += pc1;
                c2[j] += surplus - pc1;
            }
        }
    }
}

#ifndef __SIZEOF_INT128__
#error "gibbs_chain needs unsigned __int128 for numpy's PCG64 generator"
#endif
typedef unsigned __int128 uint128;

/* numpy's PCG64 as Generator.random() uses it: a 128-bit LCG step, then the
 * XSL-RR output of the new state (the xor of its two halves, rotated right
 * by its top six bits), whose top 53 bits make a double in [0, 1). */
struct pcg64 {
    uint128 state, inc;
};

static inline double pcg64_random(struct pcg64 *g)
{
    const uint128 mult = (uint128)UINT64_C(0x2360ED051FC65DA4) << 64
                         | UINT64_C(0x4385DF649FCCF645);
    g->state = g->state * mult + g->inc;
    const uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(g->state >> 122);
    return (double)(((x >> rot) | (x << (-rot & 63u))) >> 11) * 0x1.0p-53;
}

/* The CSR conditionals of gibbs.SamplerTables.flat, the mean-wind map and
 * bins: _native.GibbsTables, built once per table in SamplerTables. */
struct gibbs_tables {
    const int64_t *col_start;
    const double *col_len, *col_w1;
    const int64_t *col_row, *row_start;
    const double *row_len, *row_w2;
    const int64_t *row_col, *dem_start;
    const double *dem_len, *dem_vals;
    const int64_t *mean_map;
    double mean_origin, mean_width;
    int64_t n_mean_bins;
};

/* One chain in flight: its generator, its current column and its
 * (3, kept) output, rows w1, w2 and p_d. */
struct gibbs_state {
    struct pcg64 g;
    int64_t j;
    double *out;
};

/* A chain's state from its five start words (see gibbs_chain). */
static inline struct gibbs_state gibbs_start(const uint64_t *w, double *out)
{
    const struct gibbs_state c = {{(uint128)w[0] << 64 | w[1], (uint128)w[2] << 64 | w[3]},
                                  (int64_t)w[4], out};
    return c;
}

/* One sweep of chain c. It always draws its three uniforms; it looks up
 * demand and writes the state only when the state is kept, at index at. */
static inline void gibbs_sweep(struct gibbs_state *c, const struct gibbs_tables *tb,
                               ptrdiff_t at, ptrdiff_t kept)
{
    const double u0 = pcg64_random(&c->g), u1 = pcg64_random(&c->g),
                 u2 = pcg64_random(&c->g);
    int64_t k = tb->col_start[c->j] + (int64_t)(u0 * tb->col_len[c->j]);
    const double w1 = tb->col_w1[k];
    const int64_t i = tb->col_row[k];
    k = tb->row_start[i] + (int64_t)(u1 * tb->row_len[i]);
    const double w2 = tb->row_w2[k];
    c->j = tb->row_col[k];
    if (at < 0)
        return;
    int64_t bin = (int64_t)(((w1 + w2) * 0.5 - tb->mean_origin) / tb->mean_width);
    bin = bin < tb->n_mean_bins - 1 ? bin : tb->n_mean_bins - 1;
    const int64_t r = tb->mean_map[bin];
    c->out[at] = w1;
    c->out[kept + at] = w2;
    c->out[2 * kept + at] = tb->dem_vals[tb->dem_start[r] + (int64_t)(u2 * tb->dem_len[r])];
}

/* The sweeps of one chain (out_b NULL) or of two in lockstep, after their
 * start states, over the tables. Sweep t (1 <= t < n) draws the chain's
 * next three uniforms u0, u1, u2 from its PCG64 stream and then
 *
 *   w1  = col_w1[k],  k = col_start[j] + (int64)(u0 * col_len[j]);  i = col_row[k]
 *   w2  = row_w2[k],  k = row_start[i] + (int64)(u1 * row_len[i]);  j = row_col[k]
 *   bin = min((int64)(((w1 + w2) * 0.5 - mean_origin) / mean_width), n_mean_bins - 1)
 *   p_d = dem_vals[k], k = dem_start[r] + (int64)(u2 * dem_len[r]),  r = mean_map[bin]
 *
 * and writes the state of sweep t >= burn at column t - burn of its
 * (3, n - burn) output. start holds five words per chain: the generator's
 * state and increment, each as (high, low) 64-bit halves as numpy's PCG64
 * reports them after the start state's two draws, then the start column.
 * Lengths are doubles so that u * length rounds as in numpy; casts truncate
 * toward zero like astype. The tables are checked on construction, so every
 * index is in range. The chains share no state: the second one's table
 * loads only fill the first one's load latency. One loop serves both
 * cases: with out_b NULL, b is a copy of a that is never swept, so start
 * needs only five words.
 */
void gibbs_chain(ptrdiff_t n, ptrdiff_t burn, const uint64_t *restrict start,
                 const struct gibbs_tables *restrict tables, double *restrict out_a,
                 double *restrict out_b)
{
    const struct gibbs_tables tb = *tables;
    const ptrdiff_t kept = n - burn;
    struct gibbs_state a = gibbs_start(start, out_a);
    struct gibbs_state b = out_b == NULL ? a : gibbs_start(start + 5, out_b);
    for (ptrdiff_t t = 1; t < n; t++) {
        gibbs_sweep(&a, &tb, t - burn, kept);
        if (out_b != NULL)
            gibbs_sweep(&b, &tb, t - burn, kept);
    }
}

/* A key per double's bits b that orders as the doubles do (-0.0 just below
 * +0.0, NaNs outside the infinities): b itself when the sign is clear, b
 * with every other bit flipped when it is set. The map is its own inverse.
 */
static inline int64_t order_key(int64_t b)
{
    return b ^ (int64_t)((uint64_t)(b >> 63) >> 1);
}

/* The follower's best responses for game.py's solve, in a block of rows of
 * the follower's curtailment table at every sweep point of one realisation.
 * e_c2 is that block, rows x k; cell j of its row i at point p is the
 * follower's profit, computed with exactly the operations of its twin
 * game._follower_profit:
 *
 *   pi2[p,i,j] = (e_g2[j] - e_c2[i,j]) * margin[p] - e_g2[j] * c_g2[p]
 *
 * with margin = p_g - p_t. cols[p*rows + i] is the first column of that
 * row's maximum, as np.argmax picks it, so -0.0 and +0.0 tie and the first
 * zero of either sign wins. work is k doubles of workspace, a row's profits
 * at one point; no k x k surface is stored. Rows run outside and points
 * inside, so each row of e_c2 is read once and stays in L1 while every
 * point uses it.
 *
 * A cell past game.py's cost bound, or of a non-finite table, may be inf or
 * NaN. The kernel still writes a column in [0, k) for each row: the scan
 * stops at the row's last cell when no cell equals the maximum (a NaN
 * maximum equals nothing). game.py keeps such a column only when the
 * reference's check finds every cell of both surfaces finite, and then it
 * is the first maximum.
 *
 * GCC vectorises no double max-reduction without -ffast-math, so the row's
 * maximum is taken over order_key of its cells' bits; a scan then finds the
 * first cell equal to the maximum.
 */
VECTOR_CLONES
void follower_best(ptrdiff_t k, ptrdiff_t rows, ptrdiff_t points,
                   const double *restrict e_g2, const double *restrict e_c2,
                   const double *restrict margin, const double *restrict c_g2,
                   int64_t *restrict cols, double *restrict work)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        const double *restrict c2 = e_c2 + i * k;
        for (ptrdiff_t p = 0; p < points; p++) {
            const double m = margin[p], c = c_g2[p];
            int64_t top = INT64_MIN;
            for (ptrdiff_t j = 0; j < k; j++) {
                const double v = (e_g2[j] - c2[j]) * m - e_g2[j] * c;
                int64_t b;
                memcpy(&b, &v, sizeof b);
                work[j] = v;
                const int64_t key = order_key(b);
                top = key > top ? key : top;
            }
            const int64_t top_bits = order_key(top);
            double peak;
            memcpy(&peak, &top_bits, sizeof peak);
            ptrdiff_t j = 0;
            while (j < k - 1 && work[j] != peak)
                j++;
            cols[p * rows + i] = j;
        }
    }
}
