/* The package's two compiled kernels: the energy tables over a capacity
 * grid (energy_tables, for sim.py) and one Gibbs chain's sweeps
 * (gibbs_chain, for gibbs.py). Each performs exactly the operations of the
 * fallback loop beside its caller (numpy in sim.py, plain Python in
 * gibbs.py), in the same order and with plain double arithmetic, so both
 * paths give the same bits as long as the compiler neither contracts
 * a*b+c into a fused multiply-add nor reassociates: build with
 * -ffp-contract=off and without -ffast-math.
 *
 * energy_tables computes, per cell, the operations of the literal
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
 * Each cell is summed over t in ascending order, so the tables are
 * bit-identical to that loop. Only the order in which cells are visited
 * changes: per row i, t runs outside and the column loop inside, which the
 * compiler vectorises across j. The row's two accumulator rows (16 KB at
 * k = 1,002) stay in L1 while t sweeps the series.
 *
 * Inputs x1, x2 and grid are >= 0 (sim.PerUnitSeries and StrategyGrid
 * check this). The output arrays must be zero on entry.
 */
#include <stddef.h>
#include <stdint.h>

/* One binary, dispatched at load time to the widest vector unit present.
 * target_clones needs ifunc support (GNU/Linux ELF); elsewhere the portable
 * version is built. */
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__)
#define ENERGY_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define ENERGY_CLONES
#endif

ENERGY_CLONES
void energy_tables(ptrdiff_t n, ptrdiff_t k,
                   const double *restrict x1, const double *restrict x2,
                   const double *restrict p_d, const double *restrict grid,
                   double *restrict e_g1, double *restrict e_g2,
                   double *restrict e_c1, double *restrict e_c2)
{
    for (ptrdiff_t t = 0; t < n; t++) {
        const double u1 = x1[t], u2 = x2[t];
        for (ptrdiff_t a = 0; a < k; a++) {
            e_g1[a] += u1 * grid[a];
            e_g2[a] += u2 * grid[a];
        }
    }
    for (ptrdiff_t i = 0; i < k; i++) {
        double *restrict c1 = e_c1 + i * k;
        double *restrict c2 = e_c2 + i * k;
        for (ptrdiff_t t = 0; t < n; t++) {
            const double g1 = x1[t] * grid[i];
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

/* One chain's sweeps after its start state, over the CSR conditionals of
 * gibbs.SamplerTables.flat. Sweep t (1 <= t < n) reads the uniforms
 * u[3(t-1)], u[3(t-1)+1], u[3(t-1)+2] and draws
 *
 *   w1  = col_w1[k],  k = col_start[j] + (int64)(u0 * col_len[j]);  i = col_row[k]
 *   w2  = row_w2[k],  k = row_start[i] + (int64)(u1 * row_len[i]);  j = row_col[k]
 *   bin = min((int64)(((w1 + w2) * 0.5 - mean_origin) / mean_width), n_mean_bins - 1)
 *   p_d = dem_vals[k], k = dem_start[r] + (int64)(u2 * dem_len[r]),  r = mean_map[bin]
 *
 * starting from column j = j0, and writes the state of sweep t >= burn at
 * index t - burn of out_w1, out_w2 and out_pd. Lengths are doubles so that
 * u * length rounds as in numpy; casts truncate toward zero like astype.
 * The tables are checked on construction, so every index is in range.
 */
void gibbs_chain(ptrdiff_t n, ptrdiff_t burn, const double *restrict u, int64_t j0,
                 const int64_t *restrict col_start, const double *restrict col_len,
                 const double *restrict col_w1, const int64_t *restrict col_row,
                 const int64_t *restrict row_start, const double *restrict row_len,
                 const double *restrict row_w2, const int64_t *restrict row_col,
                 const int64_t *restrict dem_start, const double *restrict dem_len,
                 const double *restrict dem_vals, const int64_t *restrict mean_map,
                 double mean_origin, double mean_width, int64_t n_mean_bins,
                 double *restrict out_w1, double *restrict out_w2,
                 double *restrict out_pd)
{
    int64_t j = j0;
    for (ptrdiff_t t = 1; t < n; t++) {
        const double *v = u + 3 * (t - 1);
        int64_t k = col_start[j] + (int64_t)(v[0] * col_len[j]);
        const double w1 = col_w1[k];
        const int64_t i = col_row[k];
        k = row_start[i] + (int64_t)(v[1] * row_len[i]);
        const double w2 = row_w2[k];
        j = row_col[k];
        int64_t bin = (int64_t)(((w1 + w2) * 0.5 - mean_origin) / mean_width);
        bin = bin < n_mean_bins - 1 ? bin : n_mean_bins - 1;
        const int64_t r = mean_map[bin];
        const double p_d = dem_vals[dem_start[r] + (int64_t)(v[2] * dem_len[r])];
        if (t >= burn) {
            out_w1[t - burn] = w1;
            out_w2[t - burn] = w2;
            out_pd[t - burn] = p_d;
        }
    }
}
