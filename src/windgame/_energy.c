/* Generation and curtailment energy tables over a capacity grid.
 *
 * Computes, per cell, exactly the operations of the literal per-timestep
 * loop documented in sim.py, in the same order and with plain double
 * arithmetic:
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
 * bit-identical to that loop as long as the compiler neither contracts
 * a*b+c into a fused multiply-add nor reassociates: build with
 * -ffp-contract=off and without -ffast-math. Only the order in which
 * cells are visited changes: per row i and block of columns, t runs
 * outside and the column loop inside, which the compiler vectorises
 * across j.
 *
 * Inputs x1, x2 and grid are >= 0 (sim.PerUnitSeries and StrategyGrid
 * check this). The output arrays must be zero on entry.
 */
#include <stddef.h>

/* Columns per block: the block's two accumulator rows (4 KiB) stay in L1
 * while t sweeps the series. */
#define JBLOCK 256

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
        for (ptrdiff_t j0 = 0; j0 < k; j0 += JBLOCK) {
            const ptrdiff_t m = k - j0 < JBLOCK ? k - j0 : JBLOCK;
            const double *restrict gj = grid + j0;
            double *restrict c1 = e_c1 + i * k + j0;
            double *restrict c2 = e_c2 + i * k + j0;
            for (ptrdiff_t t = 0; t < n; t++) {
                const double g1 = x1[t] * grid[i];
                const double u2 = x2[t], d = p_d[t];
                for (ptrdiff_t jj = 0; jj < m; jj++) {
                    const double total = g1 + u2 * gj[jj];
                    double surplus = total - d;
                    surplus = surplus < 0.0 ? 0.0 : surplus;
                    /* share = total > 0 ? g1/total : 0, written so the
                     * division runs in every lane and the loop vectorises
                     * without masking: total + 0.0 == total, and where
                     * total is 0 so is g1 (both outputs are >= 0), giving
                     * 0/1 == 0. */
                    const double share = g1 / (total + (total > 0.0 ? 0.0 : 1.0));
                    const double pc1 = surplus * share;
                    c1[jj] += pc1;
                    c2[jj] += surplus - pc1;
                }
            }
        }
    }
}
