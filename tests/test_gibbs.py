"""Chain mechanics: initialization, sweeps, determinism, ensemble statistics.

``oracle_chain`` is a literal per-sweep scalar stepper over the raw table
records, drawing its uniforms with numpy; the compiled sampler must
reproduce it bit for bit.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import stdtrit

from windgame import (BinSpec, ChainConfig, DistributionError, ErgodicityError,
                      Realisation, SamplerTables, chain_rng, convergence_stats,
                      gibbs, run_chain, run_chains, run_ensemble, wci_95)
from windgame.dist import JointTable
from windgame.gibbs import _T975

from conftest import joint_from_arrays, tables_for


def oracle_chain(config: ChainConfig, tables: SamplerTables,
                 chain_index: int) -> list[tuple[float, float, float]]:
    """Chain ``chain_index`` one sweep at a time, post-burn-in (w1, w2, p_d).

    Two uniforms pick the starting record and its demand; each sweep takes
    three: w1 from the members of w2's column, w2 from the members of the
    new w1's row, demand from the members of the mean wind's row.
    """
    joint, demand = tables.joint, tables.demand

    def bin_of(spec: BinSpec, value: float) -> int:
        return min(int((value - spec.origin) / spec.width), spec.n_bins - 1)

    def draw_demand(w1: float, w2: float, u: float) -> float:
        row = int(demand.merged_map[bin_of(demand.mean_spec, (w1 + w2) * 0.5)])
        members = np.flatnonzero(demand.row_of == row)
        return float(demand.demand_values[members[int(u * len(members))]])

    rng = chain_rng(config.seed, chain_index)
    u = rng.random(2)
    record = int(u[0] * len(joint.w1_values))
    w1, w2 = float(joint.w1_values[record]), float(joint.w2_values[record])
    states = [(w1, w2, draw_demand(w1, w2, u[1]))]
    col = int(joint.merged_map_2[bin_of(joint.spec2, w2)])
    for _ in range(config.n - 1):
        u = rng.random(3)
        members = np.flatnonzero(joint.col_of == col)
        record = members[int(u[0] * len(members))]
        w1 = float(joint.w1_values[record])
        members = np.flatnonzero(joint.row_of == joint.row_of[record])
        record = members[int(u[1] * len(members))]
        w2 = float(joint.w2_values[record])
        col = int(joint.col_of[record])
        states.append((w1, w2, draw_demand(w1, w2, u[2])))
    return states[config.burn_in:]


def states_of(real: Realisation) -> list[tuple[float, float, float]]:
    return list(zip(real.w1.tolist(), real.w2.tolist(), real.p_d.tolist()))


def single_cell_tables(values=((12.3, 4.5, 100.0),)):
    w1, w2, pd = (np.array(col) for col in zip(*values))
    series = joint_from_arrays(w1, w2, pd)
    return tables_for(series, wind_width=30.0, min_count=1)


def symmetric_tables(repeats=1):
    # independent two-value symmetric joint: all four cells equally likely
    w1 = np.tile([5.0, 5.0, 15.0, 15.0], repeats)
    w2 = np.tile([5.0, 15.0, 5.0, 15.0], repeats)
    pd = np.full(4 * repeats, 100.0)
    return tables_for(joint_from_arrays(w1, w2, pd), wind_width=10.0, min_count=1)


@pytest.fixture(params=["compiled", "numpy"])
def sampler_path(request):
    """An ensemble's chains as lists of states, from the compiled sampler or
    from ``oracle_chain`` (its uniforms drawn with numpy): the edge cases'
    invariants must hold on both, and the compiled chains equal the oracle's."""
    if request.param == "compiled":
        return lambda config, tables: [states_of(real) for real in run_ensemble(config, tables)]
    return lambda config, tables: [oracle_chain(config, tables, k)
                                   for k in range(config.realisations)]


def first_states(tables, seeds, n=1):
    """Initial (burn-in 0) states of chain 0 for each seed."""
    return [states_of(run_chain(ChainConfig(n=n, realisations=1, burn_in_fraction=0.0,
                                            seed=seed), tables, 0))
            for seed in seeds]


class TestInitChain:
    def test_single_record_always_returned(self):
        tables = single_cell_tables()
        assert first_states(tables, range(5)) == [[(12.3, 4.5, 100.0)]] * 5

    def test_two_equal_records_split_evenly(self):
        tables = single_cell_tables(((10.0, 10.0, 100.0), (11.0, 11.0, 100.0)))
        config = ChainConfig(n=1, realisations=10_000, burn_in_fraction=0.0, seed=123)
        picks = sum(real.w1[0] == 10.0 for real in run_ensemble(config, tables))
        # binomial n=10000 p=0.5: 4 sigma = 200
        assert abs(picks - 5000) <= 200

    def test_fixed_seed_reproducible(self, synthetic_tables):
        config = ChainConfig(n=1, realisations=1, burn_in_fraction=0.0, seed=77)
        a = run_chain(config, synthetic_tables, 4)
        assert states_of(a) == oracle_chain(config, synthetic_tables, 4)
        assert states_of(a) == states_of(run_chain(config, synthetic_tables, 4))


class TestGibbsStep:
    def test_single_cell_is_absorbing(self):
        tables = single_cell_tables()
        config = ChainConfig(n=11, realisations=3, burn_in_fraction=0.0, seed=5)
        for real in run_ensemble(config, tables):
            assert states_of(real) == [(12.3, 4.5, 100.0)] * 11

    def test_symmetric_table_long_run_marginal(self):
        tables = symmetric_tables()
        config = ChainConfig(n=50_000, realisations=1, burn_in_fraction=0.0, seed=40)
        real = run_chain(config, tables, 0)
        count = int((real.w1 == 5.0).sum())
        # exact marginal is 0.5; binomial 3 sigma over 50,000 steps
        sigma = (50_000 * 0.25) ** 0.5
        assert abs(count - 25_000) <= 3 * sigma

    def test_fixed_seed_and_state_same_successor(self, synthetic_tables):
        # chains 0 and 1 of one ensemble, each run alone and beside the other
        config = ChainConfig(n=2, realisations=2, burn_in_fraction=0.0, seed=9)
        ensemble = run_ensemble(config, synthetic_tables)
        for k in (0, 1):
            assert states_of(ensemble[k]) == states_of(run_chain(config, synthetic_tables, k))
            assert states_of(ensemble[k]) == oracle_chain(config, synthetic_tables, k)


class TestRunChain:
    def test_burn_in_arithmetic(self, synthetic_tables):
        real = run_chain(ChainConfig(n=10, realisations=1, seed=1), synthetic_tables, 0)
        assert len(real) == 8

    def test_fifty_thousand_keeps_forty_thousand(self, synthetic_tables):
        real = run_chain(ChainConfig(n=50_000, realisations=1, seed=1), synthetic_tables, 0)
        assert len(real) == 40_000

    def test_deterministic_per_seed_and_index(self, synthetic_tables):
        config = ChainConfig(n=500, realisations=1, seed=42)
        a = run_chain(config, synthetic_tables, 3)
        b = run_chain(config, synthetic_tables, 3)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)
        assert np.array_equal(a.p_d, b.p_d)

    def test_matches_public_step_sequence(self, synthetic_tables):
        config = ChainConfig(n=60, realisations=1, burn_in_fraction=0.0, seed=8)
        assert states_of(run_chain(config, synthetic_tables, 2)) == \
            oracle_chain(config, synthetic_tables, 2)

    @pytest.mark.parametrize("seed", [0, 8, 414243])
    @pytest.mark.parametrize("realisations", [1, 4])
    @pytest.mark.parametrize("burn_in_fraction", [0.0, 0.2])
    def test_lockstep_matches_scalar_oracle(self, synthetic_tables, seed, realisations,
                                            burn_in_fraction):
        # every chain of an ensemble equals the oracle and the chain run alone
        config = ChainConfig(n=700, realisations=realisations,
                             burn_in_fraction=burn_in_fraction, seed=seed)
        ensemble = run_ensemble(config, synthetic_tables)
        assert [r.chain_index for r in ensemble] == list(range(realisations))
        for k, real in enumerate(ensemble):
            assert states_of(real) == oracle_chain(config, synthetic_tables, k)
        assert states_of(run_chain(config, synthetic_tables, realisations - 1)) == \
            states_of(ensemble[-1])

    def test_support_closure(self, synthetic_series, synthetic_tables):
        real = run_chain(ChainConfig(n=2000, realisations=1, seed=6), synthetic_tables, 0)
        assert set(real.w1.tolist()) <= set(synthetic_series.w1.tolist())
        assert set(real.w2.tolist()) <= set(synthetic_series.w2.tolist())
        assert set(real.p_d.tolist()) <= set(synthetic_series.p_d.tolist())

    @pytest.mark.parametrize("width", [0.1, 0.7, 1.1])
    def test_mean_wind_bin_matches_binspec_on_rounded_winds(self, synthetic_series, width):
        # winds rounded to 0.1 m/s sit on bin edges, where multiplying by
        # 1/width and dividing by width disagree
        series = joint_from_arrays(np.round(synthetic_series.w1, 1),
                                   np.round(synthetic_series.w2, 1), synthetic_series.p_d)
        tables = tables_for(series, wind_width=width)
        demand = tables.demand
        config = ChainConfig(n=3000, realisations=2, seed=5)
        ensemble = run_ensemble(config, tables)
        for k, real in enumerate(ensemble):
            assert states_of(real) == oracle_chain(config, tables, k)

        real = ensemble[0]
        rows = demand.merged_map[demand.mean_spec.indices((real.w1 + real.w2) / 2.0)]
        row_values = [set(demand.demand_values[demand.row_of == row].tolist())
                      for row in range(demand.n_rows)]
        assert all(p in row_values[r] for p, r in zip(real.p_d.tolist(), rows))

    def test_disconnected_table_fails_with_diagnostic(self):
        counts = np.array([[4, 0], [0, 4]], dtype=np.int64)
        spec = BinSpec(width=10.0, origin=0.0, max_edge=20.0)
        disconnected = JointTable(
            spec1=spec, spec2=spec, counts=counts,
            merged_map_1=np.array([0, 1]), merged_map_2=np.array([0, 1]),
            w1_values=np.array([5.0] * 4 + [15.0] * 4),
            w2_values=np.array([5.0] * 4 + [15.0] * 4),
            row_of=np.array([0] * 4 + [1] * 4), col_of=np.array([0] * 4 + [1] * 4))
        good = single_cell_tables()
        with pytest.raises(ErgodicityError, match="disconnected"):
            SamplerTables(joint=disconnected, demand=good.demand)

    def test_demand_row_without_records_rejected(self):
        good = single_cell_tables()
        demand = replace(good.demand, merged_map=np.array([0, 1]))
        with pytest.raises(DistributionError, match="mean-wind row 1 has no demand members"):
            SamplerTables(joint=good.joint, demand=demand)

    def test_bad_config_rejected(self):
        with pytest.raises(DistributionError):
            ChainConfig(n=0, realisations=1, seed=0)
        with pytest.raises(DistributionError):
            ChainConfig(n=10, realisations=1, burn_in_fraction=1.0, seed=0)
        # the last n whose 3 x n float64 samples numpy can shape, and the first past it
        longest = np.iinfo(np.intp).max // 24
        assert ChainConfig(n=longest, realisations=1).n == longest
        with pytest.raises(DistributionError, match="too long for numpy"):
            ChainConfig(n=longest + 1, realisations=1)


class TestSamplerEdgeCases:
    """Chain length, burn-in and table shapes at their limits, on the
    compiled sampler and on its oracle."""

    @pytest.mark.parametrize("n, burn_in_fraction",
                             [(1, 0.0), (2, 0.0), (2, 0.5), (6, 0.0), (6, 0.9)])
    def test_short_chains_match_oracle(self, sampler_path, synthetic_tables, n,
                                       burn_in_fraction):
        config = ChainConfig(n=n, realisations=3, burn_in_fraction=burn_in_fraction, seed=21)
        for k, states in enumerate(sampler_path(config, synthetic_tables)):
            assert len(states) == config.retained
            assert states == oracle_chain(config, synthetic_tables, k)

    def test_single_record_table(self, sampler_path):
        tables = single_cell_tables()
        config = ChainConfig(n=9, realisations=2, burn_in_fraction=0.0, seed=3)
        for k, states in enumerate(sampler_path(config, tables)):
            assert states == oracle_chain(config, tables, k) == [(12.3, 4.5, 100.0)] * 9

    def test_mean_wind_at_max_edge_falls_in_last_bin(self, sampler_path):
        # means 4, 5, 5 and 6 m/s at width 1 span [4, 6]: a mean of 6 sits on
        # the closing edge, one bin past the last, and must be clamped into it
        tables = tables_for(joint_from_arrays([4.0, 4.0, 6.0, 6.0], [4.0, 6.0, 4.0, 6.0],
                                              [100.0, 200.0, 300.0, 400.0]), min_count=1)
        spec = tables.demand.mean_spec
        assert (spec.max_edge, spec.n_bins) == (6.0, 2)
        config = ChainConfig(n=400, realisations=2, burn_in_fraction=0.0, seed=11)
        for k, states in enumerate(sampler_path(config, tables)):
            assert states == oracle_chain(config, tables, k)
            at_edge = [p_d for w1, w2, p_d in states if (w1 + w2) / 2 == 6.0]
            assert at_edge and set(at_edge) <= {200.0, 300.0, 400.0}


class TestKernelArguments:
    """The tables are built in the kernel's types and checked once, on
    construction, so no chain checks them and a bad table never samples."""

    def test_any_index_and_value_layout_samples_same_bits(self, synthetic_tables):
        joint, demand = synthetic_tables.joint, synthetic_tables.demand

        def strided(a):
            return np.repeat(a, 2)[::2]

        odd = SamplerTables(
            joint=replace(joint, row_of=joint.row_of.astype(np.int32),
                          col_of=joint.col_of.astype(np.int32),
                          w1_values=strided(joint.w1_values), w2_values=strided(joint.w2_values)),
            demand=replace(demand, merged_map=demand.merged_map.astype(np.int32),
                           row_of=demand.row_of.astype(np.int32),
                           demand_values=strided(demand.demand_values)))
        config = ChainConfig(n=300, realisations=3, burn_in_fraction=0.0, seed=4)
        for k in range(3):
            assert states_of(run_chain(config, odd, k)) == \
                states_of(run_chain(config, synthetic_tables, k)) == \
                oracle_chain(config, synthetic_tables, k)

    @pytest.mark.parametrize("group, member, change, error", [
        (0, 0, lambda a: a.astype(np.int32), TypeError),         # column starts
        (1, 1, lambda a: a.astype(np.int64), TypeError),         # row lengths
        (1, 2, lambda a: np.repeat(a, 2)[::2], TypeError),       # row w2, strided
    ])
    def test_bad_table_array_refused(self, synthetic_tables, group, member, change, error):
        # the kernel's addresses are taken once, on construction, and only
        # from arrays in its types
        arrays = list(synthetic_tables._kernel_arrays)
        at = [a is synthetic_tables.flat[group][member] for a in arrays].index(True)
        arrays[at] = change(arrays[at])
        with pytest.raises(error, match="C-contiguous"):
            gibbs._kernel_arguments(arrays, synthetic_tables.demand.mean_spec)

    @pytest.mark.parametrize("name", ["w1_values", "w2_values", "row_of", "col_of"])
    def test_records_of_unequal_length_refused(self, synthetic_tables, name):
        # the kernel reads a chain's start record from w1, w2 and col_of
        joint = synthetic_tables.joint
        with pytest.raises(DistributionError, match="joint records need"):
            SamplerTables(joint=replace(joint, **{name: getattr(joint, name)[:-1]}),
                          demand=synthetic_tables.demand)

    def test_mean_map_length_checked(self, synthetic_tables):
        demand = synthetic_tables.demand
        with pytest.raises(DistributionError, match="mean-wind map"):
            SamplerTables(joint=synthetic_tables.joint,
                          demand=replace(demand, merged_map=demand.merged_map[:-1]))

    def test_negative_mean_map_entry_refused(self, synthetic_tables):
        demand = synthetic_tables.demand
        merged_map = demand.merged_map.copy()
        merged_map[0] = -1
        with pytest.raises(DistributionError, match="row >= 0"):
            SamplerTables(joint=synthetic_tables.joint,
                          demand=replace(demand, merged_map=merged_map))

    def test_mean_bins_above_lowest_winds_refused(self, synthetic_tables):
        # two bins up, the lowest winds' mean truncates to bin -1
        demand = synthetic_tables.demand
        spec = demand.mean_spec
        shifted = BinSpec(width=spec.width, origin=spec.origin + 2 * spec.width,
                          max_edge=spec.max_edge + 2 * spec.width)
        assert shifted.n_bins == spec.n_bins
        with pytest.raises(DistributionError, match="below the mean-wind bins"):
            SamplerTables(joint=synthetic_tables.joint,
                          demand=replace(demand, mean_spec=shifted))

    @pytest.mark.parametrize("table, name", [("joint", "w1_values"), ("joint", "w2_values"),
                                             ("demand", "demand_values")])
    def test_non_finite_member_value_refused(self, synthetic_tables, table, name):
        parts = {"joint": synthetic_tables.joint, "demand": synthetic_tables.demand}
        values = getattr(parts[table], name).copy()
        values[3] = np.nan
        parts[table] = replace(parts[table], **{name: values})
        with pytest.raises(DistributionError, match="finite"):
            SamplerTables(**parts)


def bits(real: Realisation) -> bytes:
    return real.w1.tobytes() + real.w2.tobytes() + real.p_d.tobytes()


class TestRunChains:
    """The kernel samples two chains at a time and draws their uniforms
    itself; every chain must keep the bits it has when run alone, and those
    of the oracle, which draws the uniforms with numpy."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**63), a=st.integers(0, 2**20), b=st.integers(0, 2**20),
           n=st.sampled_from([1, 2, 3, 17, 400]),
           burn_in_fraction=st.sampled_from([0.0, 0.2, 0.5]))
    def test_pair_matches_each_chain_alone_and_the_oracle(self, synthetic_tables, seed, a,
                                                          b, n, burn_in_fraction):
        config = ChainConfig(n=n, realisations=1, burn_in_fraction=burn_in_fraction, seed=seed)
        pair = run_chains(config, synthetic_tables, (a, b))
        alone = [run_chain(config, synthetic_tables, k) for k in (a, b)]
        assert [r.chain_index for r in pair] == [a, b]
        assert [bits(r) for r in pair] == [bits(r) for r in alone]
        assert [states_of(r) for r in pair] == [oracle_chain(config, synthetic_tables, k)
                                                for k in (a, b)]
        # each realisation keeps its own (3, retained) array
        assert all(r.w1.base.shape == (3, config.retained) for r in pair)
        assert pair[0].w1.base is not pair[1].w1.base


class TestRunEnsemble:
    def test_single_realisation_equals_chain_zero(self, synthetic_tables):
        config = ChainConfig(n=200, realisations=1, seed=17)
        ensemble = run_ensemble(config, synthetic_tables)
        direct = run_chain(config, synthetic_tables, 0)
        assert np.array_equal(ensemble[0].w1, direct.w1)
        assert np.array_equal(ensemble[0].p_d, direct.p_d)

    def test_chains_pairwise_distinct(self, synthetic_tables):
        config = ChainConfig(n=300, realisations=4, seed=5)
        ensemble = run_ensemble(config, synthetic_tables)
        for a in range(4):
            for b in range(a + 1, 4):
                assert not np.array_equal(ensemble[a].w1, ensemble[b].w1)


def fake_realisation(mean, index):
    arr = np.full(10, mean)
    return Realisation(w1=arr, w2=arr, p_d=arr, chain_index=index)


def test_realisations_compare_by_identity():
    a, b = fake_realisation(1.0, 0), fake_realisation(1.0, 0)
    assert a == a and a != b
    assert len(weakref.WeakSet([a, b])) == 2


class TestConvergenceStats:
    def test_wci_formula_published_rows(self):
        # ensemble spread sigma and size N reproduce the tabulated widths
        assert wci_95(0.0874, 100) == pytest.approx(0.0347, abs=1e-4)
        assert wci_95(0.2709, 500) == pytest.approx(0.0476, abs=1e-4)
        assert wci_95(0.2793, 5000) == pytest.approx(0.0155, abs=1e-4)

    def test_wci_quantile_is_scipys_bit_for_bit(self):
        # N <= 256 reads _T975, N > 256 calls scipy. The width can round a
        # 1-ulp slip of an entry away, so the entries are compared as well.
        assert _T975 == tuple(float(stdtrit(df, 0.975)) for df in range(1, 256))
        for n in range(2, 301):
            expected = 2.0 * float(stdtrit(n - 1, 0.975)) * 0.2709 / math.sqrt(n)
            assert wci_95(0.2709, n) == expected, n

    def test_degenerate_ensemble_zeroes(self, synthetic_series):
        mu = synthetic_series.means()
        # per-realisation means all equal to historic: sigma, wci and me vanish
        reals = [fake_realisation(mu[0], i) for i in range(5)]
        series = joint_from_arrays(np.full(4, mu[0]), np.full(4, mu[0]), np.full(4, mu[0]))
        report = convergence_stats(reals, series)
        assert report.w1.sigma == 0.0 and report.w1.wci == 0.0 and report.w1.max_err_pct == 0.0

    def test_max_err_formula(self):
        series = joint_from_arrays(np.full(4, 10.0), np.full(4, 10.0), np.full(4, 10.0))
        reals = [fake_realisation(9.0, 0), fake_realisation(10.5, 1)]
        report = convergence_stats(reals, series)
        assert report.w1.max_err_pct == pytest.approx(10.0)  # |9-10|/10 * 100

    def test_requires_two_realisations(self, synthetic_series):
        with pytest.raises(DistributionError, match="2 realisations"):
            convergence_stats([fake_realisation(1.0, 0)], synthetic_series)

    def test_format_table_lists_all_variables(self, synthetic_tables, synthetic_series):
        ensemble = run_ensemble(ChainConfig(n=500, realisations=3, seed=2), synthetic_tables)
        text = convergence_stats(ensemble, synthetic_series).format_table()
        for token in ("w1", "w2", "p_d", "wci95", "historic"):
            assert token in text
