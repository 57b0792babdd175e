"""Acceptance gate: paper-anchored trends plus property/oracle checks.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers before asserting, so a red run still reports every measurement.
"""

import itertools

import numpy as np

from lisim.channel import (
    ArrayGeometry,
    LinkBudget,
    path_core,
    sample_paths,
    sort_paths_descending,
)
from lisim.harness import (
    ExperimentConfig,
    _run_trials,
    brute_force_phase_oracle,
    emit_csv,
    run_sweep,
)
from lisim.manifold import DescentConfig
from lisim.metrics import spectral_efficiency
from lisim.passive_bf import (
    _spgm_data,
    coupling_matrix,
    offdiag_ratio,
    optimize_tsvd,
    random_phases,
    rate_objective,
    stream_weights,
    tsvd_objective,
)
from lisim.transceiver import digital_combiner, truncated_svd
from lisim.units import dbi_to_amplitude, dbm_to_watt
from transceiver_algebra import water_filling
from wirtinger_fd import max_fd_error, spgm_evaluate

TX_GAIN = dbi_to_amplitude(24.5)

DESK_GEOMETRY = ArrayGeometry(n_tx=16, n_rx=16, lis_y=8, lis_z=8)
DESK_BUDGET = LinkBudget(tx_power=dbm_to_watt(40.0))

PAPER_GEOMETRY = ArrayGeometry(n_tx=64, n_rx=64, lis_y=16, lis_z=16)
PAPER_BUDGET = LinkBudget()  # 30 dBm, -90 dBm noise

DESK_CONFIG = ExperimentConfig(
    geometry=DESK_GEOMETRY, budget=DESK_BUDGET,
    n_streams=2, n_rf_tx=3, n_rf_rx=3, p_paths=4, l_paths=4)


# Resamples of criterion 5's paired bootstrap.
BOOTSTRAP = 2000


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _digital(cfg):
    """One run's per-trial digital values: {method: (rates, condition
    numbers, good)}, each array (sweep values, trials). Trial t sees one
    channel under every method and sweep value, so the arrays pair up."""
    run = _run_trials(cfg)
    return {method: (run.rate[:, k, 0], run.cond[:, k, 0], ~run.failed[:, k, 0])
            for k, method in enumerate(cfg.methods)}


def _mean(values, good):
    """The mean of the good entries, as run_sweep's rows take it."""
    return float(values[good].mean())


def _paired_se(a, b, pair, scale=1.0):
    """The standard error of mean(a) - scale * mean(b) over the trials
    `pair`, where both are good, from their per-trial differences."""
    diff = a[pair] - scale * b[pair]
    return float(np.std(diff, ddof=1) / np.sqrt(len(diff)))


def test_criterion_1_gradient_correctness():
    # each gradient as the engine takes it: the second output of the
    # evaluator at a (T, M) stack, each row against its own finite differences
    worst = 0.0
    geometry = ArrayGeometry(n_tx=8, n_rx=8, lis_y=4, lis_z=4)
    path_sets = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        paths = sort_paths_descending(sample_paths(rng, geometry, DESK_BUDGET, 3, 3))
        # composite-path rate surrogate
        evaluate, data = tsvd_objective(
            path_core([paths], geometry),
            stream_weights(paths, DESK_BUDGET, 2, TX_GAIN)[None])
        v = random_phases(rng, geometry.m)
        worst = max(worst, max_fd_error(evaluate, data, v[None]))
        path_sets.append(paths)
    # the exact rate, as its descent evaluates it, and the sum-path gain,
    # whose gradient on the core gives the spgm power update its phases:
    # stacked cores of 4 path sets. A 30x receive gain puts the per-stream
    # SNRs where the rate's log is curved; at this geometry's raw SNRs the
    # differences drown in rounding.
    rng = np.random.default_rng(99)
    for group in range(0, len(path_sets), 4):
        stack = path_core(path_sets[group:group + 4], geometry, TX_GAIN, 30.0)
        v = np.stack([random_phases(rng, geometry.m) for _ in range(4)])
        worst = max(worst, max_fd_error(*rate_objective(stack, [DESK_BUDGET] * 4, 2), v))
        w = np.stack([random_phases(rng, geometry.m) for _ in range(4)])
        worst = max(worst, max_fd_error(spgm_evaluate, _spgm_data(stack), w))
    ok = worst < 1e-5
    _report(1, ok, f"max relative gradient error {worst:.3e} (tolerance 1e-5)")
    assert ok


def test_criterion_2_manifold_engine_convergence():
    cfg = DescentConfig(epsilon=1e-2)
    worst_iters = 0
    worst_modulus = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        paths = sort_paths_descending(
            sample_paths(rng, PAPER_GEOMETRY, PAPER_BUDGET, 7, 7))
        v, trace = optimize_tsvd(path_core([paths], PAPER_GEOMETRY),
                                 stream_weights(paths, PAPER_BUDGET, 4, TX_GAIN), cfg, rng)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])), \
            "objective trace must be non-increasing"
        worst_modulus = max(worst_modulus, np.max(np.abs(np.abs(v) - 1.0)))
        worst_iters = max(worst_iters, len(trace) - 1)
    ok = worst_iters <= 15 and worst_modulus < 1e-12
    _report(2, ok, f"max iterations to flatten {worst_iters} (limit 15), "
                   f"max unit-modulus violation {worst_modulus:.1e}")
    assert ok


def test_criterion_3_tiny_scale_oracle():
    geometry = ArrayGeometry(n_tx=4, n_rx=4, lis_y=2, lis_z=2)
    cfg = DescentConfig(epsilon=1e-8)
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        paths = sort_paths_descending(sample_paths(rng, geometry, DESK_BUDGET, 2, 2))
        core = path_core([paths], geometry)
        weights = stream_weights(paths, DESK_BUDGET, 2, TX_GAIN)
        _, best = brute_force_phase_oracle(core, weights, 8)
        v, _ = optimize_tsvd(core, weights, cfg, rng)
        evaluate, data = tsvd_objective(core, weights[None])
        ratios.append(-evaluate(data, v[None])[0][0] / best)
    ok = min(ratios) >= 0.95
    _report(3, ok, f"min optimizer/oracle ratio {min(ratios):.4f} over 20 seeds "
                   f"(threshold 0.95)")
    assert ok


def criterion_4(seed):
    """`tsvd` leads `spgm` by at least 5% in mean SE, and `spgm` leads `random`."""
    from dataclasses import replace
    cfg = replace(DESK_CONFIG, trials=100, seed=seed, sweep_values=(40.0,))
    found = _digital(cfg)
    (t_rate, _, t_good), (s_rate, _, s_good), (r_rate, _, r_good) = (
        found[m] for m in ("tsvd", "spgm", "random"))
    tsvd, spgm, rand = _mean(t_rate, t_good), _mean(s_rate, s_good), _mean(r_rate, r_good)
    margin = tsvd / spgm - 1.0
    # delta method: the ratio's error is that of mean(tsvd - ratio * spgm) / spgm
    pair = t_good & s_good
    se = _paired_se(t_rate, s_rate, pair, tsvd / spgm) / spgm
    below = np.count_nonzero(t_rate[pair] < s_rate[pair])
    ok = tsvd > spgm > rand and margin >= 0.05
    return ok, (f"mean SE tsvd {tsvd:.3f} > spgm {spgm:.3f} > random {rand:.3f}; "
                f"tsvd/spgm margin {100 * margin:.2f}% ± {100 * se:.2f}% paired s.e. "
                f"(need >= 5%); tsvd below spgm on {below} of {pair.sum()} draws")


def test_criterion_4_method_ordering():
    ok, detail = criterion_4(SEEDS[4])
    _report(4, ok, detail)
    assert ok


def _interval(values):
    """The central 95% of `values`, as text: to two decimals, or to units above 100."""
    low, high = np.quantile(values, [0.025, 0.975])
    digits = 0 if max(abs(low), abs(high)) >= 100 else 2
    return f"[{low:.{digits}f}, {high:.{digits}f}]"


def criterion_5(seed):
    """The median condition number of `spgm` grows with M, and that of
    `tsvd` stays below it and grows by at most 1.5x over its M = 64 value."""
    from dataclasses import replace
    grid = (64.0, 128.0, 256.0)
    cfg = replace(DESK_CONFIG, trials=50, seed=seed,
                  sweep_variable="lis_elements", sweep_values=grid,
                  methods=("tsvd", "spgm"))
    # Per-trial condition numbers of the run whose rows run_sweep averages,
    # so the medians below belong to its rows.
    found = _digital(cfg)
    conds = {(m, method): cond[si][good[si]]
             for method, (_, cond, good) in found.items()
             for si, m in enumerate(grid)}
    spgm, tsvd = ([float(np.median(conds[(m, method)])) for m in grid]
                  for method in ("spgm", "tsvd"))
    means = {method: [f"{np.mean(conds[(m, method)]):.0f}" for m in grid]
             for method in ("tsvd", "spgm")}
    spgm_increasing = spgm[0] < spgm[1] < spgm[2]
    # One-sided: the paper promises a small condition number, not a constant
    # one, and the tsvd median falls with M because a_2 grows as M^2.
    growth = max(tsvd) / tsvd[0]
    below = all(t < s for t, s in zip(tsvd, spgm))
    ok = spgm_increasing and growth <= 1.5 and below

    # Paired bootstrap: a resample draws trial indices with replacement and
    # takes them at every M and for both methods, as the run pairs them.
    resamples = np.random.default_rng(0).integers(0, cfg.trials, (BOOTSTRAP, cfg.trials))

    def resampled_medians(method):
        """(resamples, M values) medians of the good condition numbers."""
        _, cond, good = found[method]
        return np.stack([np.nanmedian(np.where(good[si][resamples], cond[si][resamples],
                                               np.nan), axis=1)
                         for si in range(len(grid))], axis=1)

    t_boot = resampled_medians("tsvd")
    s_steps = np.diff(resampled_medians("spgm"), axis=1).T
    return ok, (f"median cond tsvd {[f'{x:.0f}' for x in tsvd]} vs spgm "
                f"{[f'{x:.0f}' for x in spgm]} (means tsvd "
                f"{means['tsvd']}, spgm {means['spgm']}); spgm "
                f"increasing: {spgm_increasing}, by "
                f"{' and '.join(f'{b - a:.0f}' for a, b in zip(spgm, spgm[1:]))} "
                f"(95% paired bootstrap {' and '.join(map(_interval, s_steps))}); "
                f"tsvd max/M=64 {growth:.2f} "
                f"({_interval(t_boot.max(axis=1) / t_boot[:, 0])}; <= 1.5 required), "
                f"tsvd below spgm everywhere: {below}")


def test_criterion_5_condition_number_trend():
    ok, detail = criterion_5(SEEDS[5])
    _report(5, ok, detail)
    assert ok, (
        "the median is the statistic because the mean is dominated by a few "
        "trials: the tsvd design concedes stream 2 (|v^H p^22|^2 < 0.01) "
        "in about 56%/48%/34% of trials at M = 64/128/256, since its weight "
        "a_2 is low, and those trials have a huge condition number; "
        "the sum-path-gain baseline must grow with M and stay above tsvd")


def criterion_6(seed):
    """The hybrid design keeps at least 95% of the digital mean SE."""
    cfg = ExperimentConfig(trials=20, seed=seed, precoding="both",
                           methods=("tsvd",), sweep_values=(30.0,))
    rows = {r.precoding: r for r in run_sweep(cfg).rows}
    ratio = rows["hybrid"].mean_se / rows["digital"].mean_se
    ok = ratio >= 0.95
    return ok, f"hybrid/digital mean SE ratio {ratio:.4f} over 20 trials (threshold 0.95)"


def test_criterion_6_hybrid_close_to_digital():
    ok, detail = criterion_6(SEEDS[6])
    _report(6, ok, detail)
    assert ok


def test_criterion_7_diagonal_dominance():
    means = {}
    budget = PAPER_BUDGET
    for lis_z in (1, 4, 16):
        geometry = ArrayGeometry(n_tx=64, n_rx=64, lis_y=16, lis_z=lis_z)
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng([55, seed])
            paths = sort_paths_descending(sample_paths(rng, geometry, budget, 7, 7))
            core = path_core([paths], geometry)
            v, _ = optimize_tsvd(core, stream_weights(paths, budget, 4, TX_GAIN),
                                 DescentConfig(), rng)
            ratios.append(offdiag_ratio(coupling_matrix(v[None], core), 4)[0])
        means[16 * lis_z] = float(np.mean(ratios))
    decreasing = means[16] > means[64] > means[256]
    ok = means[256] < 0.3 and decreasing
    _report(7, ok, f"mean off-diagonal ratio {means[16]:.3f} (M=16) > "
                   f"{means[64]:.3f} (M=64) > {means[256]:.3f} (M=256); "
                   f"M=256 value < 0.3 required")
    assert ok


def test_criterion_8_transceiver_algebra():
    worst_level = worst_eq4 = 0.0
    chain_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        h = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))) / np.sqrt(2)
        rho = float(rng.uniform(0.5, 10.0))
        s2 = float(rng.uniform(0.05, 1.0))
        svd = truncated_svd(h, 3)
        powers, water_level = water_filling(svd.sigma1, rho, s2)
        active = powers > 0
        level = powers[active] + s2 / svd.sigma1[active] ** 2
        worst_level = max(worst_level, np.max(np.abs(level - water_level) / water_level))
        f = svd.v1 * np.sqrt(powers)
        w = digital_combiner(svd)
        se = spectral_efficiency(h, f, w, s2)
        # closed form sum_i log2(1 + p_i sigma_i^2 / s2), and the Jensen bound
        # N_s log2(1 + rho ||H||_F^2 / (N_s^2 s2)) above the middle term
        closed = float(np.sum(np.log2(1.0 + powers * svd.sigma1 ** 2 / s2)))
        worst_eq4 = max(worst_eq4, abs(se - closed) / closed)
        mid = 3 * np.log2(1.0 + rho * np.sum(svd.sigma1 ** 2) / (9 * s2))
        bound = 3 * np.log2(1.0 + rho * np.linalg.norm(h) ** 2 / (9 * s2))
        chain_ok &= se <= mid + 1e-9 <= bound + 2e-9
    ok = worst_level < 1e-8 and worst_eq4 < 1e-9 and chain_ok
    _report(8, ok, f"water-level deviation {worst_level:.2e} (< 1e-8), rate vs "
                   f"closed form {worst_eq4:.2e} (< 1e-9), bound chain on 100 "
                   f"instances: {chain_ok}")
    assert ok


def test_criterion_9_ordering_lemma():
    failures = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for n_s in (2, 3):
            weights = np.sort(rng.uniform(0.1, 20.0, n_s))[::-1]
            qualities = np.sort(rng.uniform(0.05, 1.0, n_s))[::-1]
            rate = lambda a, q: float(np.sum(np.log2(1.0 + a * q)))
            paired = rate(weights, qualities)
            best = max(
                rate(weights[list(pa)], qualities[list(pb)])
                for pa in itertools.permutations(range(n_s))
                for pb in itertools.permutations(range(n_s)))
            if paired < best - 1e-12:
                failures += 1
    ok = failures == 0
    _report(9, ok, f"descending/descending pairing optimal on all 50 draws "
                   f"(N_s = 2 and 3); {failures} counterexamples")
    assert ok


def criterion_10(seed):
    """`tsvd` stays above `spgm` at every angle error and does not rise as it grows."""
    from dataclasses import replace
    cfg = replace(DESK_CONFIG, trials=50, seed=seed,
                  sweep_variable="angle_error_deg",
                  sweep_values=(0.0, 1.0, 2.0),
                  methods=("tsvd", "spgm"))
    found = _digital(cfg)
    (t_rate, _, t_good), (s_rate, _, s_good) = found["tsvd"], found["spgm"]
    tsvd = [_mean(t_rate[si], t_good[si]) for si in range(3)]
    spgm = [_mean(s_rate[si], s_good[si]) for si in range(3)]
    non_increasing = tsvd[0] >= tsvd[1] >= tsvd[2]
    above = all(t > s for t, s in zip(tsvd, spgm))
    ok = non_increasing and above
    # each margin with the standard error of its per-trial differences
    lead = [(tsvd[i] - spgm[i], _paired_se(t_rate[i], s_rate[i], t_good[i] & s_good[i]))
            for i in range(3)]
    drop = [(tsvd[i] - tsvd[i + 1],
             _paired_se(t_rate[i], t_rate[i + 1], t_good[i] & t_good[i + 1]))
            for i in range(2)]
    return ok, (
        f"mean SE tsvd {[f'{x:.3f}' for x in tsvd]} vs spgm "
        f"{[f'{x:.3f}' for x in spgm]} over beta = 0/1/2 deg; "
        f"tsvd non-increasing: {non_increasing}, above spgm: {above}; "
        f"paired tsvd - spgm {[f'{m:.3f} ± {e:.3f}' for m, e in lead]}, "
        f"tsvd drop per step {[f'{m:.3f} ± {e:.3f}' for m, e in drop]}")


def test_criterion_10_imperfect_csi_robustness():
    ok, detail = criterion_10(SEEDS[10])
    _report(10, ok, detail)
    assert ok


# The trend criteria that draw their own sweeps, and the seed each test runs
# at; tests/seed_sweep.py runs them at more seeds.
TRENDS = {4: criterion_4, 5: criterion_5, 6: criterion_6, 10: criterion_10}
SEEDS = {4: 20_240_401, 5: 123, 6: 9, 10: 77}


def test_seed_sweep_runs_at_its_smallest_size(capsys):
    # one seed, each criterion's own: the report lines, then the pass counts
    from seed_sweep import main
    passes = main(["1"])
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:len(TRENDS)]] == [
        f"[criterion {number}] seed {SEEDS[number]} {'PASS' if passes[number] else 'FAIL'}"
        for number in TRENDS]
    assert out[len(TRENDS):] == [f"criterion {number}: {passes[number]} of 1 seeds pass"
                                 for number in TRENDS]


def test_criterion_11_determinism(tmp_path):
    from dataclasses import replace
    cfg = replace(DESK_CONFIG, trials=5, seed=4242, precoding="both",
                  sweep_values=(30.0, 40.0))
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        emit_csv(run_sweep(cfg), path)

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return [lines[0]] + [",".join(l.split(",")[:-1]) for l in lines[1:]]

    ok = strip_wall(paths[0]) == strip_wall(paths[1])
    _report(11, ok, "two identical sweep runs produced byte-identical CSV "
                    "(wall_ms excluded)" if ok else "CSV outputs differ")
    assert ok
