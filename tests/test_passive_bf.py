"""Passive-beamforming objectives, gradients, and the optimizers."""

from dataclasses import fields

import numpy as np
import pytest

from lisim.channel import (
    ArrayGeometry,
    LinkBudget,
    PathCore,
    assemble_channels,
    composite_path_vectors,
    effective_channel,
    path_core,
    sample_paths,
    sort_paths_descending,
)
from lisim.manifold import DescentConfig
from lisim.metrics import spectral_efficiency
from lisim.passive_bf import (
    StreamCountError,
    _spgm_ascent,
    _spgm_data,
    _spgm_gains,
    coupling_matrix,
    offdiag_ratio,
    optimize_rate_stack,
    optimize_spgm,
    optimize_spgm_stack,
    optimize_tsvd,
    optimize_tsvd_stack,
    random_phases,
    rate_objective,
    stream_weights,
    strongest_path_start,
    tsvd_objective,
)
from lisim.transceiver import digital_combiner, digital_precoder, truncated_svd
from lisim.units import dbi_to_amplitude, dbm_to_watt
from wirtinger_fd import max_fd_error, spgm_evaluate

GEOMETRY = ArrayGeometry(n_tx=8, n_rx=8, lis_y=4, lis_z=4)
BUDGET = LinkBudget(tx_power=dbm_to_watt(40.0))
TX_GAIN = dbi_to_amplitude(24.5)


def _instance(seed, p=3, l=3):
    rng = np.random.default_rng(seed)
    paths = sort_paths_descending(sample_paths(rng, GEOMETRY, BUDGET, p, l))
    return rng, paths


def _surrogate(paths):
    """The two-stream surrogate's evaluator and data on the one-row core of `paths`."""
    return tsvd_objective(path_core([paths], GEOMETRY),
                          stream_weights(paths, BUDGET, 2, TX_GAIN)[None])


# -- objective and gradient --------------------------------------------------

def test_objective_frozen_single_stream():
    # v takes the phases of p^{11}, whose entries have modulus 1/M, so
    # |v^H p^{11}| = 1 and f = -log2(1 + a) = -2 at a = 3
    _, paths = _instance(0)
    evaluate, data = tsvd_objective(path_core([paths], GEOMETRY), [[3.0]])
    v = np.exp(1j * np.angle(data[0][:, 0]))
    assert evaluate(data, v)[0] == pytest.approx([-2.0], rel=1e-12)


def test_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(20):
        rng, paths = _instance(seed)
        v = random_phases(rng, GEOMETRY.m)
        worst = max(worst, max_fd_error(*_surrogate(paths), v[None]))
    assert worst < 1e-5


def test_objective_global_phase_invariant():
    rng, paths = _instance(1)
    evaluate, data = _surrogate(paths)
    v = random_phases(rng, GEOMETRY.m)[None]
    rot = v * np.exp(1j * 0.83)
    assert evaluate(data, rot)[0] == pytest.approx(evaluate(data, v)[0], rel=1e-12)


def test_stream_weights_formula():
    _, paths = _instance(2)
    w = stream_weights(paths, BUDGET, 2, TX_GAIN, 1.0)
    prod = np.abs(paths.bs_lis_gain[:2] * paths.lis_ue_gain[:2]) ** 2
    want = BUDGET.tx_power * TX_GAIN ** 2 * prod / (2 * BUDGET.noise_power)
    np.testing.assert_allclose(w, want, rtol=1e-12)
    # sorted paths imply non-increasing weights
    assert w[0] >= w[1]


def test_stream_weights_rejects_too_many_streams():
    _, paths = _instance(3, p=2, l=2)
    with pytest.raises(StreamCountError):
        stream_weights(paths, BUDGET, 3)


# -- cascade-channel rate ----------------------------------------------------

def test_rate_objective_equals_svd_transceiver_rate():
    # The L x P core shares its singular values with the dense cascade
    # channel, so the objective is minus the equal-power SVD transceiver rate.
    for seed in range(10):
        rng, paths = _instance(seed, p=4, l=3)
        evaluate, data = rate_objective(path_core([paths], GEOMETRY, TX_GAIN, 1.3), [BUDGET], 2)
        v = random_phases(rng, GEOMETRY.m)
        h = effective_channel(assemble_channels(paths, GEOMETRY, TX_GAIN, 1.3), v)
        svd = truncated_svd(h, 2)
        se = spectral_efficiency(h, digital_precoder(svd.v1, BUDGET.tx_power),
                                 digital_combiner(svd), BUDGET.noise_power)
        assert evaluate(data, v[None])[0] == pytest.approx([-se], rel=1e-10)


def test_rate_gradient_matches_finite_differences():
    # A 30x receive gain lifts the per-stream SNRs to 0.1-400, where the log
    # is curved; at this geometry's raw SNRs (~1e-3) the finite differences
    # would drown in rounding.
    worst = 0.0
    for seed in range(20):
        rng, paths = _instance(seed, p=4, l=3)
        evaluate, data = rate_objective(path_core([paths], GEOMETRY, TX_GAIN, 30.0), [BUDGET], 2)
        v = random_phases(rng, GEOMETRY.m)
        worst = max(worst, max_fd_error(evaluate, data, v[None]))
    assert worst < 1e-5


def test_rate_objective_rejects_too_many_streams():
    _, paths = _instance(3, p=2, l=2)
    with pytest.raises(StreamCountError):
        rate_objective(path_core([paths], GEOMETRY), [BUDGET], 3)


def test_spgm_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(20):
        rng, paths = _instance(seed, p=4, l=3)
        data = _spgm_data(path_core([paths], GEOMETRY, TX_GAIN, 1.3))
        w = random_phases(rng, GEOMETRY.m)
        worst = max(worst, max_fd_error(spgm_evaluate, data, w[None]))
    assert worst < 1e-5


# -- optimizers --------------------------------------------------------------

def test_optimize_tsvd_improves_over_start():
    _, paths = _instance(4)
    evaluate, data = _surrogate(paths)
    v, trace = optimize_tsvd(path_core([paths], GEOMETRY),
                             stream_weights(paths, BUDGET, 2, TX_GAIN),
                             DescentConfig(epsilon=1e-8))
    assert trace[-1] <= trace[0]
    assert evaluate(data, v[None])[0] == pytest.approx([trace[-1]], rel=1e-9)
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def _tsvd_stack(seeds):
    """The path sets of the draws `seeds`, their stacked core and two-stream weights."""
    path_sets = [_instance(seed, p=4, l=3)[1] for seed in seeds]
    weights = np.stack([stream_weights(paths, BUDGET, 2, TX_GAIN) for paths in path_sets])
    return path_sets, path_core(path_sets, GEOMETRY, TX_GAIN), weights


def test_the_surrogate_starts_at_the_strongest_composite_path(monkeypatch):
    # every entry of p^{11} has modulus 1/M, so the phases of p^{11} give
    # the strongest pair its largest gain, 1, on every row of a stack
    from lisim import passive_bf
    real, seen = passive_bf.ccm_descent_stack, []

    def spied(evaluate, data, v0, cfg):
        seen.append(v0)
        return real(evaluate, data, v0, cfg)

    monkeypatch.setattr(passive_bf, "ccm_descent_stack", spied)
    path_sets, core, weights = _tsvd_stack(range(5))
    optimize_tsvd_stack(core, weights, DescentConfig())
    (v0,) = seen
    np.testing.assert_allclose(np.abs(v0), 1.0, rtol=0, atol=1e-12)
    for v, paths in zip(v0, path_sets):
        p11 = composite_path_vectors(paths, GEOMETRY)[0, 0]
        assert abs(v.conj() @ p11) == pytest.approx(1.0, abs=1e-12)


def test_the_surrogate_trace_opens_at_its_start():
    # trace[0] is the surrogate at exp(j arg p^{11}), not at a random draw
    path_sets, core, weights = _tsvd_stack(range(5))
    result = optimize_tsvd_stack(core, weights, DescentConfig())
    start = np.stack([np.exp(1j * np.angle(composite_path_vectors(paths, GEOMETRY)[0, 0]))
                      for paths in path_sets])
    evaluate, data = tsvd_objective(core, weights)
    assert [t[0] for t in result.traces] == pytest.approx(evaluate(data, start)[0], rel=1e-12)


def test_optimize_tsvd_rows_equal_their_runs_alone():
    # the start is elementwise in each row's own bank, so a row keeps its
    # bits in a stack of other draws and on a stride-0 core shared by powers
    _, core, weights = _tsvd_stack(range(7))
    powers = np.arange(10.0, 41.0, 5.0)
    shared, _, paths = _one_bank(3, len(powers))
    shared_weights = np.stack([stream_weights(paths, LinkBudget(tx_power=dbm_to_watt(p)), 4,
                                              TX_GAIN) for p in powers])
    cfg = DescentConfig(epsilon=1e-8)
    for stack, rows in ((core, weights), (shared, shared_weights)):
        result = optimize_tsvd_stack(stack, rows, cfg)
        assert len(set(result.iters.tolist())) > 2
        for i in range(len(rows)):
            alone = optimize_tsvd_stack(stack[i:i + 1], rows[i:i + 1], cfg)
            np.testing.assert_array_equal(alone.points[0], result.points[i])
            assert alone.traces[0] == result.traces[i]
            assert alone.stops[0] == result.stops[i]


def test_optimize_rate_ascends_from_the_surrogate_solution():
    for seed in range(5):
        _, paths = _instance(seed, p=4, l=4)
        core = path_core([paths], GEOMETRY, TX_GAIN)
        v0, _ = optimize_tsvd(core, stream_weights(paths, BUDGET, 2, TX_GAIN),
                              DescentConfig())
        result = optimize_rate_stack(core, [BUDGET], 2, DescentConfig(epsilon=1e-8),
                                     v0[None])
        v, trace = result.row(0)
        evaluate, data = rate_objective(core, [BUDGET], 2)
        assert trace[0] == pytest.approx(evaluate(data, v0[None])[0][0], rel=1e-12)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert evaluate(data, v[None])[0][0] == pytest.approx(trace[-1], rel=1e-9)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def test_optimize_spgm_maximizes_frobenius_norm():
    rng, paths = _instance(5)
    # scored on the dense channel, not on the core the optimizer runs on
    chan = assemble_channels(paths, GEOMETRY)
    v, _ = optimize_spgm(path_core([paths], GEOMETRY), DescentConfig(epsilon=1e-8))
    opt = np.linalg.norm(effective_channel(chan, v)) ** 2
    draws = [np.linalg.norm(effective_channel(
        chan, random_phases(rng, GEOMETRY.m))) ** 2 for _ in range(50)]
    assert opt > max(draws)


def test_optimize_spgm_independent_of_channel_scale():
    # The path loss scales w^H Q w by ~1e-14; an absolute stop gap must not
    # turn that into a one-step descent, so scaling the BS->LIS hop must not
    # move the phases. Both start at the same phases: the start reads only
    # the bank, which the scale does not touch.
    from dataclasses import replace
    for seed in range(10):
        _, paths = _instance(seed)
        core = path_core([paths], GEOMETRY)
        loud = replace(core, right=1e8 * core.right)
        (v, trace), (v_loud, trace_loud) = (optimize_spgm(c, DescentConfig()) for c in (core, loud))
        assert len(trace) > 2 and len(trace_loud) == len(trace)
        np.testing.assert_allclose(v, v_loud, rtol=0, atol=1e-9)


def test_spgm_quadratic_form_identity():
    # tr(H_eff H_eff^H) must equal w^H Q w with w = conj(v), and the core
    # objective must be minus that divided by tr Q
    rng, paths = _instance(6)
    chan = assemble_channels(paths, GEOMETRY)
    q = (chan.r.conj().T @ chan.r) * (chan.g @ chan.g.conj().T).T
    v = random_phases(rng, GEOMETRY.m)
    w = v.conj()
    lhs = np.linalg.norm(effective_channel(chan, v)) ** 2
    rhs = np.real(np.vdot(w, q @ w))
    assert lhs == pytest.approx(rhs, rel=1e-10)
    gain = _spgm_gains(_spgm_data(path_core([paths], GEOMETRY)), w[None])[1]
    assert gain == pytest.approx([rhs / np.real(np.trace(q))], rel=1e-10)


def _spgm_stack(seeds, geometry=GEOMETRY):
    """The stacked core of the draws `seeds` and the path sets of its rows."""
    path_sets = [_instance(seed, p=4, l=3)[1] for seed in seeds]
    return path_core(path_sets, geometry, TX_GAIN), path_sets


def test_the_power_method_starts_at_the_strongest_composite_path(monkeypatch):
    # w0 = exp(-j arg p^{11}) row by row, tsvd's start conjugated, so that
    # X(w0)[0, 0] = w0^T p^{11} = 1, the strongest pair's largest gain; each
    # trace opens at the normalized gain there
    from lisim import passive_bf
    real, seen = passive_bf._spgm_gains, []

    def spied(data, w):
        seen.append(w)
        return real(data, w)

    monkeypatch.setattr(passive_bf, "_spgm_gains", spied)
    core, path_sets = _spgm_stack(range(5))
    result = optimize_spgm_stack(core, DescentConfig())
    w0 = seen[0]
    for w, paths in zip(w0, path_sets):
        p11 = composite_path_vectors(paths, GEOMETRY)[0, 0]
        np.testing.assert_allclose(w, np.exp(-1j * np.angle(p11)), rtol=0, atol=1e-12)
        assert w @ p11 == pytest.approx(1.0, abs=1e-12)
    gains = real(_spgm_data(core), w0)[1]
    assert [t[0] for t in result.traces] == pytest.approx(gains, rel=1e-12)


def test_optimize_spgm_traces_do_not_decrease():
    # the power update never lowers a positive semidefinite form, and the
    # trace holds the normalized gain it maximizes, ending at the final point
    core, _ = _spgm_stack(range(12))
    result = optimize_spgm_stack(core, DescentConfig(epsilon=1e-9))
    gains = _spgm_gains(_spgm_data(core), result.points.conj())[1]
    for trace, gain in zip(result.traces, gains):
        assert len(trace) > 2 and np.all(np.diff(trace) >= 0)
        assert trace[-1] == pytest.approx(gain, rel=1e-12)
    assert set(result.stops) == {"gap"}


def test_optimize_spgm_rows_equal_their_runs_alone():
    # rows that stop at different iterations are frozen while the others go
    # on, and no row reads another: each equals its run alone, bit for bit
    desk = ArrayGeometry(n_tx=16, n_rx=16, lis_y=8, lis_z=8)
    core, _ = _spgm_stack(range(7), desk)
    result = optimize_spgm_stack(core, DescentConfig())
    assert len(set(result.iters.tolist())) > 2
    for i in range(len(result.points)):
        alone = optimize_spgm_stack(core[i:i + 1], DescentConfig())
        np.testing.assert_array_equal(alone.points[0], result.points[i])
        assert alone.traces[0] == result.traces[i]
        assert alone.stops[0] == result.stops[i]


def test_optimize_spgm_stops_at_the_iteration_cap():
    # one power update: w1 = exp(j arg(F^H F w0)), from w0 = exp(-j arg p^{11})
    core, _ = _spgm_stack(range(3))
    starts = strongest_path_start(core).conj()
    result = optimize_spgm_stack(core, DescentConfig(max_iters=1))
    assert result.stops == ("max_iters",) * 3
    np.testing.assert_array_equal(result.iters, [1, 1, 1])
    data = _spgm_data(core)
    c, gains = _spgm_gains(data, starts)
    ascent = _spgm_ascent(data, c)
    np.testing.assert_allclose(result.points.conj(), ascent / np.abs(ascent), rtol=0,
                               atol=1e-12)
    assert [t[0] for t in result.traces] == pytest.approx(gains, rel=1e-12)


PAPER = ArrayGeometry(n_tx=64, n_rx=64, lis_y=16, lis_z=16)


def _one_bank(seed, rows):
    """`rows` stride-0 views of one paper-geometry core row, as a one-trial
    power sweep's designs read it, and the same rows gathered into copies,
    with the row's paths."""
    paths = sort_paths_descending(sample_paths(np.random.default_rng(seed), PAPER,
                                               LinkBudget(), 7, 7))
    shared = path_core([paths], PAPER, TX_GAIN)[[0] * rows]
    assert shared.bank.strides[0] == 0
    gathered = PathCore(*(np.ascontiguousarray(getattr(shared, f.name))
                          for f in fields(PathCore)))
    return shared, gathered, paths


def _assert_same_descent(one, other):
    np.testing.assert_array_equal(one.points, other.points)
    assert one.traces == other.traces
    assert one.stops == other.stops


def test_optimizers_on_one_bank_equal_their_runs_on_its_copies():
    # seven powers on one channel, as a power sweep designs them: the rows
    # stop at different iterations, so the descents compact and gather rows
    powers = np.arange(10.0, 41.0, 5.0)
    budgets = [LinkBudget(tx_power=dbm_to_watt(p)) for p in powers]
    shared, gathered, paths = _one_bank(3, len(powers))
    weights = np.stack([stream_weights(paths, b, 4, TX_GAIN) for b in budgets])
    cfg = DescentConfig()
    surrogate = [optimize_tsvd_stack(core, weights, cfg) for core in (shared, gathered)]
    _assert_same_descent(*surrogate)
    assert len(set(surrogate[0].iters.tolist())) > 2
    refined = [optimize_rate_stack(core, budgets, 4, cfg, surrogate[0].points)
               for core in (shared, gathered)]
    _assert_same_descent(*refined)
    assert len(set(refined[0].iters.tolist())) > 2
    # spgm reads no power and draws no start: its rows on one bank are one
    # design, which has the bits of the copies' and of a row run alone
    spgm = [optimize_spgm_stack(core, cfg) for core in (shared, gathered)]
    _assert_same_descent(*spgm)
    alone = optimize_spgm_stack(shared[:1], cfg)
    for i in range(len(powers)):
        np.testing.assert_array_equal(spgm[0].points[i], alone.points[0])
        assert spgm[0].traces[i] == alone.traces[0]


@pytest.mark.parametrize("left, right, shared", [
    ((49, 256), (256, 1), "left"),    # X(v) = bank v
    ((4, 256), (256, 1), "left"),     # the surrogate's diagonal times v
    ((1, 49), (49, 256), "right"),    # the rate gradient's coefficients times bank
    ((7, 7), (7, 7), "left"),         # the core products left X right
    ((7, 7), (7, 7), "right"),
])
def test_a_stride_0_batch_matmul_has_the_bits_of_each_row(left, right, shared):
    # numpy's matmul makes one BLAS call per row on the row's own layout, so
    # a stride-0 operand (one bank for a stack of designs) gives the bits of
    # its gathered copies and of each row alone. If a numpy or BLAS release
    # breaks this, sweep CSVs move and this test says why.
    rng = np.random.default_rng(1)
    n = 7
    draw = lambda shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    one = np.broadcast_to(draw((1,) + (left if shared == "left" else right)),
                          (n,) + (left if shared == "left" else right))
    other = draw((n,) + (right if shared == "left" else left))
    a, b = (one, other) if shared == "left" else (other, one)
    product = a @ b
    bits = lambda x: x.view(np.uint64)
    np.testing.assert_array_equal(bits(product),
                                  bits(np.ascontiguousarray(a) @ np.ascontiguousarray(b)))
    for i in range(n):
        np.testing.assert_array_equal(bits(product[i]), bits(a[i] @ b[i]))


def test_random_phases_stats():
    rng = np.random.default_rng(7)
    v = random_phases(rng, 4096)
    np.testing.assert_allclose(np.abs(v), 1.0, rtol=1e-12)
    assert np.abs(v.mean()) < 0.1
    with pytest.raises(ValueError):
        random_phases(rng, 0)


# -- coupling matrix ---------------------------------------------------------

def test_coupling_matrix_entries():
    rng, paths = _instance(8)
    bank = composite_path_vectors(paths, GEOMETRY)
    v = random_phases(rng, GEOMETRY.m)
    gains = coupling_matrix(v[None], path_core([paths], GEOMETRY))
    for i in range(paths.n_lis_ue):
        for j in range(paths.n_bs_lis):
            d_ij = v.conj() @ bank[i, j]
            assert gains[0, i, j] == pytest.approx(d_ij, rel=1e-12)


def test_offdiag_ratio_limits():
    diag_only = np.eye(3, dtype=complex)[None]
    assert offdiag_ratio(diag_only, 3) == [0.0]
    assert offdiag_ratio(diag_only, 1) == [0.0]
    flat = np.ones((1, 3, 3), dtype=complex)
    assert offdiag_ratio(flat, 3) == pytest.approx([1.0])


@pytest.mark.parametrize("n_streams", range(1, 8))
def test_offdiag_ratio_row_equals_row_alone(n_streams):
    # a group's ratios must not depend on the rows stacked with them, or
    # grouping would change a CSV; against the per-row np.mean loop they
    # may differ in summation order only
    rng = np.random.default_rng(n_streams)
    off = ~np.eye(n_streams, dtype=bool)
    for rows in (2, 5, 13, 25):
        gains = rng.normal(size=(rows, 7, 7)) + 1j * rng.normal(size=(rows, 7, 7))
        gains *= 10.0 ** rng.uniform(-8, 0, (rows, 1, 1))
        stacked = offdiag_ratio(gains, n_streams)
        alone = [offdiag_ratio(gains[i:i + 1], n_streams)[0] for i in range(rows)]
        np.testing.assert_array_equal(stacked, alone)
        loop = [np.mean(b[off]) / np.mean(np.diag(b)) if off.any() else 0.0
                for b in np.abs(gains[:, :n_streams, :n_streams])]
        np.testing.assert_allclose(stacked, loop, rtol=1e-14, atol=0)


def test_coupling_matrix_shape_mismatch():
    rng, paths = _instance(9)
    core = path_core([paths], GEOMETRY)
    with pytest.raises(ValueError):
        coupling_matrix(np.ones((1, 3), dtype=complex), core)
