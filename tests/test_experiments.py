import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracles as orc
from neckflow import experiments, transition
from neckflow.bands import band_midpoint
from neckflow.errors import AccuracyError
from neckflow.experiments import (
    ExperimentConfig,
    _survivor_brackets,
    _tail_chunk,
    chunk_rng,
    default_thresholds,
    distortion_suite,
    entry_window,
    scaling_suite,
    tail_estimate,
    upsilon0_batch,
)
from neckflow.surface import SurfaceProfile
from neckflow.transition import _BLOCK_ROWS, _embedded_rule, entry_data, entry_scales, upsilon0


def _oracle_upsilon0(prof, psi):
    """upsilon0 at psi by the adaptive-quadrature oracle, at the package's gap."""
    ent = entry_data(prof, psi)
    return orc.excursion_quad(prof.r, prof.eps0, ent.u, ent.c > 1.0, "upsilon0")


def test_chunk_rng_reproducible():
    a = chunk_rng(7, 3).uniform(size=10)
    b = chunk_rng(7, 3).uniform(size=10)
    c = chunk_rng(7, 4).uniform(size=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_entry_window_spans_both_sides(prof4):
    lo, hi = entry_window(prof4)
    psi0 = prof4.asymptotic_angle()
    assert lo < psi0 < hi
    # the edges map back to |c| - 1 = 1/n0^2 on either side
    assert prof4.clairaut_constant(-1.0, lo) == pytest.approx(1.01, abs=1e-15)
    assert prof4.clairaut_constant(-1.0, hi) == pytest.approx(0.99, abs=1e-15)
    with pytest.raises(ValueError):
        entry_window(prof4, n0=0)


def test_entry_scales_matches_scalar_path(prof4):
    psi0 = prof4.asymptotic_angle()
    psi = psi0 + np.array([-1e-2, -1e-5, -1e-9, 1e-9, 1e-5, 1e-2])
    u, bounce = entry_scales(prof4, psi)
    for k in range(psi.size):
        ent = entry_data(prof4, float(psi[k]))
        assert u[k] == ent.u
        assert bounce[k] == (ent.c > 1.0)


def test_upsilon0_batch_matches_adaptive(prof4, prof6):
    for prof in (prof4, prof6):
        psis = []
        for n in (12, 40, 200, 1000, 3200):
            for side in ("bouncing", "crossing"):
                psis.append(band_midpoint(prof, n, side)[1])
        batch = upsilon0_batch(prof, np.array(psis))
        for k, psi in enumerate(psis):
            assert batch[k] == pytest.approx(_oracle_upsilon0(prof, psi), rel=1e-10)


def test_upsilon0_batch_blocks_match_rows(prof_narrow):
    # eps0 = 0.5 makes the entry residual zero, so psi0 itself has u == 0
    psi0 = prof_narrow.asymptotic_angle()
    lo, hi = entry_window(prof_narrow)
    n = 3 * _BLOCK_ROWS + 37
    psi = np.append(np.random.default_rng(3).uniform(lo, hi, n - 1), psi0)
    u, bounce = entry_scales(prof_narrow, psi)
    assert u[-1] == 0.0 and 0 < bounce.sum() < n - 1
    batch = upsilon0_batch(prof_narrow, psi)
    rows = np.concatenate([upsilon0_batch(prof_narrow, psi[k : k + 1]) for k in range(n)])
    assert np.array_equal(batch, rows)
    assert math.isinf(batch[-1]) and np.isfinite(batch[:-1]).all()
    assert upsilon0_batch(prof_narrow, np.array([])).shape == (0,)


def test_embedded_rule_is_cached_read_only():
    x, wt = _embedded_rule(32)
    assert _embedded_rule(32)[0] is x
    assert not x.flags.writeable and not wt.flags.writeable
    # 32 answer nodes then 24 estimate nodes on [0, 1]; the weights of both
    # rules, once per panel, each rule summing to the interval length
    assert x.size == 56 and wt.size == 112
    assert 0.0 < x.min() and x.max() < 1.0
    for lo, hi in ((0, 32), (32, 56), (56, 88), (88, 112)):
        assert wt[lo:hi].sum() == pytest.approx(1.0, rel=1e-14)


_PROFILES = {
    (r, eps0): SurfaceProfile(r=r, eps0=eps0, allow_low_r=True)
    for r in (3.0, 4.0, 6.0)
    for eps0 in (0.5, 1.0)
}


@settings(max_examples=60)
@given(
    key=st.sampled_from(sorted(_PROFILES)),
    log_depth=st.floats(-15.0, -3.0),
    side=st.sampled_from((-1.0, 1.0)),
)
def test_upsilon0_batch_matches_adaptive_near_asymptote(key, log_depth, side):
    # the fragile regime: entries within 1e-15..1e-3 of psi0 on either side,
    # where a single uniform panel loses digits and r < 4 is hardest
    prof = _PROFILES[key]
    psi = prof.asymptotic_angle() + side * 10.0**log_depth
    batch = upsilon0_batch(prof, np.array([psi]))[0]
    assert batch == pytest.approx(_oracle_upsilon0(prof, psi), rel=1e-10)


def test_upsilon0_batch_raises_above_ceiling(prof4, monkeypatch):
    monkeypatch.setattr(transition, "_ERR_CEILING", 0.0)
    lo, hi = entry_window(prof4)
    with pytest.raises(AccuracyError) as info:
        upsilon0_batch(prof4, np.linspace(lo, hi, 7))
    assert info.value.achieved > 0.0


def test_upsilon0_batch_refines_rows_above_ceiling(monkeypatch):
    # at r=10, eps0=1.5 about 1% of crossing rows miss 1e-9 at 32/24 nodes
    # per panel; only they are redone, at 64/48 nodes
    prof = SurfaceProfile(r=10.0, eps0=1.5)
    lo, hi = entry_window(prof)
    psi = np.random.default_rng(11).uniform(lo, hi, 600)
    levels = {}
    blocked = transition._blocked

    def spy(side, profile, u, which, n):
        res = blocked(side, profile, u, which, n)
        levels.setdefault(n, []).append((u, res[1, 0] / res[0, 0]))
        return res

    monkeypatch.setattr(transition, "_blocked", spy)
    batch = upsilon0_batch(prof, psi)
    first = np.concatenate([rel for _, rel in levels[32]])
    refined_u = np.concatenate([u for u, _ in levels[64]])
    assert 0 < refined_u.size == int((first > 1e-9).sum()) < 60
    assert max(rel.max() for _, rel in levels[64]) <= 1e-9
    refined = np.flatnonzero(np.isin(entry_scales(prof, psi)[0], refined_u))
    assert refined.size == refined_u.size
    for k in refined:
        assert batch[k] == pytest.approx(_oracle_upsilon0(prof, float(psi[k])), rel=1e-9)
        # refinement is per row: alone, the row gets the same bits
        assert upsilon0_batch(prof, psi[k : k + 1])[0] == batch[k]


def test_upsilon0_batch_asymptotic_is_inf(prof_narrow):
    # at eps0 = 0.5 the inversion residual of psi0 is zero, so u == 0
    psi0 = np.array([prof_narrow.asymptotic_angle()])
    assert entry_scales(prof_narrow, psi0)[0][0] == 0.0
    assert math.isinf(upsilon0_batch(prof_narrow, psi0)[0])


def test_upsilon0_batch_one_ulp_gap_is_finite(prof4, prof6):
    # at eps0 = 1, psi0 keeps the one-ulp residual as its gap: u > 0, so the
    # kernel integrates a finite but very long transit instead of returning inf
    for prof in (prof4, prof6):
        psi0 = np.array([prof.asymptotic_angle()])
        u = entry_scales(prof, psi0)[0][0]
        assert 0.0 < u <= 4.0 * np.finfo(float).eps
        val = upsilon0_batch(prof, psi0)[0]
        assert math.isfinite(val) and val > 100.0


def test_default_thresholds_monotone(prof4):
    thr = default_thresholds(prof4)
    assert thr.size >= 5
    assert np.all(np.diff(thr) > 0.0)
    # each threshold is an actual residence time of a crossing midpoint
    assert thr[0] == pytest.approx(
        2.0 * upsilon0(prof4, band_midpoint(prof4, 50, "crossing")[1]), rel=1e-12
    )


def test_tail_estimate_small_run_exponent():
    cfg = ExperimentConfig(r=4.0, samples=100_000, seed=0)
    est = tail_estimate(cfg)
    assert est.total == 100_000
    assert 3.5 <= est.exponent <= 4.5  # the 1e6 acceptance run pins +-0.2
    assert np.all(est.counts >= est.min_survivors)
    assert np.all(np.diff(est.counts) <= 0)  # survival is nonincreasing
    assert est.exponent == -est.fit.exponent


def test_tail_estimate_serial_parallel_identical():
    base = dict(r=4.0, samples=60_000, seed=5)
    serial = tail_estimate(ExperimentConfig(**base, threads=1))
    para = tail_estimate(ExperimentConfig(**base, threads=8))
    assert np.array_equal(serial.counts, para.counts)
    assert serial.exponent == para.exponent


def test_tail_estimate_pinned_counts():
    # exact survivor counts, recorded with the 320-node uniform-panel kernel
    # and unchanged by the graded 64-node one; a change to the kernel that
    # moves a sample across a threshold must update them on purpose
    r4 = tail_estimate(ExperimentConfig(r=4.0, samples=60_000, seed=5))
    assert r4.counts.tolist() == [1446, 963, 644, 422, 257, 150, 93, 52, 35]
    r6 = tail_estimate(ExperimentConfig(r=6.0, samples=60_000, seed=5))
    assert r6.counts.tolist() == [1305, 878, 582, 379, 233, 136, 85, 44, 28]


class _Drawn:
    """Stands in for a chunk's generator: draws the given angles."""

    def __init__(self, psi):
        self.psi = np.asarray(psi, dtype=float)

    def uniform(self, low, high, size):
        assert size == self.psi.size and np.all((low <= self.psi) & (self.psi <= high))
        return self.psi


def _chunk_of(prof, monkeypatch, psi, brackets, index=0):
    monkeypatch.setattr(experiments, "chunk_rng", lambda seed, i: _Drawn(psi))
    return _tail_chunk(prof, 0, index, len(psi), entry_window(prof), brackets)


def _brackets(prof, extra=()):
    thr = np.append(default_thresholds(prof), extra)
    return _survivor_brackets(prof, entry_window(prof), thr)


def test_tail_chunk_raises_on_nan(prof4, monkeypatch):
    brackets = _brackets(prof4)
    # one sample between the inner and outer edge of the first crossing root
    psi = [0.5 * (brackets.inner[1, 0] + brackets.outer[1, 0])]
    monkeypatch.setattr(
        experiments, "upsilon0_batch", lambda profile, psi: np.full(len(psi), np.nan)
    )
    with pytest.raises(AccuracyError, match="chunk 7"):
        _chunk_of(prof4, monkeypatch, psi, brackets, index=7)


def test_tail_chunk_counts_inf_as_survivor(prof_narrow, monkeypatch):
    # at eps0 = 0.5 the inversion residual of psi0 is zero, so psi0 itself
    # has u == 0 and an infinite residence time; 1e6 has its root below the
    # bisection floor, so no inner edge vouches for the sample there
    psi0 = prof_narrow.asymptotic_angle()
    assert entry_scales(prof_narrow, np.array([psi0]))[0][0] == 0.0
    brackets = _brackets(prof_narrow, extra=[1e6])
    assert np.all(brackets.inner[:, -1] == psi0)
    counts = _chunk_of(prof_narrow, monkeypatch, [psi0], brackets)
    assert counts.tolist() == [1] * brackets.thresholds.size


@pytest.mark.parametrize("key", [(4.0, 1.0), (6.0, 0.5), (10.0, 1.5)])
def test_tail_chunk_counts_bracket_samples_like_the_kernel(key, monkeypatch):
    prof = SurfaceProfile(r=key[0], eps0=key[1])
    lo, hi = entry_window(prof)
    # 1.0 is exceeded on the whole window, 1e5 has its root below the floor
    brackets = _brackets(prof, extra=[1.0, 1e5])
    inner, outer = brackets.inner, brackets.outer
    finite = np.isfinite(outer)
    psi0 = prof.asymptotic_angle()
    placed = np.concatenate(
        [
            inner[finite],
            outer[finite],
            0.5 * (inner + outer)[finite],
            [psi0 - 0.5 * experiments._ROOT_FLOOR, psi0 + 0.5 * experiments._ROOT_FLOOR],
        ]
    )
    placed = placed[(lo <= placed) & (placed <= hi)]
    psi = np.concatenate([placed, np.random.default_rng(2).uniform(lo, hi, 500)])
    reference = (
        2.0 * upsilon0_batch(prof, psi)[None, :] > brackets.thresholds[:, None]
    ).sum(axis=1)
    rows = []
    kernel = experiments.upsilon0_batch

    def spy(profile, psi):
        rows.append(len(psi))
        return kernel(profile, psi)

    monkeypatch.setattr(experiments, "upsilon0_batch", spy)
    counts = _chunk_of(prof, monkeypatch, psi, brackets)
    assert counts.tolist() == reference.tolist()
    # every placed sample but the outer edges themselves ran the kernel
    assert rows[0] >= placed.size - int(finite.sum())
    assert counts[-2] == psi.size and 0 < counts[0] < psi.size


def test_tail_brackets_without_width_fail_the_certificate(monkeypatch):
    # with no width, the inner and outer edge coincide at the bisected root,
    # where the kernel cannot clear the threshold on both sides
    monkeypatch.setattr(experiments, "_BRACKET_DELTA", 0.0)
    with pytest.raises(AccuracyError, match="bracket"):
        tail_estimate(ExperimentConfig(r=4.0, samples=20_000, seed=1))


_MONOTONE_PROFILES = {
    (r, eps0): SurfaceProfile(r=r, eps0=eps0)
    for r in (4.0, 6.0, 10.0)
    for eps0 in (0.5, 1.0, 2.0)
}


@settings(max_examples=200)
@given(
    key=st.sampled_from(sorted(_MONOTONE_PROFILES)),
    depth=st.floats(0.0, 1.0),
    log_step=st.floats(-6.0, 0.0),
)
def test_bouncing_residence_time_is_monotone(key, depth, log_step):
    # the survivor brackets rely on 2*Upsilon0 growing toward psi0; on the
    # crossing side that is proved, on the bouncing side it is checked here
    # with the engine the brackets bisect, from the bisection floor out to
    # half the n0 window (or, at r=10, eps0=0.5 where that window is empty,
    # to half the angle at which c = (1 + a) / 2)
    prof = _MONOTONE_PROFILES[key]
    a, psi0 = prof.boundary_radius, prof.asymptotic_angle()
    reach = psi0 - math.acos(min(1.01, 0.5 * (1.0 + a)) / a)
    floor = experiments._ROOT_FLOOR
    near = floor * (0.5 * reach / floor) ** depth
    psi_near, psi_far = psi0 - near, psi0 - near * (1.0 + 10.0**log_step)
    assume(psi_far < psi_near)  # a step below one ulp of psi0 moves nothing
    assert upsilon0(prof, psi_near) > upsilon0(prof, psi_far)


def test_tail_estimate_rejects_tiny_runs():
    with pytest.raises(ValueError):
        tail_estimate(ExperimentConfig(samples=5_000))


def test_tail_estimate_drops_thin_thresholds():
    cfg = ExperimentConfig(r=4.0, samples=100_000, seed=1)
    # add a threshold far beyond the sampled tail: <20 survivors, dropped
    thr = np.append(default_thresholds(cfg.profile()), 5_000.0)
    est = tail_estimate(cfg, thresholds=thr)
    assert 5_000.0 in est.dropped
    # the record keeps the full grid; the fit just skips dropped entries
    assert len(est.thresholds) == len(thr)
    assert est.counts[-1] < 20
    assert est.min_survivors >= 20


def test_scaling_suite_exponent_windows(prof4):
    suite = scaling_suite(ExperimentConfig(r=4.0, n_min=25, n_max=800))
    fits = suite.fits
    assert 0.40 <= fits["upsilon0_pooled"].exponent <= 0.60
    for side in ("bouncing", "crossing"):
        assert 2.3 <= fits[f"zeta_prime_{side}"].exponent <= 2.7
        assert 2.3 <= fits[f"growth_0_{side}"].exponent <= 2.7
    assert 4.2 <= fits["zeta_second_crossing"].exponent <= 4.8
    assert len(suite.rows) == 2 * len({row["n"] for row in suite.rows})


def test_scaling_suite_deterministic(prof4):
    cfg = ExperimentConfig(r=4.0, n_min=25, n_max=400)
    a = scaling_suite(cfg)
    b = scaling_suite(cfg)
    assert a.rows == b.rows
    assert a.fits["upsilon0_pooled"].exponent == b.fits["upsilon0_pooled"].exponent


def test_distortion_suite_flat_trend(prof4):
    res = distortion_suite(ExperimentConfig(r=4.0, n_min=25, n_max=400))
    ms = [row["m_n"] for row in res.rows]
    assert all(1.0 <= m <= 5.0 for m in ms)
    assert abs(res.fits["m_n_trend"].exponent) <= 0.1


def test_experiment_config_roundtrip():
    cfg = ExperimentConfig(r=6.0, seed=11, samples=50_000)
    prof = cfg.profile()
    assert prof.r == 6.0 and prof.eps0 == 1.0
    d = cfg.as_dict()
    assert d["seed"] == 11 and d["samples"] == 50_000
    assert ExperimentConfig(**d) == cfg


def test_experiment_config_threads_is_not_echoed():
    cfg = ExperimentConfig(r=6.0, seed=11, threads=8)
    assert "threads" not in cfg.as_dict()
    assert cfg.as_dict() == ExperimentConfig(r=6.0, seed=11).as_dict()
    # threads schedules the run, it does not define it
    assert ExperimentConfig(**cfg.as_dict()) == cfg
    assert cfg.threads == 8
