import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import _oracles as orc
from neckflow import linearization
from neckflow.acceptance import _linearization_rows
from neckflow.dynamics import (
    GeodesicState,
    _exit_event,
    _lockstep,
    _make_rhs,
    neck_transit,
    neck_transits,
    reverse,
)
from neckflow.errors import AccuracyError, IntegrationStallError
from neckflow.linearization import (
    co_flow_rows,
    horocycle_scan,
    horocycle_scans,
    riccati_flat,
    sasaki_growth,
    unstable_riccati,
)
from neckflow.surface import SurfaceProfile


@pytest.fixture(scope="module")
def default_scan(prof4):
    return horocycle_scan(prof4)


def _span(prof, psi):
    """Transit time of the entry (-eps0, 0, psi)."""
    return float(neck_transits(prof, [psi])[0][0])


def test_riccati_flat_closed_form():
    t = np.array([0.0, 0.5, 2.0])
    assert np.allclose(riccati_flat(2.0, t), [2.0, 1.0, 0.4], rtol=1e-15)


def test_riccati_on_ridge_matches_flat(prof4):
    # the degenerate parallel: K = 0 for all time
    ts = np.linspace(0.0, 5.0, 41)
    for u0 in (0.5, 1.0):
        _, _, u, _, _ = co_flow_rows(prof4, 0.0, 0.0, u0, ts)
        assert np.max(np.abs(u - riccati_flat(u0, ts))) <= 1e-9


def test_riccati_blow_up_bracketed(prof4):
    # the flat solution from u0 = -2 reaches -inf at t = 1/2; the row
    # breaks down there, and the time it reached brackets the escape
    where = r"at s=0\.0, psi=0\.0, u0=-2\.0, t=5\.0$"
    with pytest.raises(IntegrationStallError, match=where) as info:
        co_flow_rows(prof4, 0.0, 0.0, -2.0, 5.0)
    assert info.value.t_reached == pytest.approx(0.5, abs=1e-6)


def test_jacobi_against_rk4_oracle(prof4):
    host = neck_transit(prof4, GeodesicState(-1.0, 0.0, 0.62)).path
    T = host.t_end

    def K_of_t(t):
        return float(prof4.curvature(min(max(host.state_at(t).s, -1.0), 1.0)))

    j, jd, *_ = co_flow_rows(prof4, -1.0, 0.62, 0.3, T)
    j_ref, jp_ref = orc.jacobi_reference(K_of_t, 1.0, 0.3, T, steps=20_000)
    assert j[0] == pytest.approx(j_ref, rel=1e-8)
    assert jd[0] == pytest.approx(jp_ref, rel=1e-8)


def test_riccati_jacobi_consistency(prof4):
    ts = np.linspace(0.1, _span(prof4, 0.55), 25)
    j, jd, u, _, _ = co_flow_rows(prof4, -1.0, 0.55, 0.4, ts)
    for a, b in zip(jd / j, u):
        assert a == pytest.approx(b, abs=1e-8)


def test_riccati_comparison_lower_bound(prof4):
    """With K <= 0, u' >= -u^2, so u dominates the flat evolution."""
    times = np.linspace(0.0, _span(prof4, 0.7), 30)
    _, _, u, _, _ = co_flow_rows(prof4, -1.0, 0.7, 0.9, times)
    for ta, tb, ua, ub in zip(times[:-1], times[1:], u[:-1], u[1:]):
        assert ub >= ua / ((tb - ta) * ua + 1.0) - 1e-9


def test_riccati_integral_consistent_with_u(prof4):
    # int_u is co-integrated: check against trapezoid of u on a fine grid
    ts = np.linspace(0.0, _span(prof4, 0.8), 2001)
    _, _, us, int_u, _ = co_flow_rows(prof4, -1.0, 0.8, 0.6, ts)
    i_trap = np.trapezoid(us, ts)
    assert int_u[-1] == pytest.approx(i_trap, rel=1e-6)


def test_sasaki_growth_identity(prof4):
    j, jd, u, int_u, _ = co_flow_rows(prof4, -1.0, 0.9, 0.5, _span(prof4, 0.9))
    for delta in (1.0, 0.01):
        norm_ratio = np.sqrt((j * j + delta * jd * jd) / (1.0 + delta * 0.25))
        assert sasaki_growth(0.5, u, int_u, delta) == pytest.approx(norm_ratio, rel=1e-8)
    with pytest.raises(ValueError):
        sasaki_growth(0.5, u, int_u, 0.0)


def test_unstable_riccati_ridge(prof4):
    """On the flat parallel the true unstable value is 0; off it, k+ > 0."""
    est = unstable_riccati(prof4, GeodesicState(0.0, 0.0, 0.0), relax_time=20.0)
    assert est.value <= est.spread  # consistent with 0 within confidence
    assert est.confident
    assert not est.truncated
    assert est.window == pytest.approx(20.0)
    assert unstable_riccati(prof4, GeodesicState(0.2, 0.0, 0.3)).value > 0.0


def test_unstable_riccati_spread_shrinks_with_window(prof4):
    # the ridge parallel never leaves the neck, so the window is honored
    # in full and the flat relaxation gives spread = 1/(1+T) exactly
    st = GeodesicState(0.0, 0.0, 0.0)
    spreads = [
        unstable_riccati(prof4, st, relax_time=T).spread for T in (2.0, 5.0, 10.0)
    ]
    assert spreads[0] > spreads[1] > spreads[2]
    assert spreads[2] == pytest.approx(1.0 / 11.0, rel=1e-7)


def test_unstable_riccati_truncates_at_boundary(prof4):
    # a crossing orbit leaves the neck quickly; the window gets cut there
    st = GeodesicState(0.9, 0.0, 0.5 * math.pi)
    est = unstable_riccati(prof4, st, relax_time=50.0)
    assert est.truncated
    assert est.window < 50.0


def test_horocycle_scan_default_grid(default_scan):
    rep = default_scan
    assert len(rep.rows) == 32  # 8 footpoints x 4 angles
    assert rep.frac_unconfident <= 0.2
    for name in ("c3", "c4", "c7"):
        v = getattr(rep, name)
        assert math.isfinite(v) and v > 0.0
    for row in rep.rows:
        assert row["K"] <= 0.0
        assert row["k_plus"] >= 0.0 and row["k_minus"] >= 0.0


def test_horocycle_scan_aborts_when_unconfident(prof4):
    with pytest.raises(AccuracyError, match="relax_time|longer window"):
        horocycle_scan(prof4, relax_time=0.5, spread_tol=1e-4)


def test_horocycle_scan_default_constants_pinned(default_scan):
    # the constants as the earlier dense-output relaxation computed them
    assert default_scan.c3 == pytest.approx(0.8746388526192572, rel=1e-8)
    assert default_scan.c4 == pytest.approx(0.6483479234692242, rel=1e-8)
    assert default_scan.c7 == pytest.approx(1.9839035619146863, rel=1e-8)


@pytest.mark.parametrize("r", [4.0, 6.0])
@pytest.mark.parametrize(
    "s, psi, relax_time, truncated",
    [(0.05, 0.05, 4.0, False), (-0.2, 0.2, 2.0, False), (0.35, 0.2, 20.0, True)],
)
def test_unstable_riccati_against_rk4_oracle(r, s, psi, relax_time, truncated):
    est = unstable_riccati(
        SurfaceProfile(r, 1.0), GeodesicState(s, 0.0, psi), relax_time=relax_time
    )
    assert est.truncated is truncated
    ref = orc.unstable_riccati_reference(r, s, psi, est.window, steps=2000)
    assert est.seed_values[0] == pytest.approx(ref[0], abs=1e-8)
    assert est.seed_values[1] == pytest.approx(ref[1], abs=1e-8)


def _relax_by_solve_ivp(profile, state, relax_time, scale):
    """One vector's two legs as per-vector solve_ivp DOP853 runs, at the
    tolerances of _lockstep's rows: (window, truncated, seeds, closure)."""
    rtol = linearization._RELAX_RTOL * scale
    atol = linearization._RELAX_ATOL * scale
    back = solve_ivp(
        _make_rhs(profile),
        (0.0, relax_time),
        reverse(state).as_array(),
        method="DOP853",
        events=_exit_event(profile),
        rtol=max(rtol / 100.0, linearization._RTOL_FLOOR),
        atol=atol / 100.0,
    )
    s0, _, psi0 = back.y[:, -1]
    fwd = solve_ivp(
        linearization._co_rhs(profile, linearization._seed_pair),
        (0.0, float(back.t[-1])),
        [s0, psi0 + math.pi, *linearization._SEEDS],
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    s1, psi1, *seeds = fwd.y[:, -1]
    closure = max(abs(s1 - state.s), abs(math.remainder(psi1 - state.psi, 2.0 * math.pi)))
    return float(back.t[-1]), back.status == 1, np.array(seeds), closure


def _unstable_by_solve_ivp(profile, state, relax_time=20.0):
    """unstable_riccati's levels and redo rule, one vector at a time."""
    levels = linearization._LEVELS
    _, _, coarse, _ = _relax_by_solve_ivp(profile, state, relax_time, levels[0])
    window, truncated, seeds, closure = _relax_by_solve_ivp(profile, state, relax_time, levels[1])
    error = np.max(np.abs(seeds - coarse))
    if closure > linearization._CLOSURE_TOL or error > linearization._SEED_TOL:
        window, truncated, seeds, closure = _relax_by_solve_ivp(
            profile, state, relax_time, levels[2]
        )
    return window, truncated, max(0.5 * (seeds[0] + seeds[1]), 0.0)


def _default_grid(profile):
    half = np.linspace(0.05, 0.5, 4) * profile.eps0
    return [
        GeodesicState(float(s), 0.0, float(psi))
        for s in np.concatenate([-half[::-1], half])
        for psi in np.linspace(0.05, 0.5, 4)
    ]


@pytest.mark.parametrize("r, eps0", [(4.0, 1.0), (6.0, 1.0), (6.0, 1.5)])
def test_lockstep_rows_match_solve_ivp_per_vector(r, eps0):
    # k+ and k- of the default grid, each row against its own solve_ivp runs
    profile = SurfaceProfile(r, eps0)
    grid = _default_grid(profile)
    vectors = grid + [reverse(st) for st in grid]
    estimates = linearization._unstable_batch(profile, vectors, 20.0, 0.25)
    n_truncated = 0
    for st, est in zip(vectors, estimates):
        window, truncated, value = _unstable_by_solve_ivp(profile, st)
        assert est.truncated is truncated
        assert est.value == pytest.approx(value, rel=1e-9)
        if truncated:  # the window ends at the backward leg's terminal event
            n_truncated += 1
            assert est.window == pytest.approx(window, rel=1e-12)
        else:
            assert est.window == window == 20.0
    assert n_truncated > 0


def test_lockstep_rows_do_not_depend_on_their_batch():
    # a grid with truncated rows, untruncated ones and one redone one tighter
    # (0.525, 0.2); each vector alone, and the grid in reverse order, must
    # give every row the same bits
    profile = SurfaceProfile(6.0, 1.5)
    s_values, psi_values = [-0.525, 0.075, 0.525], [0.05, 0.2]
    rows = horocycle_scan(profile, s_values, psi_values).rows
    flipped = horocycle_scan(profile, s_values[::-1], psi_values[::-1]).rows
    assert rows == flipped[::-1]
    for row in rows:
        st = GeodesicState(row["s"], 0.0, row["psi"])
        plus, minus = unstable_riccati(profile, st), unstable_riccati(profile, reverse(st))
        assert (plus.value, minus.value) == (row["k_plus"], row["k_minus"])
        assert max(plus.spread, minus.spread) == row["spread"]


def test_horocycle_scans_match_one_grid_at_a_time(prof4):
    # criterion 9's use: several grids in one batch, each report the one
    # its grid gets alone, None standing for the default axis
    grids = [([-0.2, 0.3], [0.1, 0.4]), (None, [0.25])]
    assert horocycle_scans(prof4, grids) == [horocycle_scan(prof4, s, psi) for s, psi in grids]


@pytest.mark.parametrize(
    "kw",
    [
        {"relax_time": math.nan},
        {"relax_time": math.inf},
        {"relax_time": -5.0},
        {"relax_time": 0.0},
        {"spread_tol": -1.0},
        {"spread_tol": math.nan},
        {"spread_tol": math.inf},
    ],
)
def test_relaxation_rejects_bad_inputs(prof4, kw):
    with pytest.raises(ValueError, match="relax_time|spread_tol"):
        unstable_riccati(prof4, GeodesicState(0.2, 0.0, 0.3), **kw)
    with pytest.raises(ValueError, match="relax_time|spread_tol"):
        horocycle_scan(prof4, **kw)


def test_horocycle_scan_needs_a_curved_point(prof4):
    with pytest.raises(ValueError, match="K < 0"):
        horocycle_scan(prof4, s_values=[0.0])
    with pytest.raises(ValueError, match="empty"):
        horocycle_scan(prof4, s_values=[])


def test_horocycle_scan_grid_through_the_ridge_vector(prof4):
    """C3's denominator is 0 at s = 0, psi in {0, pi}: the bound holds there
    for any C3, so that vector is left out of the minimum."""
    grid = [0.0, 0.2, 0.4]
    report = horocycle_scan(prof4, s_values=grid, psi_values=grid)
    off_ridge = [row for row in report.rows if row["s"] != 0.0 or row["psi"] != 0.0]
    assert len(off_ridge) == 8 and all(row["confident"] for row in report.rows)
    want = min(row["k_plus"] / max(abs(row["s"]), row["psi"] ** 0.5) for row in off_ridge)
    assert report.c3 == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError, match="C3"):
        horocycle_scan(prof4, s_values=[0.0], psi_values=[0.0, math.pi])


def test_unstable_riccati_closure_check_raises(prof4, monkeypatch):
    monkeypatch.setattr(linearization, "_CLOSURE_TOL", 0.0)
    with pytest.raises(AccuracyError) as info:
        unstable_riccati(prof4, GeodesicState(0.2, 0.0, 0.3))
    assert info.value.achieved > 0.0


def _patched_lockstep(monkeypatch, change):
    """Route linearization's _lockstep calls through change(call, fun, y0,
    args), call counting from 1, which returns the result to use."""
    calls = []

    def patched(fun, y0, *args):
        calls.append(len(calls) + 1)
        return change(calls[-1], fun, y0, args)

    monkeypatch.setattr(linearization, "_lockstep", patched)


def test_unstable_riccati_closure_covers_psi(prof4, monkeypatch):
    # shift only the forward leg's final psi: s closes, psi misses by 1e-6
    def shifted(call, fun, y0, args):
        t_end, y_end, hit, peak = _lockstep(fun, y0, *args)
        if np.shape(y0)[1] == 4:  # (s, psi, u_seed0, u_seed1): the forward leg
            y_end[:, 1] += 1e-6
        return t_end, y_end, hit, peak

    _patched_lockstep(monkeypatch, shifted)
    with pytest.raises(AccuracyError) as info:
        unstable_riccati(prof4, GeodesicState(0.2, 0.0, 0.3))
    assert info.value.achieved == pytest.approx(1e-6, rel=1e-3)


def _spy_rtols(monkeypatch):
    """Record (dim, distinct rtols, loosest first) of every _lockstep batch."""
    seen = []

    def spy(call, fun, y0, args):
        rtols = sorted(set(np.atleast_1d(args[1]).tolist()), reverse=True)
        seen.append((np.shape(y0)[1], rtols))
        return _lockstep(fun, y0, *args)

    _patched_lockstep(monkeypatch, spy)
    return seen


def test_unstable_riccati_tight_rtol_stays_above_scipy_floor(monkeypatch):
    # the redo runs the backward leg at the tightest tolerance
    # unstable_riccati reaches, a hundredth of 1e-12, which is clamped at
    # scipy's rtol floor of 100 eps (2.2e-14)
    seen = _spy_rtols(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = unstable_riccati(SurfaceProfile(6.0, 1.5), GeodesicState(0.525, 0.0, 0.2))
    tightest = min(rtols[-1] for _, rtols in seen)
    assert tightest >= 100.0 * np.finfo(float).eps
    assert tightest == pytest.approx(100.0 * np.finfo(float).eps)
    assert est.value > 0.0


def test_unstable_riccati_tightens_once_on_a_closure_miss(monkeypatch):
    # a long untruncated window at r=6: the run at a tenth of the
    # tolerances closes to ~1.7e-10, above the patched tolerance, and the
    # redo at a hundredth closes to ~3e-11
    monkeypatch.setattr(linearization, "_CLOSURE_TOL", 1e-10)
    seen = _spy_rtols(monkeypatch)
    est = unstable_riccati(SurfaceProfile(6.0, 1.5), GeodesicState(0.525, 0.0, 0.2))
    rtols = [r for dim, r in seen if dim == 4]  # the forward legs
    assert len(rtols) == 2
    assert rtols[0] == pytest.approx([1e-10, 1e-11])
    assert rtols[1] == pytest.approx([1e-12])
    assert not est.truncated
    ref = orc.unstable_riccati_reference(6.0, 0.525, 0.2, est.window, steps=4000)
    assert est.seed_values[0] == pytest.approx(ref[0], abs=2e-9)
    assert est.seed_values[1] == pytest.approx(ref[1], abs=2e-9)


def test_unstable_riccati_seed_error_is_bounded(monkeypatch):
    # with the closure tolerance above this vector's first closure (2.0e-9)
    # the closure passes while those seeds are ~6e-9 off; the estimate
    # |coarse - fine| must catch that
    monkeypatch.setattr(linearization, "_CLOSURE_TOL", 3e-9)
    ref = orc.unstable_riccati_reference(6.0, 0.525, 0.2, 20.0, steps=4000)
    ref2 = orc.unstable_riccati_reference(6.0, 0.525, 0.2, 20.0, steps=8000)
    assert np.max(np.abs(ref - ref2)) < 1e-10
    try:
        est = unstable_riccati(SurfaceProfile(6.0, 1.5), GeodesicState(0.525, 0.0, 0.2))
    except AccuracyError:
        return
    assert est.window == 20.0
    assert np.max(np.abs(np.array(est.seed_values) - ref2)) <= 1e-9
    assert 0.0 < est.seed_error <= linearization._SEED_TOL


def test_unstable_riccati_seed_error_ceiling_raises(prof4, monkeypatch):
    monkeypatch.setattr(linearization, "_SEED_TOL", 0.0)
    with pytest.raises(AccuracyError, match="s=0.2, psi=0.3") as info:
        unstable_riccati(prof4, GeodesicState(0.2, 0.0, 0.3))
    assert info.value.achieved > 0.0


def _stall_leg(monkeypatch, leg, off_ridge=False):
    """Make the leg-th lockstep run break down at t = 2, in every row or in
    the rows off the ridge (|s| > 1e-6): the field turns NaN there, so every
    step across t = 2 is rejected until the step size falls below 10 ulps."""

    def stalling(call, fun, y0, args):
        if call == leg:
            inner = fun

            def fun(t, y):
                bad = (t >= 2.0) & ((np.abs(y[0]) > 1e-6) | (not off_ridge))
                return [np.where(bad, np.nan, v) for v in inner(t, y)]

        return _lockstep(fun, y0, *args)

    _patched_lockstep(monkeypatch, stalling)


@pytest.mark.parametrize("leg", [1, 2])
def test_unstable_riccati_stall_raises(prof4, monkeypatch, leg):
    _stall_leg(monkeypatch, leg)
    with pytest.raises(IntegrationStallError, match=r"at s=0\.0, psi=0\.0$") as info:
        unstable_riccati(prof4, GeodesicState(0.0, 0.0, 0.0), relax_time=4.0)
    assert info.value.t_reached == pytest.approx(2.0)


@pytest.mark.parametrize("leg", [1, 2])
def test_scan_stall_names_the_vector(prof4, monkeypatch, leg):
    # only the second vector's rows leave the ridge, so only they stall:
    # batch rows 1 and 3, the vector at its two tolerance levels
    _stall_leg(monkeypatch, leg, off_ridge=True)
    states = [GeodesicState(0.0, 0.0, 0.0), GeodesicState(0.2, 0.0, 0.3)]
    with pytest.raises(IntegrationStallError, match=r"row [13]: .* at s=0\.2, psi=0\.3$"):
        linearization._unstable_batch(prof4, states, 4.0, 0.25)


def test_riccati_and_jacobi_stall_raise(prof4, monkeypatch):
    _stall_leg(monkeypatch, 1)
    # the row sampled at t = 1 ends before the field turns NaN; the other stalls
    where = r"row 1: .* at s=0\.0, psi=0\.0, u0=0\.5, t=5\.0$"
    with pytest.raises(IntegrationStallError, match=where) as info:
        co_flow_rows(prof4, [0.0, 0.0], 0.0, 0.5, [1.0, 5.0])
    assert info.value.t_reached == pytest.approx(2.0)


def test_riccati_and_jacobi_check_host_drift(prof4, monkeypatch):
    monkeypatch.setattr(linearization, "_DRIFT_TOL", 0.0)
    with pytest.raises(AccuracyError, match=r"at s=-1\.0, psi=0\.62, u0=0\.3, t=") as info:
        co_flow_rows(prof4, -1.0, 0.62, 0.3, _span(prof4, 0.62))
    assert 0.0 < info.value.achieved <= 1e-10


def test_co_flow_rows_do_not_depend_on_their_batch():
    # rows of criterion 9's batch from each transit, the ridge and the
    # meridian: each alone must give the bits it gets in the batch
    profile = SurfaceProfile(4.0, 1.0)
    s, psi, u0, t = _linearization_rows(profile)
    assert t.size == 1202
    batch = np.column_stack(co_flow_rows(profile, s, psi, u0, t)[:4])
    for i in (0, 137, 250, 399, 599, 650, 801, 1000, 1201):
        alone = np.column_stack(co_flow_rows(profile, s[i], psi[i], u0[i], t[i])[:4])
        assert alone[0].tobytes() == batch[i].tobytes()


def test_co_flow_rows_reject_bad_inputs(prof4):
    for u0, t in ((math.nan, 1.0), (math.inf, 1.0), (0.5, -1.0), (0.5, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            co_flow_rows(prof4, 0.0, 0.0, u0, t)
