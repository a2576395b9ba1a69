import math

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq

import _oracles as orc
from neckflow import bands, dynamics
from neckflow.dynamics import (
    GeodesicState,
    _lockstep,
    integrate,
    neck_transit,
    neck_transits,
    reverse,
    vector_field,
)
from neckflow.errors import (
    AccuracyError,
    AsymptoticEntryError,
    IntegrationStallError,
    NeckDomainError,
)
from neckflow.experiments import chunk_rng
from neckflow.surface import SurfaceProfile, TrajectoryClass


def test_vector_field_worked_value(prof4):
    """Entry at the boundary with psi = pi/3: c = 1 exactly in reals.

    s' = sin(pi/3)/sqrt(1+16), theta' = cos(pi/3)/2, psi' = -4*cos(pi/3)/
    (2*sqrt(17)).
    """
    st = GeodesicState(s=-1.0, theta=0.0, psi=math.pi / 3.0)
    sd, td, pd = vector_field(prof4, st)
    assert sd == pytest.approx(math.sin(math.pi / 3.0) / math.sqrt(17.0), rel=1e-14)
    assert td == pytest.approx(0.25, rel=1e-14)
    assert pd == pytest.approx(-1.0 / math.sqrt(17.0), rel=1e-14)


def test_vector_field_ridge_orbit(prof4):
    # on the ridge, moving along the parallel: everything is flat
    sd, td, pd = vector_field(prof4, GeodesicState(0.0, 0.3, 0.0))
    assert (sd, pd) == (0.0, 0.0)
    assert td == 1.0


def test_reverse_is_involution():
    st = GeodesicState(-0.3, 1.2, 0.7)
    rr = reverse(reverse(st))
    assert rr.s == st.s and rr.theta == st.theta
    assert rr.psi == pytest.approx(st.psi, abs=1e-15)
    # reversal flips the meridian component
    assert math.sin(reverse(st).psi) == pytest.approx(-math.sin(st.psi), rel=1e-15)


def test_clairaut_drift_small(prof4):
    path = integrate(prof4, GeodesicState(-1.0, 0.0, 0.9), (0.0, 8.0))
    assert path.drift <= 1e-8 * abs(path.c0)
    # drift reported by sample() agrees with the stored bound
    rows = path.sample(np.linspace(0.0, path.t_end, 100))
    assert np.max(np.abs(rows[:, 4])) <= path.drift * 1.0000001


def test_integrate_unreachable_drift_tolerance(prof4):
    with pytest.raises(AccuracyError):
        integrate(prof4, GeodesicState(-1.0, 0.0, 0.9), (0.0, 8.0), drift_tol=1e-17)


def test_bouncing_transit(prof4):
    tr = neck_transit(prof4, GeodesicState(-1.0, 0.0, 1.03))
    assert tr.klass is TrajectoryClass.BOUNCING
    assert tr.exit.s == -1.0            # bounces back out the entry side
    assert math.sin(tr.exit.psi) < 0.0  # ... moving outward
    assert tr.exit.psi == pytest.approx(-1.03, abs=1e-8)
    # against the independent quadrature oracle (frozen at 2e6 panels)
    assert abs(tr.dtheta) == pytest.approx(3.581422821989772, abs=1e-7)
    assert tr.transit_time == pytest.approx(5.172602041810003, abs=1e-7)


def test_crossing_transit(prof4):
    tr = neck_transit(prof4, GeodesicState(-1.0, 0.0, 1.06))
    assert tr.klass is TrajectoryClass.CROSSING
    assert tr.exit.s == 1.0             # goes through
    assert math.sin(tr.exit.psi) > 0.0
    assert tr.exit.psi == pytest.approx(1.06, abs=1e-8)
    assert abs(tr.dtheta) == pytest.approx(5.678058582472286, abs=1e-7)
    assert tr.transit_time == pytest.approx(7.363148799914143, abs=1e-7)


def test_transit_oracle_random_entries(prof4):
    """ODE transits match the brute-force Clairaut reduction."""
    rng = np.random.default_rng(11)
    psi0 = prof4.asymptotic_angle()
    for _ in range(6):
        # entry angles straddling psi0, but not too deep for the oracle
        psi = psi0 + rng.choice([-1.0, 1.0]) * (0.002 + 0.03 * rng.random())
        tr = neck_transit(prof4, GeodesicState(-1.0, 0.0, psi))
        z_ref, t_ref = orc.transit_reference(4.0, 1.0, psi, panels=300_000)
        assert abs(tr.dtheta) == pytest.approx(z_ref, rel=1e-7)
        assert tr.transit_time == pytest.approx(t_ref, rel=1e-7)


def test_transit_entry_validation(prof4):
    with pytest.raises(NeckDomainError):
        neck_transit(prof4, GeodesicState(-0.5, 0.0, 1.0))
    with pytest.raises(ValueError):
        neck_transit(prof4, GeodesicState(-1.0, 0.0, -0.4))  # points outward


def test_asymptotic_entry_rejected(prof_narrow):
    """An entry whose Clairaut constant is exactly 1.0 must be refused.

    Engineered in floats: scan a few ulps of psi around arccos(1/a)
    until a*cos(psi) rounds to exactly 1.0 (a = 1.0625 is dyadic, so such
    psi exist nearby).
    """
    a = prof_narrow.boundary_radius
    psi = math.acos(1.0 / a)
    hit = None
    for _ in range(400):
        if a * math.cos(psi) == 1.0:
            hit = psi
            break
        psi = math.nextafter(psi, 0.0)
    assert hit is not None, "no exactly-asymptotic double nearby (unexpected)"
    with pytest.raises(AsymptoticEntryError):
        neck_transit(prof_narrow, GeodesicState(-0.5, 0.0, hit))
    with pytest.raises(AsymptoticEntryError, match=f"psi={hit!r}"):
        neck_transits(prof_narrow, [1.0, hit])


def test_meridian_crossing(prof4):
    # psi = pi/2 gives c = 0: straight over the neck, no theta motion
    tr = neck_transit(prof4, GeodesicState(-1.0, 0.0, 0.5 * math.pi))
    assert tr.klass is TrajectoryClass.CROSSING
    assert abs(tr.dtheta) < 1e-12
    z_ref, t_ref = orc.transit_reference(4.0, 1.0, 0.5 * math.pi, panels=200_000)
    assert tr.transit_time == pytest.approx(t_ref, rel=1e-8)


def test_conserved_envelope_band_independent(prof4):
    """(s')^2/(xi - c) stays in a band-independent envelope.

    Along any orbit (s')^2/(xi-c) = (xi+c)/(xi^2 (1+xi'^2)); on the default
    neck its max/min envelope tends to 136/3 ~ 45.3 as c -> 1, and never
    exceeds 50 on any band.  (It is *not* bounded by 10: the flattening of
    the profile at the boundary contributes the factor 1 + r^2 eps0^(4r-2)/
    ... = 17 at r=4.)
    """
    from neckflow.bands import band_midpoint

    s = np.linspace(0.0, 1.0, 4001)
    xi = 1.0 + s**4
    d1 = 4.0 * s**3
    ratios = []
    for n in (10, 100, 1000):
        c, _ = band_midpoint(prof4, n, "bouncing")
        g = (xi + c) / (xi**2 * (1.0 + d1**2))
        envelope = g.max() / g.min()
        exact = 68.0 * (1.0 + c) / (2.0 + c)
        assert envelope == pytest.approx(exact, rel=1e-6)
        assert envelope < 50.0
        ratios.append(envelope)
    # band independence: the envelope varies only through c - 1 = O(n^-2)
    assert max(ratios) - min(ratios) < 0.1


def test_transit_time_grows_toward_asymptotic(prof4):
    psi0 = prof4.asymptotic_angle()
    times = [
        neck_transit(prof4, GeodesicState(-1.0, 0.0, psi0 - d)).transit_time
        for d in (0.01, 0.001, 0.0001)
    ]
    assert times[0] < times[1] < times[2]


def test_dop853_tableau_pinned():
    # _lockstep reads the tableau from scipy's private dop853_coefficients;
    # these are values of Hairer's dop853.f and order conditions it must meet
    tab = dynamics._tableau()
    assert (tab.N_STAGES, tab.N_STAGES_EXTENDED, tab.INTERPOLATOR_POWER) == (12, 16, 7)
    assert tab.C[1] == pytest.approx(0.526001519587677318785587544488e-01, rel=1e-15)
    assert tab.B[0] == pytest.approx(5.42937341165687622380535766363e-2, rel=1e-15)
    n = tab.N_STAGES
    assert np.allclose(tab.A[:n, :n].sum(axis=1), tab.C[:n], rtol=0.0, atol=1e-14)
    for k in range(8):  # the quadrature behind the order-8 weights
        assert tab.B @ tab.C[:n] ** k == pytest.approx(1.0 / (k + 1), rel=1e-13)
    assert abs(tab.E3.sum()) < 1e-14 and abs(tab.E5.sum()) < 1e-14


def test_lockstep_stall_names_the_row():
    # y = (row mark, x) with x' = 1; the row marked 1 has x' = NaN from
    # t = 1.5 on, so its steps across 1.5 are rejected until the step size
    # falls below 10 ulps, while the other rows run on
    def fun(t, y):
        return (np.zeros_like(t), np.where((t >= 1.5) & (y[0] == 1.0), np.nan, 1.0))

    with pytest.raises(IntegrationStallError, match="row 1") as info:
        _lockstep(fun, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], 3.0, 1e-10, 1e-12)
    assert info.value.t_reached == pytest.approx(1.5)
    t_end, y_end, hit, _ = _lockstep(fun, [[0.0, 0.0], [2.0, 0.0]], 3.0, 1e-10, 1e-12)
    assert t_end.tolist() == [3.0, 3.0] and not hit.any()
    assert y_end[:, 1] == pytest.approx([3.0, 3.0], rel=1e-14)


@pytest.mark.parametrize("rows", [1, 257])
@pytest.mark.parametrize("dim", [3, 4])
def test_stage_sums_add_in_stage_order(dim, rows):
    # every tableau row the engine combines, against a plain accumulation of
    # its nonzero terms in stage order: a reordered (BLAS) sum fails this
    tab = dynamics._tableau()
    n = tab.N_STAGES
    coefficients = [tab.A[i, :i] for i in [*range(1, n), *range(n + 1, tab.N_STAGES_EXTENDED)]]
    coefficients += [tab.B, tab.E3, tab.E5, *tab.D]
    rng = np.random.default_rng(dim * rows)
    K = rng.standard_normal((tab.N_STAGES_EXTENDED, dim, rows)) * 10.0 ** rng.uniform(
        -6.0, 6.0, (tab.N_STAGES_EXTENDED, dim, rows)
    )
    for a in coefficients:
        terms = [(float(c), K[j].tolist()) for j, c in enumerate(a) if c != 0.0]
        expected = []
        for k in range(dim):
            row = []
            for m in range(rows):
                total = None
                for c, Kj in terms:
                    total = c * Kj[k][m] if total is None else total + c * Kj[k][m]
                row.append(total)
            expected.append(row)
        assert dynamics._combine(K, a).tolist() == expected


@pytest.mark.parametrize("dim", [1, 8])
def test_lockstep_rejects_dims_without_batch_invariance(dim):
    # a lone row with one component sums its stages pairwise, and one with
    # 8 components its error norm: its bits would depend on the batch
    with pytest.raises(ValueError, match=f"got {dim}"):
        _lockstep(lambda t, y: tuple(-y), [[1.0] * dim], 1.0, 1e-10, 1e-12)


@pytest.mark.parametrize("psi", [0.4, 1.03, 1.06, 0.5 * math.pi])
def test_event_root_on_a_shared_step(prof4, psi):
    # scipy's DOP853 stepped until the exit event is bracketed; on that one
    # step the engine's root and state must match scipy's, found on
    # solve_ivp's interpolant, to the root tolerance.  The bouncing angles
    # leave through s = -1, the crossing ones through s = +1
    event = dynamics._exit_event(prof4)
    solver = DOP853(dynamics._make_rhs(prof4), 0.0, [-1.0, 0.0, psi], 1e6, rtol=1e-10, atol=1e-12)
    g = event(solver.t, solver.y)
    while True:  # _lockstep's rule: the event value goes from <= 0 to >= 0
        assert solver.status == "running"
        solver.step()
        g_old, g = g, event(solver.t, solver.y)
        if g_old <= 0.0 <= g:
            break
    assert solver.y[0] * (1.0 if psi > prof4.asymptotic_angle() else -1.0) > 0.0
    # scipy's 13 stages, padded to the engine's 16-stage buffer of one row
    K = np.zeros((dynamics._tableau().N_STAGES_EXTENDED, 3, 1))
    K[: len(solver.K), :, 0] = solver.K
    ((root, state),) = dynamics._event_roots(
        dynamics._make_rhs(prof4, np), event, K, np.array([solver.t_old]),
        np.array([solver.t]), solver.y_old[:, None], solver.y[:, None],
    )
    sol = solver.dense_output()
    tol = dynamics._ROOT_TOL
    ref = brentq(lambda t: event(t, sol(t)), solver.t_old, solver.t, xtol=tol, rtol=tol)
    assert abs(root - ref) <= 4.0 * tol * (1.0 + ref)
    assert np.max(np.abs(np.array(state) - sol(ref))) <= 4.0 * tol


# rows starting on a boundary: pointing out through s = +1 and s = -1, then
# pointing in from each; the inward ones cross the neck in more than 1.0
_ON_THE_BOUNDARY = [(1.0, 1.2), (-1.0, -1.2), (1.0, -1.2), (-1.0, 1.2)]


def test_lockstep_exit_event_on_the_boundary(prof4):
    t_end, y_end, hit, _ = _lockstep(
        dynamics._make_rhs(prof4, np), [(s, 0.0, psi) for s, psi in _ON_THE_BOUNDARY],
        1.0, 1e-10, 1e-12, dynamics._exit_event(prof4),
    )
    assert hit.tolist() == [True, True, False, False]
    assert t_end[:2] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert y_end[:2, 0].tolist() == [1.0, -1.0]
    assert t_end[2:].tolist() == [1.0, 1.0] and np.all(np.abs(y_end[2:, 0]) < 1.0)


@pytest.mark.parametrize("s, psi", _ON_THE_BOUNDARY)
def test_integrate_exit_event_on_the_boundary(prof4, s, psi):
    path = integrate(prof4, GeodesicState(s, 0.0, psi), (0.0, 1.0))
    leaves = s * math.sin(psi) > 0.0
    assert path.terminated is leaves
    if leaves:
        assert path.t_end == pytest.approx(0.0, abs=1e-12)
        assert path.state_at(path.t_end).s == s
    else:
        assert path.t_end == 1.0 and abs(path.state_at(1.0).s) < 1.0


@pytest.mark.parametrize("r, eps0", [(4.0, 1.0), (6.0, 1.5), (10.0, 2.0)])
def test_one_clairaut_formula(r, eps0):
    # GeodesicState.clairaut is clairaut_constant, which is clairaut_unchecked
    # behind the domain check, with the bits of the plain float form
    profile = SurfaceProfile(r, eps0)
    rng = np.random.default_rng(int(r))
    for s, psi in zip(rng.uniform(-eps0, eps0, 2000), rng.uniform(-math.pi, math.pi, 2000)):
        s, psi = float(s), float(psi)
        assert GeodesicState(s, 0.0, psi).clairaut(profile) == (1.0 + abs(s) ** r) * math.cos(psi)
    over = eps0 * (1.0 + 1e-12)  # a solver state's overshoot
    with pytest.raises(NeckDomainError):
        profile.clairaut_constant(over, 0.3)
    assert profile.clairaut_unchecked(over, 0.3) == (1.0 + over**r) * math.cos(0.3)


@pytest.mark.parametrize("r, eps0", [(4.0, 1.0), (6.0, 1.5), (10.0, 2.0)])
def test_one_neck_geometry(r, eps0):
    # both right-hand sides are sin psi/g, cos psi/xi and xi' cos psi/(xi g)
    # of SurfaceProfile.geometry, bit for bit, a float state in Python floats
    profile = SurfaceProfile(r, eps0)
    rng = np.random.default_rng(int(r))
    s = np.append(rng.uniform(-eps0, eps0, 2000), 0.0)
    psi = rng.uniform(-math.pi, math.pi, s.size)
    one = dynamics._make_rhs(profile)
    for si, p in zip(s.tolist(), psi.tolist()):
        _, xi, d1, g = geometry = profile.geometry(si)
        assert all(type(v) is float for v in geometry)
        cp = math.cos(p)
        assert one(0.0, (si, 0.0, p)) == (math.sin(p) / g, cp / xi, d1 * cp / (xi * g))
    _, xi, d1, g = profile.geometry(s, np)
    cp = np.cos(psi)
    rows = dynamics._make_rhs(profile, np)(0.0, (s, np.zeros(s.size), psi))
    for got, want in zip(rows, (np.sin(psi) / g, cp / xi, d1 * cp / (xi * g))):
        assert np.array_equal(got, want)
    assert profile.geometry(0.0) == (0.0, 1.0, 0.0, 1.0)
    # at s > 0 (every integrand node) it is the integrands' plain form
    pos = np.abs(s[s != 0.0])
    sr, xi, d1, g = profile.geometry(pos, np)
    assert np.array_equal(sr, pos**r) and np.array_equal(xi, 1.0 + pos**r)
    assert np.array_equal(d1, r * pos**r / pos)
    assert np.array_equal(g, np.sqrt(d1 * d1 + 1.0))
    assert profile.pinching_bounds()[0] == profile.curvature_ratio(eps0)


@pytest.fixture(scope="module")
def band_entries(prof4):
    """40 entry angles drawn as criterion 2 draws them, in bands 10..100."""
    rng = chunk_rng(0, 202)
    psi = []
    for _ in range(40):
        n = int(rng.integers(10, 101))
        side = bands.BOUNCING if rng.random() < 0.5 else bands.CROSSING
        _, (lo, hi) = bands.band_boundaries(prof4, n, side)
        psi.append(lo + (0.05 + 0.9 * rng.random()) * (hi - lo))
    return np.array(psi)


def test_neck_transits_match_neck_transit(prof4, band_entries):
    t, dtheta, s, psi, drift = out = neck_transits(prof4, band_entries)
    for i, entry in enumerate(band_entries):
        tr = neck_transit(prof4, GeodesicState(-1.0, 0.0, entry))
        assert t[i] == pytest.approx(tr.transit_time, rel=1e-10, abs=0.0)
        assert dtheta[i] == pytest.approx(tr.dtheta, rel=1e-10, abs=0.0)
        assert psi[i] == pytest.approx(tr.exit.psi, rel=1e-10, abs=0.0)
        assert s[i] == pytest.approx(tr.exit.s, rel=1e-14, abs=0.0)
    # the drift column bounds the exit state's drift and meets integrate's 1e-8
    c0 = prof4.clairaut_constant(-1.0, band_entries)
    assert np.all(np.abs(prof4.clairaut_unchecked(s, psi) - c0) <= drift)
    assert np.all(drift <= 1e-8 * np.abs(c0))
    # a row alone has the bits it has inside the batch
    for i in (0, 17, 39):
        alone = neck_transits(prof4, band_entries[i : i + 1])
        assert [col.tobytes() for col in alone] == [col[i : i + 1].tobytes() for col in out]


def test_neck_transits_without_exit_raises(prof4, monkeypatch):
    monkeypatch.setattr(dynamics, "_T_MAX", 1.0)  # both transits take longer
    with pytest.raises(IntegrationStallError, match=r"before t_max=1.0 at entry psi=1.03$"):
        neck_transits(prof4, [1.03, 1.06])
    with pytest.raises(ValueError, match="into the neck"):
        neck_transits(prof4, [1.03, -0.4])
