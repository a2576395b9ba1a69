import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from neckflow import transition
from neckflow.bands import band_midpoint
from neckflow.dynamics import GeodesicState, neck_transit
from neckflow.errors import AccuracyError, AsymptoticEntryError
from neckflow.experiments import upsilon0_batch
from neckflow.surface import SurfaceProfile, TrajectoryClass
from neckflow.transition import (
    apply_f0,
    df0,
    entry_data,
    evaluate,
    excursion_integrals,
    growth_factor,
    tabulate_bands,
    upsilon0,
    zeta,
    zeta_derivs,
)

# frozen 2e6-panel midpoint-rule references (tests/_oracles.py), converged
# to ~3e-12; keyed by (r, psi) with values (|dtheta|, transit time)
TRANSIT_REFS = {
    (4.0, 1.03): (3.581422821989772, 5.172602041810003),
    (4.0, 1.06): (5.678058582472286, 7.363148799914143),
    (6.0, 1.03): (3.2505568929873494, 4.762893665149368),
    (6.0, 1.06): (6.826133334384905, 8.46382053615621),
}

# r < 4 is admitted for the property tests: it is where the integrands are
# least regular
_PROFILES = {
    (r, eps0): SurfaceProfile(r=r, eps0=eps0, allow_low_r=True)
    for r in (2.5, 3.0, 4.0, 6.0)
    for eps0 in (0.5, 1.0)
}


def _assert_matches_oracle(prof, psi):
    """Bouncing zeta' and zeta'' against the mpmath oracle, to 1e-10.

    The oracle differentiates in the gap u, taken from entry_data (graded
    on its own against 80-bit arithmetic); the chain rule through
    c = a cos(psi) turns that into angle derivatives.
    """
    d = zeta_derivs(prof, psi)
    a = prof.boundary_radius
    d1, d2 = orc.dzeta_du(prof.r, prof.eps0, entry_data(prof, psi).u)
    dudpsi = -a * math.sin(psi)
    assert d.zeta_prime == pytest.approx(d1 * dudpsi, rel=1e-10)
    assert d.zeta_second == pytest.approx(d2 * dudpsi**2 - d1 * a * math.cos(psi), rel=1e-10)
    return d


def test_entry_data_classes(prof4):
    psi0 = prof4.asymptotic_angle()
    below = entry_data(prof4, psi0 - 0.01)
    above = entry_data(prof4, psi0 + 0.01)
    assert below.klass is TrajectoryClass.BOUNCING and below.c > 1.0
    assert above.klass is TrajectoryClass.CROSSING and above.c < 1.0
    # c is assembled from the gap, so this identity is exact in floats
    assert below.c == 1.0 + below.u
    assert above.c == 1.0 - above.u


def test_entry_data_rejects_asymptotic(prof4):
    with pytest.raises(AsymptoticEntryError):
        entry_data(prof4, prof4.asymptotic_angle())
    with pytest.raises(ValueError):
        entry_data(prof4, 0.0)
    with pytest.raises(ValueError):
        entry_data(prof4, 0.5 * math.pi)


def test_entry_data_gap_against_longdouble(prof4):
    """The cancellation-free u matches 80-bit arithmetic into deep bands."""
    psi0 = prof4.asymptotic_angle()
    for d in (0.03, 1e-3, 1e-5, 3e-7, 1e-9):
        for sgn in (-1.0, 1.0):
            psi = psi0 + sgn * d
            u_pkg = entry_data(prof4, psi).u
            u_ref = orc.entry_gap_longdouble(4.0, 1.0, psi)
            assert u_pkg == pytest.approx(u_ref, rel=2e-13)


@pytest.mark.xfail(
    strict=True,
    reason="entry_data's residual a*cos(psi0) - 1 is rounded in double "
    "precision, so u carries an absolute error of ~4e-17: 2e-5 relative "
    "at u ~ 2e-12 for r=4, eps0=1",
)
@settings(max_examples=40)
@given(
    key=st.sampled_from(sorted(_PROFILES)),
    log_depth=st.floats(-12.0, -3.0),
    side=st.sampled_from((-1.0, 1.0)),
)
def test_entry_data_gap_against_longdouble_at_depth(key, log_depth, side):
    prof = _PROFILES[key]
    psi = prof.asymptotic_angle() + side * 10.0**log_depth
    u_pkg = entry_data(prof, psi).u
    u_ref = orc.entry_gap_longdouble(prof.r, prof.eps0, psi)
    # 80-bit cosines resolve the gap to ~1e-19 absolute
    assert abs(u_pkg - u_ref) <= 1e-13 * u_ref + 1e-18


def test_entry_data_smooth_in_deep_band(prof4):
    """u(psi) from the product form has no double-rounding staircase."""
    _, psi_mid = band_midpoint(prof4, 2000, "bouncing")
    h = 1e-13
    u = [entry_data(prof4, psi_mid + k * h).u for k in (-2, -1, 0, 1, 2)]
    diffs = np.diff(u)
    assert np.all(diffs != 0.0)  # strictly monotone through the stencil
    # second difference small relative to first: locally linear
    assert abs(diffs[0] - diffs[-1]) < 0.01 * abs(diffs[0])


@pytest.mark.parametrize("r,psi", sorted(TRANSIT_REFS))
def test_zeta_and_upsilon0_frozen(r, psi, prof4, prof6):
    prof = prof4 if r == 4.0 else prof6
    z_ref, t_ref = TRANSIT_REFS[(r, psi)]
    assert zeta(prof, psi) == pytest.approx(z_ref, rel=1e-9)
    assert 2.0 * upsilon0(prof, psi) == pytest.approx(t_ref, rel=1e-9)


def test_transit_identities_against_ode(prof4):
    """zeta = |dtheta| and 2*upsilon0 = transit time, via the flow itself."""
    for n, side in ((12, "bouncing"), (12, "crossing"), (60, "bouncing")):
        _, psi = band_midpoint(prof4, n, side)
        tr = neck_transit(prof4, GeodesicState(-1.0, 0.0, psi))
        assert zeta(prof4, psi) == pytest.approx(abs(tr.dtheta), abs=1e-6)
        assert 2.0 * upsilon0(prof4, psi) == pytest.approx(tr.transit_time, abs=1e-6)


def test_crossing_derivs_match_finite_differences(prof4):
    _, psi = band_midpoint(prof4, 40, "crossing")
    d = zeta_derivs(prof4, psi)
    h = 1e-9  # well inside band 40 (width ~ 3e-5)
    zp_fd = (zeta(prof4, psi + h) - zeta(prof4, psi - h)) / (2.0 * h)
    zs_fd = (zeta(prof4, psi + h) - 2.0 * zeta(prof4, psi) + zeta(prof4, psi - h)) / h**2
    assert d.zeta_prime == pytest.approx(zp_fd, rel=1e-5)
    assert d.zeta_second == pytest.approx(zs_fd, rel=1e-2)  # FD noise limited
    assert d.zeta_prime < 0.0  # zeta decreases with psi past psi0


def test_bouncing_derivs_match_oracle_differences(prof4, prof6):
    """Leibniz-rule derivatives vs 40-digit differences of the oracle."""
    for prof in (prof4, prof6):
        for n in (10, 400, 3200, 10**5, 10**7):
            _, psi = band_midpoint(prof, n, "bouncing")
            d = _assert_matches_oracle(prof, psi)
            assert d.zeta_prime > 0.0  # zeta increases toward psi0 from below


@settings(max_examples=15)
@given(key=st.sampled_from(sorted(_PROFILES)), log_u=st.floats(-14.0, -2.0))
def test_bouncing_derivs_match_oracle_property(key, log_u):
    prof = _PROFILES[key]
    _assert_matches_oracle(prof, math.acos((1.0 + 10.0**log_u) / prof.boundary_radius))


@pytest.mark.parametrize("r", [2.5, 3.0, 4.0, 6.0, 10.0])
def test_crossing_derivs_match_oracle(r):
    """Crossing zeta' and zeta'' vs 40-digit differences of the oracle.

    As in _assert_matches_oracle, the oracle differentiates in the gap u
    (here 1 - c, so du/dpsi = a sin(psi)) taken from entry_data.
    """
    for eps0 in (0.5, 1.0, 2.0):
        prof = SurfaceProfile(r=r, eps0=eps0, allow_low_r=True)
        a = prof.boundary_radius
        for n in (10, 3200, 10**5, 10**7):
            _, psi = band_midpoint(prof, n, "crossing")
            if psi == prof.asymptotic_angle():
                continue  # the band is narrower than an ulp of psi0
            d = zeta_derivs(prof, psi)
            d1, d2 = orc.crossing_dzeta_du(r, eps0, entry_data(prof, psi).u)
            dudpsi = a * math.sin(psi)
            assert d.zeta_prime == pytest.approx(d1 * dudpsi, rel=1e-10)
            assert d.zeta_second == pytest.approx(
                d2 * dudpsi**2 + d1 * a * math.cos(psi), rel=1e-10
            )


def _assert_one_engine(prof, psi):
    """The scalar, bundled and batch forms of a value share every bit."""
    ev = evaluate(prof, psi)
    assert upsilon0(prof, psi) == ev.upsilon0 == upsilon0_batch(prof, [psi])[0]
    assert zeta(prof, psi) == ev.zeta == excursion_integrals(prof, [psi], ("zeta",))[0, 0, 0]


@settings(max_examples=60)
@given(
    key=st.sampled_from([(r, eps0) for r in (3.0, 4.0, 6.0) for eps0 in (0.5, 1.0)]),
    log_depth=st.floats(-14.0, -2.0),
    side=st.sampled_from((-1.0, 1.0)),
)
def test_one_engine_for_scalar_bundled_and_batch_values(key, log_depth, side):
    prof = _PROFILES[key]
    _assert_one_engine(prof, prof.asymptotic_angle() + side * 10.0**log_depth)


def test_one_engine_when_only_one_integrand_is_refined(monkeypatch):
    # at this crossing angle the first-level estimate of zeta is above the
    # ceiling and that of Upsilon0 is not, so only zeta is redone
    prof = SurfaceProfile(r=10.0, eps0=1.5)
    psi = 1.5537534571304508
    first = []
    blocked = transition._blocked

    def spy(side, profile, u, which, n):
        res = blocked(side, profile, u, which, n)
        if n == 32 and u.size:
            first.append(dict(zip(which, res[1, :, 0] / res[0, :, 0])))
        return res

    monkeypatch.setattr(transition, "_blocked", spy)
    _assert_one_engine(prof, psi)
    bundled = first[0]  # evaluate's pass over all four integrands
    assert len(bundled) == 4 and bundled["zeta"] > 1e-9 >= bundled["upsilon0"]


def test_derivs_error_estimates_are_small_at_moderate_depth(prof4):
    for n in (25, 400):
        for side in ("bouncing", "crossing"):
            _, psi = band_midpoint(prof4, n, side)
            d = zeta_derivs(prof4, psi)
            assert d.zeta_prime_err <= 1e-9 * abs(d.zeta_prime)
            assert d.zeta_second is not None
            assert d.zeta_second_err <= 1e-9 * abs(d.zeta_second)


def test_zeta_derivs_raise_above_ceiling(prof4, monkeypatch):
    monkeypatch.setattr(transition, "_ERR_CEILING", 0.0)
    for side in ("bouncing", "crossing"):
        _, psi = band_midpoint(prof4, 25, side)
        with pytest.raises(AccuracyError, match="zeta'") as info:
            zeta_derivs(prof4, psi)
        assert info.value.achieved > 0.0


def test_zeta_derivs_at_exact_band_boundary():
    """An angle whose gap is exactly 1/n^2 has exact derivatives too.

    Such doubles are rare: scanning 1e5 ulps either side of the nominal
    boundary of every dyadic band n = 2..512, at r = 4, 6, 10 and five
    widths, found bouncing entries with a gap of exactly 1/n^2 only at
    r = 4, eps0 = 0.75.  This is the one on the edge of band 8.
    """
    from fractions import Fraction

    from neckflow.bands import band_of_gap

    prof = SurfaceProfile(r=4.0, eps0=0.75)
    psi = 0.6895799048528891
    ent = entry_data(prof, psi)
    assert Fraction(ent.u) == Fraction(1, 64)
    assert ent.klass is TrajectoryClass.BOUNCING
    assert band_of_gap(ent.u, ent.klass.value, n0=1) is None
    _assert_matches_oracle(prof, psi)


def test_bouncing_derivs_one_ulp_below_asymptote(prof4):
    """The deepest bouncing entry there is: finite, exact derivatives."""
    psi = math.nextafter(prof4.asymptotic_angle(), 0.0)
    assert entry_data(prof4, psi).klass is TrajectoryClass.BOUNCING
    d = _assert_matches_oracle(prof4, psi)
    assert math.isfinite(d.zeta_prime) and math.isfinite(d.zeta_second)


def test_apply_f0_matches_flow(prof4):
    for n, side in ((15, "bouncing"), (15, "crossing")):
        _, psi = band_midpoint(prof4, n, side)
        st = GeodesicState(-1.0, 0.3, psi)
        analytic = apply_f0(prof4, st)
        flowed = neck_transit(prof4, st)
        assert analytic.s == flowed.exit.s
        assert analytic.theta == pytest.approx(flowed.exit.theta, abs=2e-6)
        assert analytic.psi == pytest.approx(flowed.exit.psi, abs=1e-7)


def test_apply_f0_domain(prof4):
    # the analytic map covers prograde entries only: psi in (0, pi/2)
    _, psi = band_midpoint(prof4, 15, "crossing")
    assert apply_f0(prof4, GeodesicState(-1.0, 0.0, psi)).theta > 0.0
    with pytest.raises(ValueError):
        apply_f0(prof4, GeodesicState(-1.0, 0.0, math.pi - psi))


def test_df0_structure(prof4):
    _, psi_b = band_midpoint(prof4, 20, "bouncing")
    _, psi_c = band_midpoint(prof4, 20, "crossing")
    m_b = df0(prof4, psi_b)
    m_c = df0(prof4, psi_c)
    assert m_b[0, 0] == 1.0 and m_b[1, 0] == 0.0
    assert m_b[1, 1] == -1.0 and m_c[1, 1] == 1.0
    assert abs(np.linalg.det(m_b)) == 1.0
    assert abs(np.linalg.det(m_c)) == 1.0


def test_growth_factor_formula(prof4):
    _, psi = band_midpoint(prof4, 20, "bouncing")
    zp = zeta_derivs(prof4, psi).zeta_prime
    for slope in (0.0, 1.0, -1.0, 2.5):
        expect = (1.0 + abs(slope + zp)) / (1.0 + abs(slope))
        assert growth_factor(prof4, psi, slope, zeta_prime=zp) == expect
    # without the cached derivative it recomputes to the same thing
    assert growth_factor(prof4, psi, 1.0) == pytest.approx(
        growth_factor(prof4, psi, 1.0, zeta_prime=zp), rel=1e-9
    )


def test_evaluate_bundles_everything(prof4):
    _, psi = band_midpoint(prof4, 30, "crossing")
    ev = evaluate(prof4, psi)
    assert ev.klass is TrajectoryClass.CROSSING
    assert ev.zeta == zeta(prof4, psi)
    assert ev.upsilon0 == upsilon0(prof4, psi)
    d = zeta_derivs(prof4, psi)
    assert ev.zeta_prime == d.zeta_prime
    assert ev.zeta_second == d.zeta_second
    lazy = evaluate(prof4, psi, with_derivs=False)
    assert lazy.zeta_prime is None and lazy.zeta == ev.zeta


def test_tabulate_bands_schema(prof4):
    rows = tabulate_bands(prof4, (12, 24))
    assert len(rows) == 4
    assert {row["side"] for row in rows} == {"bouncing", "crossing"}
    for row in rows:
        assert row["n"] in (12, 24)
        assert row["zeta"] > 0.0 and row["upsilon0"] > 0.0
        assert math.isfinite(row["zeta_prime"])


def test_zeta_prime_scale_tracks_band_cube(prof4):
    """|zeta'| at band midpoints grows ~ n^(3 - 2/r); spot-check doubling."""
    vals = []
    for n in (50, 100, 200):
        _, psi = band_midpoint(prof4, n, "bouncing")
        vals.append(abs(zeta_derivs(prof4, psi).zeta_prime))
    assert vals[1] / vals[0] == pytest.approx(2.0**2.5, rel=0.15)
    assert vals[2] / vals[1] == pytest.approx(2.0**2.5, rel=0.15)
