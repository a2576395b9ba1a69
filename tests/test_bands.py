import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckflow import bands
from neckflow.bands import (
    BOUNCING,
    CROSSING,
    HomogeneityBand,
    accumulation_distance,
    band_boundaries,
    band_midpoint,
    band_of,
    band_of_gap,
    band_width,
    c_interval,
    width_asymptote,
)
from neckflow.surface import SurfaceProfile


def test_band_of_interior_points():
    assert band_of(1.0 + 1.0 / 10.5**2) == HomogeneityBand(10, BOUNCING)
    assert band_of(1.0 - 1.0 / 10.5**2) == HomogeneityBand(10, CROSSING)
    assert band_of(-1.0 - 1.0 / 10.5**2) == HomogeneityBand(10, BOUNCING)
    assert band_of(1.0 + 1.0 / 200.5**2) == HomogeneityBand(200, BOUNCING)


@pytest.mark.parametrize("n", [10**5, 10**6, 10**7])
@pytest.mark.parametrize("side", [BOUNCING, CROSSING])
def test_band_of_gap_deep_interior(n, side):
    # 19 interior gaps per band; in c = 1 +- u they would keep only
    # 16 - 2 log10(n) digits, too few from n ~ 1e5 on
    for k in range(1, 20):
        u = 1.0 / (n + k / 20.0) ** 2
        assert n**2 * Fraction(u) < 1 < (n + 1) ** 2 * Fraction(u)
        assert band_of_gap(u, side) == HomogeneityBand(n, side)


def test_band_of_boundary_and_shallow():
    # 1/256 is a dyadic rational, so c = 1 + 1/16^2 is an exact boundary
    assert band_of(1.0 + 1.0 / 256.0, n0=10) is None
    inside = math.nextafter(1.0 + 1.0 / 256.0, 1.0)  # one ulp into band 16
    assert band_of(inside, n0=10) == HomogeneityBand(16, BOUNCING)
    assert band_of(1.0) is None
    assert band_of(1.5) is None          # n = 1 < n0
    assert band_of(1.0 + 1.0 / 10.5**2, n0=11) is None
    assert band_of(1.0 + 1.0 / 10.5**2, n0=10) is not None


def test_c_interval_nesting():
    prev_lo, prev_hi = c_interval(10, BOUNCING)
    for n in range(11, 40):
        lo, hi = c_interval(n, BOUNCING)
        assert lo < hi
        assert hi == prev_lo  # bands tile the constant axis
        prev_lo, prev_hi = lo, hi
    lo, hi = c_interval(10, CROSSING)
    assert lo == 1.0 - 1.0 / 100.0 and hi == 1.0 - 1.0 / 121.0


def test_band_of_roundtrips_c_interval():
    for n in (10, 17, 99, 1234):
        for side in bands.SIDES:
            lo, hi = c_interval(n, side)
            mid = 0.5 * (lo + hi)
            assert band_of(mid) == HomogeneityBand(n, side)


def test_band_boundaries_ordering(prof4):
    (c_lo, c_hi), (psi_lo, psi_hi) = band_boundaries(prof4, 25, BOUNCING)
    assert c_lo < c_hi
    assert psi_lo < psi_hi
    psi0 = prof4.asymptotic_angle()
    assert psi_hi < psi0  # bouncing bands sit below the asymptotic angle
    _, (q_lo, q_hi) = band_boundaries(prof4, 25, CROSSING)
    assert q_lo > psi0
    # deeper bands nest toward psi0 from both sides
    _, (p2_lo, p2_hi) = band_boundaries(prof4, 26, BOUNCING)
    assert p2_lo == psi_hi


def test_band_boundaries_rejects_out_of_window(prof4, prof_narrow):
    with pytest.raises(ValueError):
        band_boundaries(prof4, 5, BOUNCING)  # below n0
    # eps0 = 0.5 has a = 1.0625; band 10 needs c_hi = 1.01 < a, fine,
    # but with n0 waived a band needing c > a must be rejected
    with pytest.raises(ValueError):
        band_boundaries(prof_narrow, 3, BOUNCING, n0=1)


def test_band_midpoint_honours_n0(prof4):
    for side in bands.SIDES:
        with pytest.raises(ValueError, match="below the configured floor n0=10"):
            band_midpoint(prof4, 5, side)
        assert band_midpoint(prof4, 5, side, n0=5) == band_midpoint(prof4, 5, side, n0=1)


@settings(max_examples=60)
@given(r=st.floats(4.0, 12.0), eps0=st.floats(0.3, 0.95))
def test_out_of_window_message_names_a_reached_band(r, eps0):
    prof = SurfaceProfile(r=r, eps0=eps0)
    with pytest.raises(ValueError, match="outside the entry window") as info:
        band_midpoint(prof, 1, BOUNCING, n0=1)
    n = int(re.search(r"reaches is n=(\d+)", str(info.value)).group(1))
    band_midpoint(prof, n, BOUNCING, n0=1)  # the named band passes the check
    with pytest.raises(ValueError):
        band_midpoint(prof, n - 1, BOUNCING, n0=1)


def test_narrow_neck_names_band_32():
    # a = 1 + 2^-10, so band 32's outer edge 1 + 1/32^2 is exactly a
    with pytest.raises(ValueError, match=r"reaches is n=32$"):
        band_boundaries(SurfaceProfile(r=10.0, eps0=0.5), 25, BOUNCING)
    # 1 + 1e-20 rounds to 1: no band is reached at all
    with pytest.raises(ValueError, match="no band lies in the entry window"):
        band_midpoint(SurfaceProfile(r=4.0, eps0=1e-5), 10, BOUNCING)


def test_width_asymptote_ratio(prof4):
    # frozen: the finite-n width approaches the n^-3 law from below
    assert band_width(prof4, 100, CROSSING) / width_asymptote(prof4, 100) == pytest.approx(
        0.985165016417363, rel=1e-12
    )
    assert band_width(prof4, 1000, CROSSING) / width_asymptote(prof4, 1000) == pytest.approx(
        0.9985016439412322, rel=1e-12
    )
    for n in (100, 1000):
        for side in bands.SIDES:
            ratio = band_width(prof4, n, side) / width_asymptote(prof4, n)
            assert 0.95 <= ratio <= 1.05


def test_accumulation_quadratic(prof4):
    # distance to psi0 ~ const * n^-2: the ratio at n and 2n differs by ~4
    d1 = accumulation_distance(prof4, 100, BOUNCING)
    d2 = accumulation_distance(prof4, 200, BOUNCING)
    assert d1 / d2 == pytest.approx(4.0, rel=0.05)
    assert accumulation_distance(prof4, 100, CROSSING) > 0.0


def test_band_midpoint_lies_inside(prof4):
    for n in (10, 40, 320):
        for side in bands.SIDES:
            c_mid, psi_mid = band_midpoint(prof4, n, side)
            lo, hi = c_interval(n, side)
            assert lo < c_mid < hi
            (c_lo, c_hi), (psi_lo, psi_hi) = band_boundaries(prof4, n, side)
            assert psi_lo < psi_mid < psi_hi
            assert band_of(c_mid) == HomogeneityBand(n, side)


def test_homogeneity_band_validation():
    with pytest.raises(ValueError):
        HomogeneityBand(10, "sideways")
    with pytest.raises(ValueError):
        HomogeneityBand(0, BOUNCING)


def _exact_band(c):
    """Band index of c from exact rational arithmetic; None on a boundary."""
    u = abs(abs(Fraction(c)) - 1)
    q = u.denominator // u.numerator  # floor(1/u); 1/u is an integer iff exact
    m = math.isqrt(q)
    if u.denominator % u.numerator == 0 and m * m == q:
        return None
    return m


@settings(max_examples=60)
@given(
    k=st.integers(4, 23),
    side=st.sampled_from(bands.SIDES),
    ulps=st.integers(-4, 4),
)
def test_band_of_roundtrips_exact_boundary(k, side, ulps):
    # for n = 2^k the band edge ||c|-1| = 1/n^2 is dyadic, so c_interval
    # returns it exactly: bands up to n ~ 8.4e6 have representable edges
    n = 2**k
    lo, hi = c_interval(n, side)
    edge = hi if side == BOUNCING else lo  # the shallow edge, gap 1/n^2
    assert abs(Fraction(edge) - 1) == Fraction(1, n * n)
    assert c_interval(n - 1, side)[0 if side == BOUNCING else 1] == edge
    assert band_of(edge) is None
    # a few ulps either way: deeper bands (toward c = 1) for ulps < 0
    c = edge
    for _ in range(abs(ulps)):
        c = math.nextafter(c, 1.0 if ulps < 0 else 1.0 + 2.0 * (edge - 1.0))
    band = band_of(c)
    assert (None if band is None else band.n) == _exact_band(c)
    if ulps:
        assert band.side == side and (band.n >= n) == (ulps < 0)


def _gap_band(u):
    """Band index of the gap u by comparing it with 1/m^2 in rationals;
    None on a boundary."""
    exact = Fraction(u)
    guess = round(1.0 / math.sqrt(u))
    for m in range(max(1, guess - 2), guess + 3):
        if exact == Fraction(1, m * m):
            return None
        if Fraction(1, (m + 1) ** 2) < exact < Fraction(1, m * m):
            return m
    raise AssertionError(f"no band near {guess} for u = {u!r}")


@settings(max_examples=300)
@given(
    log_n=st.floats(1.0, 7.0),
    ulps=st.integers(-3, 3),
    side=st.sampled_from(bands.SIDES),
)
def test_band_of_gap_exact_near_edges(log_n, ulps, side):
    # within a few ulps of 1/float(n)^2 the two roundings of 1/sqrt(u) can
    # land on the wrong side of n; the band must still be the exact one
    n = int(10.0**log_n)
    u = 1.0 / float(n) ** 2
    for _ in range(abs(ulps)):
        u = math.nextafter(u, math.inf if ulps > 0 else 0.0)
    band = band_of_gap(u, side, n0=1)
    assert (None if band is None else band.n) == _gap_band(u)
    assert band is None or band.side == side
