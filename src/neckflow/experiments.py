"""Reproducible numerical experiments: tails, scaling laws, distortion.

Randomness discipline: every Monte-Carlo quantity is a pure function of
(seed, sample index).  Samples are produced in fixed-size chunks, chunk i
drawn from an independent Philox stream keyed by (seed, i), and chunk
results are merged in index order with integer accumulators, so a run is
byte-identical however it is scheduled.

The tail experiment asks, for ~1e6 entry angles and a handful of
thresholds T, how many have a residence time 2*Upsilon0 above T.  The
residence time grows as the entry angle nears the asymptotic angle psi0 from
either side, so each threshold's survivors are the samples within some
distance of psi0 on each side.  Those distances are found once per run by
bisecting a batched Gauss-Legendre engine that evaluates the same
regularized integrands as transition.upsilon0; each root is widened into a
bracket whose edges are certified against the engine's error estimate, and
only the rare samples inside a bracket are integrated.

The engine gives each row two panels split at its own scale, the outer one
graded in a log variable, so the accuracy holds uniformly up to the
asymptotic angle.  An embedded lower-order rule gives every row an error
estimate: a row above the adaptive path's 1e-9 relative ceiling is redone
at twice the nodes, and one still above it raises AccuracyError, so the
engine never returns a degraded number.  Rows run in fixed blocks on
buffers allocated once per call, so memory does not grow with the batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bands, transition
from .asymptotics import ScalingFit, fit_exponent
from .bands import DEFAULT_N0
from .errors import AccuracyError
from .surface import SurfaceProfile
from .transition import _ERR_CEILING

_GL_NODES = 64  # first level: a 32-node answer rule on each of two panels
# Rows per first-level block: each of the _BUFFERS arrays holds 176 x 112
# floats (both panels, answer and estimate nodes), 154 KiB, allocated once
# per call.  Larger blocks mean fewer numpy calls per row, smaller ones less
# memory; the buffers are separate arrays because as one 770 KiB array they
# raised glibc's trim threshold to twice that, and the benchmark's peak RSS
# by 0.7 MB.
_BLOCK_ROWS = 176
_BUFFERS = 5  # the node array and four integrand scratch arrays


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one experiment run.

    threads is accepted so that existing config files and calls keep
    working, and is ignored: tail_estimate runs on one thread.  Equality
    and as_dict (the form echoed into outputs) omit it.
    """

    r: float = 4.0
    eps0: float = 1.0
    seed: int = 0
    samples: int = 1_000_000
    n0: int = DEFAULT_N0
    n_min: int = 25
    n_max: int = 3200
    chunk_size: int = 16384
    threads: int = field(default=1, compare=False)

    def profile(self) -> SurfaceProfile:
        return SurfaceProfile(r=self.r, eps0=self.eps0)

    def as_dict(self) -> dict:
        return {key: val for key, val in asdict(self).items() if key != "threads"}


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The Philox stream for one chunk; identical on any worker."""
    return np.random.Generator(np.random.Philox(key=[seed, chunk_index]))


def entry_window(profile: SurfaceProfile, n0: int = DEFAULT_N0) -> tuple[float, float]:
    """Entry-angle interval covering all bands deeper than n0, both sides."""
    if n0 < 1:
        raise ValueError(f"band floor n0 must be at least 1, got {n0}")
    a = profile.boundary_radius
    u_max = 1.0 / float(n0) ** 2
    if 1.0 + u_max > a:
        raise ValueError(f"window n0={n0} reaches |c| = {1 + u_max} > xi(eps0) = {a}")
    return math.acos((1.0 + u_max) / a), math.acos((1.0 - u_max) / a)


def entry_scales(profile: SurfaceProfile, psi: np.ndarray):
    """(u, bouncing mask) for an array of entry angles, cancellation-free.

    Vector twin of transition.entry_data: u comes from the product form of
    cos(psi) - cos(psi0) plus the one-ulp inversion residual, so deep-band
    values keep full relative accuracy.
    """
    a = profile.boundary_radius
    psi0 = profile.asymptotic_angle()
    resid = a * math.cos(psi0) - 1.0
    d = psi - psi0
    prod = 2.0 * a * np.sin(0.5 * (psi + psi0)) * np.abs(np.sin(0.5 * d))
    cm1 = np.where(d < 0.0, prod, -prod) + resid
    return np.abs(cm1), cm1 > 0.0


def upsilon0_batch(
    profile: SurfaceProfile, psi: np.ndarray, nodes: int = _GL_NODES
) -> np.ndarray:
    """Half transit times for a batch of entry angles, certified to 1e-9.

    Each row is integrated on two graded panels split at its own scale
    (see _graded_panels), nodes // 2 Gauss-Legendre nodes per panel; an
    embedded rule of 3/4 as many nodes gives the error estimate.  A row
    whose estimate exceeds the 1e-9 relative ceiling is redone at twice the
    nodes, and if it still exceeds it AccuracyError is raised with the
    worst relative estimate.  Angles exactly asymptotic (u = 0) return inf.

    Rows are evaluated in fixed blocks on buffers allocated once per call,
    so memory does not grow with the batch.  Each row is computed on its
    own and refined on its own estimate, so a row's value depends only on
    its entry angle, never on the blocking or on the rest of the batch.
    """
    return _certified_rows(profile, psi, nodes)[0]


def _certified_rows(profile: SurfaceProfile, psi, nodes: int = _GL_NODES):
    """(upsilon0_batch values, their relative error estimates); an exactly
    asymptotic row has the estimate 0."""
    psi = np.asarray(psi, dtype=float)
    u, bounce = entry_scales(profile, psi)
    out = np.full(psi.shape, np.inf)
    est = np.zeros(psi.shape)
    finite = u > 0.0
    for rows, integrand in (
        (bounce & finite, _bouncing_rows),
        (~bounce & finite, _crossing_rows),
    ):
        ur = u[rows]
        vals, rel = _blocked(integrand, profile, ur, nodes // 2)
        redo = ~(rel <= _ERR_CEILING)  # a NaN estimate is redone too
        if redo.any():
            vals[redo], rel[redo] = _blocked(integrand, profile, ur[redo], nodes)
            worst = float(np.max(rel[redo]))
            if not worst <= _ERR_CEILING:
                raise AccuracyError(
                    f"GL tail kernel: relative error estimate {worst:.3e} at "
                    f"{nodes} nodes per panel, above the 1e-9 ceiling",
                    achieved=worst,
                )
        out[rows] = vals
        est[rows] = rel
    return out, est


def _blocked(integrand, profile: SurfaceProfile, u: np.ndarray, n: int):
    """(value, relative error estimate) per row at n nodes per panel.

    Blocks hold _BLOCK_ROWS rows at the first level and proportionally
    fewer at higher node counts, so every level fits the same buffers.
    """
    width = 2 * _embedded_rule(n)[0].size
    step = max(1, _BLOCK_ROWS * _GL_NODES // (2 * n))
    work = [np.empty(min(step, u.size) * width) for _ in range(_BUFFERS)]
    vals = np.empty(u.shape)
    rel = np.empty(u.shape)
    for i in range(0, u.size, step):
        ub = u[i : i + step]
        bufs = [buf[: ub.size * width].reshape(ub.size, width) for buf in work]
        f, a, b = integrand(profile, ub[:, None])
        vals[i : i + step], rel[i : i + step] = _graded_panels(f, a, b, n, bufs)
    return vals, rel


@functools.lru_cache(maxsize=8)
def _embedded_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of an n-node Gauss-Legendre rule and its
    3n/4-node estimate rule, shared by every caller.

    The nodes on [0, 1] of the two rules are concatenated; the weights are
    repeated once more for the second panel, so one multiply weights both.
    """
    parts = [np.polynomial.legendre.leggauss(k) for k in (n, 3 * n // 4)]
    x = 0.5 * (np.concatenate([p[0] for p in parts]) + 1.0)
    wt = np.tile(0.5 * np.concatenate([p[1] for p in parts]), 2)
    x.flags.writeable = False
    wt.flags.writeable = False
    return x, wt


def _graded_panels(f, a: np.ndarray, b, n: int, bufs):
    """(value, relative error estimate) of int_0^b f per row, 0 < a < b.

    The inner panel [0, a] is plain Gauss-Legendre.  The outer panel [a, b]
    is Gauss-Legendre in t for z = a*exp(t): beyond the row's own scale a
    the integrand decays like a power of z, which is smooth in t however
    small a is.  f is evaluated in one pass on the nodes of both panels and
    both rules, in place on bufs; each panel's estimate is the difference
    of its n-node and 3n/4-node values.
    """
    x, wt = _embedded_rule(n)
    m = x.size
    z = bufs[0]
    span = np.log(b / a)
    np.multiply(a, x, out=z[:, :m])
    np.multiply(span, x, out=z[:, m:])
    np.exp(z[:, m:], out=z[:, m:])
    z[:, m:] *= a
    g = f(z, *bufs[1:])
    g[:, m:] *= z[:, m:]  # dz = z dt on the outer panel
    g *= wt
    sums = np.add.reduceat(g, [0, n, m, m + n], axis=1)
    inner = sums[:, :2] * a
    outer = sums[:, 2:] * span
    val = inner[:, 0] + outer[:, 0]
    err = np.abs(inner[:, 0] - inner[:, 1]) + np.abs(outer[:, 0] - outer[:, 1])
    return val, err / val


# The integrands below are evaluated in place on preallocated buffers, one
# ufunc at a time in the order of the formula in their comment, so a block
# allocates nothing its own size.  Fresh temporaries cost more than the
# arithmetic: the allocator hands freed blocks back to the OS and faults
# them in again.


def _bouncing_rows(profile: SurfaceProfile, u: np.ndarray):
    """(f, a, b) for bouncing rows: the integrand in w, s = y + w^2, split at
    sqrt(y) on [0, sqrt(eps0 - y)]; u is a column of gaps."""
    r, eps0 = profile.r, profile.eps0
    y = u ** (1.0 / r)
    q = y**r  # equals u to rounding; keeps xi-c internally consistent
    two_plus_u = 2.0 + u

    def f(w, t0, t1, t2, t3):
        # xi sqrt(1 + xp^2) 2w / sqrt((xi-c)(xi+c)) with s = y + w^2,
        # sr = s^r, xi = 1 + sr, xp = r sr / s, xi+c = 2 + u + sr and
        # xi-c = q expm1(r log1p(w^2 / y))
        np.multiply(w, w, out=t0)
        s = np.add(y, t0, out=t1)
        sr = np.power(s, r, out=t2)
        g = np.multiply(r, sr, out=t3)
        g /= s
        g *= g
        g += 1.0
        np.sqrt(g, out=g)
        ximc = np.divide(t0, y, out=t0)
        np.log1p(ximc, out=ximc)
        np.multiply(r, ximc, out=ximc)
        np.expm1(ximc, out=ximc)
        ximc *= q
        xipc = np.add(two_plus_u, sr, out=t1)
        ximc *= xipc
        root = np.sqrt(ximc, out=ximc)
        val = np.add(1.0, sr, out=t2)
        val *= g
        val *= 2.0
        val *= w
        val /= root
        return val

    top = np.sqrt(eps0 - y)
    return f, np.minimum(np.sqrt(y), 0.5 * top), top


def _crossing_rows(profile: SurfaceProfile, u: np.ndarray):
    """(f, a, b) for crossing rows: the integrand in s, split at the peak
    width u^(1/r) on [0, eps0]; u is a column of gaps."""
    r, eps0 = profile.r, profile.eps0
    two_minus_u = 2.0 - u

    def f(s, t0, t1, t2, t3):
        # xi sqrt(1 + xp^2) / sqrt((xi-c)(xi+c)) with sr = s^r,
        # xi = 1 + sr, xp = r sr / s, xi-c = sr + u, xi+c = 2 - u + sr
        sr = np.power(s, r, out=t0)
        g = np.multiply(r, sr, out=t1)
        g /= s
        g *= g
        g += 1.0
        np.sqrt(g, out=g)
        ximc = np.add(sr, u, out=t2)
        xipc = np.add(two_minus_u, sr, out=t3)
        ximc *= xipc
        root = np.sqrt(ximc, out=ximc)
        val = np.add(1.0, sr, out=t0)
        val *= g
        val /= root
        return val

    return f, np.minimum(u ** (1.0 / r), 0.5 * eps0), eps0


def default_thresholds(
    profile: SurfaceProfile,
    n0: int = DEFAULT_N0,
    n_lo: int = 50,
    n_hi: int = 1200,
    count: int = 9,
) -> np.ndarray:
    """Residence-time thresholds placed at crossing-band midpoints.

    Thresholds are genuine times (2 * Upsilon0 at the midpoint of band n for
    n log-spaced in [n_lo, n_hi]), so the survival curve is probed where the
    band structure says the tail lives.
    """
    ns = np.unique(np.geomspace(n_lo, n_hi, count).astype(int))
    thr = []
    for n in ns:
        _, psi_mid = bands.band_midpoint(profile, int(n), bands.CROSSING, n0=n0)
        thr.append(2.0 * transition.upsilon0(profile, psi_mid))
    return np.asarray(thr)


@dataclass(frozen=True)
class TailEstimate:
    """Survival-curve estimate of the residence-time tail exponent."""

    config: ExperimentConfig
    thresholds: np.ndarray
    counts: np.ndarray  # survivors per threshold, merged over chunks
    total: int
    fit: ScalingFit
    exponent: float  # = -fit.exponent, the survival decay power
    dropped: tuple[float, ...]  # thresholds excluded by the >=20 survivor rule
    min_survivors: int

    def survival(self) -> np.ndarray:
        return self.counts / float(self.total)


#: Relative half-width, in |psi - psi0|, of the bracket around each
#: threshold's root; only samples inside a bracket run the kernel.
_BRACKET_DELTA = 1e-6
#: Closest approach to psi0 the root search probes, in radians.  Samples
#: nearer than this always run the kernel, so the brackets rely on the
#: residence time being monotone only from here outwards.
_ROOT_FLOOR = 1e-14
#: Halvings of a log|psi - psi0| bracket at most ~33 wide: they leave it
#: below 3.1e-8, well inside _BRACKET_DELTA.
_BISECT_STEPS = 30


@dataclass(frozen=True)
class _Brackets:
    """Where each threshold's survivors lie, as entry angles.

    Row 0 holds the bouncing edges (below psi0), row 1 the crossing ones.
    A sample psi survives threshold k if inner[0, k] < psi < inner[1, k],
    and does not if psi <= outer[0, k] or psi >= outer[1, k].  A sample in
    between, or inside the open core around psi0, runs the kernel.
    """

    thresholds: np.ndarray  # (K,)
    inner: np.ndarray  # (2, K)
    outer: np.ndarray  # (2, K)
    core: tuple[float, float]


def _survivor_brackets(
    profile: SurfaceProfile, window: tuple[float, float], thresholds: np.ndarray
) -> _Brackets:
    """Certified survivor brackets of every threshold, on both sides of psi0.

    2*Upsilon0 grows as psi nears psi0 from either side (proved on the
    crossing side, property-tested on the bouncing side down to
    _ROOT_FLOOR), so the survivors of threshold T are the samples with
    |psi - psi0| < d*(T, side).  All 2K roots are bisected together in
    log|psi - psi0|, one upsilon0_batch call per step, and each is widened
    into the edges d*(1 -+ _BRACKET_DELTA).  At every edge the kernel must
    lie on its side of T by more than twice max(its error estimate, the
    1e-9 ceiling), or AccuracyError is raised.

    A side whose window edge already exceeds T survives whole.  A root
    below _ROOT_FLOOR gets the inner edge psi0 (no certain survivors), so
    every sample on that side closer than the outer edge runs the kernel.
    """
    psi0 = profile.asymptotic_angle()
    side = np.array([[-1.0], [1.0]])
    edge = np.array([[window[0]], [window[1]]])
    thr = np.broadcast_to(thresholds, (2, thresholds.size))
    at_floor = 2.0 * upsilon0_batch(profile, psi0 + side[:, 0] * _ROOT_FLOOR)
    deep = at_floor[:, None] > thr  # the root lies beyond the floor
    whole = 2.0 * upsilon0_batch(profile, edge[:, 0])[:, None] > thr
    lo = np.full(thr.shape, math.log(_ROOT_FLOOR))  # above T if deep
    hi = np.broadcast_to(np.log(side * (edge - psi0)), thr.shape)  # not above T
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        vals = upsilon0_batch(profile, (psi0 + side * np.exp(mid)).ravel())
        above = 2.0 * vals.reshape(thr.shape) > thr
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    root = np.exp(0.5 * (lo + hi))
    inner = np.where(deep, psi0 + side * root * (1.0 - _BRACKET_DELTA), psi0)
    inner = np.where(whole, side * np.inf, inner)
    outer = np.where(whole, side * np.inf, psi0 + side * root * (1.0 + _BRACKET_DELTA))
    _certify(profile, np.where(whole, edge, inner), deep | whole, thr, 1.0)
    # an outer edge past the window edge has no sample beyond it
    _certify(profile, outer, (edge[0] <= outer) & (outer <= edge[1]), thr, -1.0)
    return _Brackets(
        thresholds=thresholds,
        inner=inner,
        outer=outer,
        core=(psi0 - _ROOT_FLOOR, psi0 + _ROOT_FLOOR),
    )


def _certify(profile, psi, mask, thr, sign: float) -> None:
    """Raise AccuracyError unless 2*Upsilon0 at each psi[mask] lies beyond
    its threshold in the direction of sign by more than twice max(its
    relative error estimate, the 1e-9 ceiling)."""
    vals, rel = _certified_rows(profile, psi[mask])
    t = thr[mask]
    clear = sign * (2.0 * vals - t) > 2.0 * np.maximum(rel, _ERR_CEILING) * t
    if not clear.all():
        worst = float(np.min(np.abs(2.0 * vals / t - 1.0)[~clear]))
        raise AccuracyError(
            f"tail brackets: at {int((~clear).sum())} bracket edge(s) the kernel "
            f"is not clear of its threshold (closest relative gap {worst:.3e})",
            achieved=worst,
        )


def _tail_chunk(
    profile: SurfaceProfile,
    seed: int,
    index: int,
    size: int,
    window: tuple[float, float],
    brackets: _Brackets,
) -> np.ndarray:
    """Survivor counts per threshold among the samples of chunk index."""
    psi = chunk_rng(seed, index).uniform(window[0], window[1], size)
    inner, outer, (core_lo, core_hi) = brackets.inner, brackets.outer, brackets.core
    # a sample beyond every outer edge survives no threshold
    psi = psi[(psi > outer[0].min(initial=np.inf)) & (psi < outer[1].max(initial=-np.inf))]
    inside = (psi > inner[0][:, None]) & (psi < inner[1][:, None])
    core = (psi > core_lo) & (psi < core_hi)
    run = ((psi > outer[0][:, None]) & (psi < outer[1][:, None]) & ~inside) | core
    counts = (inside & ~core).sum(axis=1, dtype=np.int64)
    rows = run.any(axis=0)
    if rows.any():
        res = 2.0 * upsilon0_batch(profile, psi[rows])
        # inf (an exactly asymptotic entry) survives every threshold; NaN is
        # a kernel failure that must not leave the counts while total keeps it
        bad = int(np.isnan(res).sum())
        if bad:
            raise AccuracyError(
                f"tail chunk {index}: GL kernel returned NaN for {bad} of "
                f"{res.size} bracket samples"
            )
        counts += (run[:, rows] & (res > brackets.thresholds[:, None])).sum(axis=1)
    return counts


def tail_estimate(config: ExperimentConfig, thresholds=None) -> TailEstimate:
    """Monte-Carlo survival exponent of the neck residence time.

    Entry angles are uniform on the band window of config.n0; each sample's
    residence time is 2*Upsilon0(psi).  Counts above each threshold are
    fitted as log(survival) vs log(threshold); thresholds left with fewer
    than 20 survivors are dropped (tail truncation) and reported.
    """
    if config.samples < 10_000:
        raise ValueError("tail estimation below 1e4 samples is meaningless")
    profile = config.profile()
    window = entry_window(profile, config.n0)
    if thresholds is None:
        n_hi = min(1200, 4 * config.n0 * int(math.sqrt(config.samples) / 40 + 1))
        thresholds = default_thresholds(profile, config.n0, n_hi=max(n_hi, 200))
    thresholds = np.asarray(thresholds, dtype=float)

    brackets = _survivor_brackets(profile, window, thresholds)
    counts = np.zeros(len(thresholds), dtype=np.int64)
    for i in range(-(-config.samples // config.chunk_size)):
        size = min(config.chunk_size, config.samples - i * config.chunk_size)
        # fixed merge order; integer sums are exact anyway
        counts += _tail_chunk(profile, config.seed, i, size, window, brackets)

    keep = counts >= 20
    dropped = tuple(float(t) for t in thresholds[~keep])
    if keep.sum() < 5:
        raise ValueError(
            f"only {int(keep.sum())} thresholds retain >= 20 survivors; "
            "increase samples or lower the threshold range"
        )
    fit = fit_exponent(thresholds[keep], counts[keep] / float(config.samples))
    return TailEstimate(
        config=config,
        thresholds=thresholds,
        counts=counts,
        total=config.samples,
        fit=fit,
        exponent=-fit.exponent,
        dropped=dropped,
        min_survivors=int(counts[keep].min()),
    )


@dataclass(frozen=True)
class SuiteResult:
    """Band-midpoint tables plus the power-law fits made from them."""

    config: ExperimentConfig
    rows: tuple[dict, ...]
    fits: dict[str, ScalingFit]


def scaling_suite(config: ExperimentConfig, n_points: int = 12) -> SuiteResult:
    """Fit the band-index scaling of Upsilon0, zeta', zeta'', and growth.

    Evaluates the transition map at the midpoints of n_points log-spaced
    bands on both sides and fits each quantity against n.  Expected
    exponents (bands of index n): (r-2)/r for Upsilon0, 3 - 2/r for |zeta'|
    and for the growth factor of any fixed slope, 5 - 2/r for the crossing
    zeta''.
    """
    profile = config.profile()
    ns = np.unique(np.geomspace(config.n_min, config.n_max, n_points).astype(int))
    rows = []
    for n in ns:
        for side in bands.SIDES:
            _, psi_mid = bands.band_midpoint(profile, int(n), side, n0=config.n0)
            ev = transition.evaluate(profile, psi_mid)
            row = {
                "n": int(n),
                "side": side,
                "psi_mid": psi_mid,
                "c": ev.c,
                "upsilon0": ev.upsilon0,
                "zeta": ev.zeta,
                "zeta_prime": ev.zeta_prime,
                "zeta_second": ev.zeta_second,
            }
            for slope in (0.0, 1.0, -1.0):
                row[f"growth_{_slope_tag(slope)}"] = transition.growth_factor(
                    profile, psi_mid, slope, zeta_prime=ev.zeta_prime
                )
            rows.append(row)

    fits: dict[str, ScalingFit] = {}
    for side in bands.SIDES:
        sub = [row for row in rows if row["side"] == side]
        n_arr = [row["n"] for row in sub]
        fits[f"upsilon0_{side}"] = fit_exponent(n_arr, [row["upsilon0"] for row in sub])
        fits[f"zeta_prime_{side}"] = fit_exponent(
            n_arr, [abs(row["zeta_prime"]) for row in sub]
        )
        for slope in (0.0, 1.0, -1.0):
            key = f"growth_{_slope_tag(slope)}_{side}"
            fits[key] = fit_exponent(
                n_arr, [row[f"growth_{_slope_tag(slope)}"] for row in sub]
            )
    cross = [row for row in rows if row["side"] == bands.CROSSING]
    fits["zeta_second_crossing"] = fit_exponent(
        [row["n"] for row in cross], [abs(row["zeta_second"]) for row in cross]
    )
    # pooled view: per-index geometric mean of the two sides, so the fit
    # still sees one value per distinct band index
    pooled = {}
    for row in rows:
        pooled.setdefault(row["n"], []).append(row["upsilon0"])
    fits["upsilon0_pooled"] = fit_exponent(
        sorted(pooled), [math.exp(np.mean(np.log(pooled[n]))) for n in sorted(pooled)]
    )
    return SuiteResult(config=config, rows=tuple(rows), fits=fits)


def _slope_tag(slope: float) -> str:
    if slope == 0.0:
        return "0"
    return "p1" if slope > 0.0 else "m1"


_DISTORTION_OFFSETS = (0.15, 0.3, 0.45, 0.6, 0.75, 0.85)


def distortion_suite(
    config: ExperimentConfig,
    offsets: tuple[float, ...] = _DISTORTION_OFFSETS,
    holder: float = 1.0 / 3.0,
) -> SuiteResult:
    """Bounded-distortion statistic M_n per band, with its trend fit.

    M_n is the largest Hoelder-1/3 quotient of log(1 + |zeta'|) over all
    pairs of in-band angles at the configured width offsets.  zeta' is the
    exact derivative integral on both sides, certified to 1e-9 relative, so
    every pair counts.  The trend slope of log M_n vs log n should vanish:
    bands are exactly the scale on which log-derivative variation is O(1).
    """
    profile = config.profile()
    ns = np.unique(
        np.geomspace(config.n_min, config.n_max, 10).astype(int)
    )
    rows = []
    for n in ns:
        band_max = 0.0
        for side in bands.SIDES:
            _, (psi_lo, psi_hi) = bands.band_boundaries(
                profile, int(n), side, n0=config.n0
            )
            width = psi_hi - psi_lo
            pts = []
            for frac in offsets:
                psi = psi_lo + frac * width
                d = transition.zeta_derivs(profile, psi)
                pts.append((psi, math.log1p(abs(d.zeta_prime))))
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    dpsi = abs(pts[j][0] - pts[i][0])
                    quot = abs(pts[j][1] - pts[i][1]) / dpsi**holder
                    band_max = max(band_max, quot)
        rows.append({"n": int(n), "m_n": band_max})
    fit = fit_exponent([row["n"] for row in rows], [row["m_n"] for row in rows])
    return SuiteResult(config=config, rows=tuple(rows), fits={"m_n_trend": fit})
