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
bisecting upsilon0_batch, the batch form of transition's graded-panel
engine; each root is widened into a bracket whose edges are certified
against the engine's error estimate, and only the rare samples inside a
bracket are integrated.

The scaling and distortion suites evaluate the transition map at band
midpoints and in-band offsets through transition.evaluate and
transition.zeta_derivs, the one-row case of the same engine.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bands, transition
from .asymptotics import ScalingFit, fit_exponent
from .bands import DEFAULT_N0
from .errors import AccuracyError
from .surface import SurfaceProfile
from .transition import _GL_NODES


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one experiment run.

    threads is accepted so that existing config files and calls keep
    working, and is ignored: tail_estimate runs on one thread.  Equality
    and as_dict (the form echoed into outputs) omit it.  It stays a field
    because perfbench/workloads.py constructs configs with it and
    perfbench/tracing.py reads it back.
    """

    r: float = 4.0
    eps0: float = 1.0
    seed: int = 0
    samples: int = 1_000_000
    n0: int = DEFAULT_N0
    n_min: int = 25
    n_max: int = 3200
    threads: int = field(default=1, compare=False)

    def profile(self) -> SurfaceProfile:
        return SurfaceProfile(r=self.r, eps0=self.eps0)

    def as_dict(self) -> dict:
        return {key: val for key, val in asdict(self).items() if key != "threads"}


_CHUNK_SIZE = 16384  # samples per chunk; chunk i draws from stream (seed, i)


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The Philox stream for one chunk; identical on any worker."""
    return np.random.Generator(np.random.Philox(key=[seed, chunk_index]))


def entry_window(profile: SurfaceProfile, n0: int = DEFAULT_N0) -> tuple[float, float]:
    """Entry-angle interval covering all bands deeper than n0, both sides.

    Its edges are the outer ones of the bands n0, so bands.check_band on
    the bouncing one settles whether it exists.
    """
    c_hi = bands.check_band(profile, n0, bands.BOUNCING, n0)[1]
    a = profile.boundary_radius
    return math.acos(c_hi / a), math.acos(bands.c_interval(n0, bands.CROSSING)[0] / a)


def upsilon0_batch(
    profile: SurfaceProfile, psi: np.ndarray, nodes: int = _GL_NODES
) -> np.ndarray:
    """Half transit times for a batch of entry angles, certified to 1e-9.

    The batch form of transition.upsilon0, from the same engine (see
    transition.excursion_integrals), with nodes // 2 Gauss-Legendre nodes
    per panel at the first level: each row's value depends only on its
    entry angle.  Angles exactly asymptotic (u = 0) return inf.  nodes
    has one value in use, but perfbench/tracing.py reads its default by
    name.
    """
    return transition.excursion_integrals(profile, psi, nodes=nodes)[0, 0]


_THRESHOLD_N_LO, _THRESHOLD_COUNT = 50, 9


def default_thresholds(
    profile: SurfaceProfile, n0: int = DEFAULT_N0, n_hi: int = 1200
) -> np.ndarray:
    """Residence-time thresholds placed at crossing-band midpoints.

    Thresholds are genuine times (2 * Upsilon0 at the midpoint of band n for
    _THRESHOLD_COUNT values of n log-spaced from max(_THRESHOLD_N_LO, n0) to
    n_hi), so the survival curve is probed where the band structure says the
    tail lives.
    """
    n_lo = max(_THRESHOLD_N_LO, n0)
    ns = np.unique(np.geomspace(n_lo, n_hi, _THRESHOLD_COUNT).astype(int))
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
    vals, err = transition.excursion_integrals(profile, psi[mask])[:, 0]
    t = thr[mask]
    ceiling = transition._ERR_CEILING
    clear = sign * (2.0 * vals - t) > 2.0 * np.maximum(err / vals, ceiling) * t
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
    for i in range(-(-config.samples // _CHUNK_SIZE)):
        size = min(_CHUNK_SIZE, config.samples - i * _CHUNK_SIZE)
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


_DISTORTION_OFFSETS = (0.15, 0.3, 0.45, 0.6, 0.75, 0.85)  # of the band width
_HOLDER = 1.0 / 3.0


def distortion_suite(config: ExperimentConfig) -> SuiteResult:
    """Bounded-distortion statistic M_n per band, with its trend fit.

    M_n is the largest Hoelder-1/3 quotient of log(1 + |zeta'|) over all
    pairs of in-band angles at the _DISTORTION_OFFSETS of the band width.
    zeta' is the exact derivative integral on both sides, certified to 1e-9
    relative, so every pair counts.  The trend slope of log M_n vs log n
    should vanish: bands are exactly the scale on which log-derivative
    variation is O(1).
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
            for frac in _DISTORTION_OFFSETS:
                psi = psi_lo + frac * width
                d = transition.zeta_derivs(profile, psi)
                pts.append((psi, math.log1p(abs(d.zeta_prime))))
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    dpsi = abs(pts[j][0] - pts[i][0])
                    quot = abs(pts[j][1] - pts[i][1]) / dpsi**_HOLDER
                    band_max = max(band_max, quot)
        rows.append({"n": int(n), "m_n": band_max})
    fit = fit_exponent([row["n"] for row in rows], [row["m_n"] for row in rows])
    return SuiteResult(config=config, rows=tuple(rows), fits={"m_n_trend": fit})
