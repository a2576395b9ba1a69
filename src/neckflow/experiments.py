"""Reproducible numerical experiments: tails, scaling laws, distortion.

Randomness discipline: every Monte-Carlo quantity is a pure function of
(seed, sample index).  Samples are produced in fixed-size chunks, chunk i
drawn from an independent Philox stream keyed by (seed, i), and chunk
results are merged in index order with integer accumulators.  A run is
therefore byte-identical no matter how many workers execute it, which is
what lets the determinism contract extend to parallel execution.

The tail experiment needs the half transit time Upsilon0 for ~1e6 entry
angles, far too many for adaptive quadrature, so a fixed-order
Gauss-Legendre engine evaluates the same regularized integrands as
transition.upsilon0 in vectorized batches; its agreement with the adaptive
path is a test fixture, not an assumption.  The engine builds its rule once
per node count and evaluates rows in fixed blocks, so the memory each
worker thread needs is bounded by block x nodes, not by the chunk size.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bands, transition
from .asymptotics import ScalingFit, fit_exponent
from .bands import DEFAULT_N0
from .errors import AccuracyError
from .surface import SurfaceProfile

_GL_NODES = 320  # one bouncing panel; crossing uses two panels of half this
# Rows per kernel pass.  A block x nodes temporary is then 160 KiB, which
# glibc's allocator keeps and reuses from block to block.  With 256-row
# blocks a 16384-row chunk ran 1.5-2x slower on a 2-core x86_64 host
# (glibc 2.36): the larger freed temporaries went back to the OS and were
# faulted in again.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one experiment run.

    threads only schedules tail_estimate's chunks and never changes a
    result, so equality and as_dict (the form echoed into outputs) omit it.
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
    """Half transit times for a batch of entry angles via fixed-order GL.

    Bouncing rows integrate the w-regularized form on one panel; crossing
    rows split [0, eps0] at the peak width u^(1/r) and use half the nodes
    on each panel.  Angles exactly asymptotic (u = 0) return inf.

    The rule for each node count is built once per process, and rows are
    evaluated _BLOCK_ROWS at a time, so the kernel's temporaries hold
    _BLOCK_ROWS x nodes floats each, whatever the batch size.  Each
    row is computed on its own and summed over the same nodes in the same
    order, so the result does not depend on the blocking.
    """
    psi = np.asarray(psi, dtype=float)
    u, bounce = entry_scales(profile, psi)
    out = np.full(psi.shape, np.inf)
    finite = u > 0.0
    for rows, kernel in (
        (bounce & finite, _bouncing_rows),
        (~bounce & finite, _crossing_rows),
    ):
        ur = u[rows]
        vals = np.empty(ur.shape)
        for i in range(0, ur.size, _BLOCK_ROWS):
            vals[i : i + _BLOCK_ROWS] = kernel(profile, ur[i : i + _BLOCK_ROWS], nodes)
        out[rows] = vals
    return out


@functools.lru_cache(maxsize=8)
def _gl_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre (nodes, weights), shared by every caller."""
    x, wt = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    wt.flags.writeable = False
    return x, wt


def _bouncing_rows(profile: SurfaceProfile, ub: np.ndarray, nodes: int) -> np.ndarray:
    r, eps0 = profile.r, profile.eps0
    x, wt = _gl_rule(nodes)
    y = ub[:, None] ** (1.0 / r)
    q = y**r
    half = 0.5 * np.sqrt(eps0 - y)
    w = half * (x + 1.0)
    s = y + w * w
    sr = s**r
    xi = 1.0 + sr
    xp = r * sr / s
    ximc = q * np.expm1(r * np.log1p(w * w / y))
    xipc = 2.0 + ub[:, None] + sr
    f = xi * np.sqrt(1.0 + xp * xp) * 2.0 * w / np.sqrt(ximc * xipc)
    return (f * wt).sum(axis=1) * half[:, 0]


def _crossing_rows(profile: SurfaceProfile, uc: np.ndarray, nodes: int) -> np.ndarray:
    r, eps0 = profile.r, profile.eps0
    x, wt = _gl_rule(nodes // 2)
    s1 = np.minimum(uc[:, None] ** (1.0 / r), 0.5 * eps0)
    acc = np.zeros(uc.shape)
    for lo, hi in ((0.0, s1), (s1, eps0)):
        half = 0.5 * (hi - lo)
        s = lo + half * (x + 1.0)
        sr = s**r
        xi = 1.0 + sr
        xp = r * sr / s
        ximc = sr + uc[:, None]
        xipc = 2.0 - uc[:, None] + sr
        f = xi * np.sqrt(1.0 + xp * xp) / np.sqrt(ximc * xipc)
        acc += (f * wt).sum(axis=1) * half[:, 0]
    return acc


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


def _tail_chunk(
    profile: SurfaceProfile,
    seed: int,
    index: int,
    size: int,
    window: tuple[float, float],
    thresholds: np.ndarray,
) -> np.ndarray:
    rng = chunk_rng(seed, index)
    psi = rng.uniform(window[0], window[1], size)
    res = 2.0 * upsilon0_batch(profile, psi)
    # inf (an exactly asymptotic entry) survives every threshold; NaN is a
    # kernel failure that must not leave the counts while total keeps it
    bad = int(np.isnan(res).sum())
    if bad:
        raise AccuracyError(
            f"tail chunk {index}: GL kernel returned NaN for {bad} of {size} samples"
        )
    return (res[None, :] > thresholds[:, None]).sum(axis=1).astype(np.int64)


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

    n_chunks = -(-config.samples // config.chunk_size)
    sizes = [
        min(config.chunk_size, config.samples - i * config.chunk_size)
        for i in range(n_chunks)
    ]
    args = [
        (profile, config.seed, i, sizes[i], window, thresholds)
        for i in range(n_chunks)
    ]
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            partials = list(pool.map(lambda a: _tail_chunk(*a), args))
    else:
        partials = [_tail_chunk(*a) for a in args]

    counts = np.zeros(len(thresholds), dtype=np.int64)
    for part in partials:  # fixed merge order; integer sums are exact anyway
        counts += part

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
_FD_FRACTION = 1.0 / 40.0  # keeps the pair-separation rule satisfiable


def distortion_suite(
    config: ExperimentConfig,
    offsets: tuple[float, ...] = _DISTORTION_OFFSETS,
    holder: float = 1.0 / 3.0,
) -> SuiteResult:
    """Bounded-distortion statistic M_n per band, with its trend fit.

    M_n is the largest Hoelder-1/3 quotient of log(1 + |zeta'|) over pairs
    of in-band angles at the configured width offsets.  Pairs closer than
    ten finite-difference steps are excluded so FD noise cannot masquerade
    as distortion (the crossing side is closed-form; the rule is applied
    uniformly anyway).  The trend slope of log M_n vs log n should vanish:
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
            band = bands.HomogeneityBand(int(n), side)
            _, (psi_lo, psi_hi) = bands.band_boundaries(
                profile, int(n), side, n0=config.n0
            )
            width = psi_hi - psi_lo
            step = _FD_FRACTION * width
            pts = []
            for frac in offsets:
                psi = psi_lo + frac * width
                d = transition.zeta_derivs(
                    profile, psi, band=band, step_fraction=_FD_FRACTION
                )
                pts.append((psi, math.log1p(abs(d.zeta_prime))))
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    dpsi = abs(pts[j][0] - pts[i][0])
                    if dpsi < 10.0 * step:
                        continue
                    quot = abs(pts[j][1] - pts[i][1]) / dpsi**holder
                    band_max = max(band_max, quot)
        rows.append({"n": int(n), "m_n": band_max})
    fit = fit_exponent([row["n"] for row in rows], [row["m_n"] for row in rows])
    return SuiteResult(config=config, rows=tuple(rows), fits={"m_n_trend": fit})
