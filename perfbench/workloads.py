"""The benchmark's three workloads, each loading a different layer.

  tails    experiments: Monte-Carlo tail estimates on the batched
           Gauss-Legendre kernel and its thread pool.
  bandmap  transition + bands: transition-map rows by scalar adaptive
           quadrature, band by band.
  orbits   dynamics + linearization: DOP853 neck transits, then one
           Riccati horocycle scan.

A workload builds every input from the seed when it is constructed (that is
part of set-up), runs one untimed warm-up op, and then offers

  op(i)       one timed operation on input i; returns (work items, output)
  check(i, o) a problem with that output, or None
  ref_job()   a fixed-size reference computation, timed on its own
              (ref_repeats times in a timed run)

and says how its work is timed: cpu_clock = True times process CPU time
(all threads), otherwise wall time is timed and scaled by the host speed.
  finish()    problems found over the whole run

Inputs are indexed by i and repeat after CAP ops, so op i is the same work
in every run with the same seed, whether the run is timed or traced.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

# package functions are called through their modules, so that the traced
# run's rebinding of module attributes sees every call the benchmark makes
from neckflow import (
    AccuracyError,
    GeodesicState,
    IntegrationStallError,
    SurfaceProfile,
    asymptotics,
    bands,
    dynamics,
    experiments,
    linearization,
    outputs,
    transition,
)
from neckflow.experiments import ExperimentConfig

#: what an op may raise and still count as one failed op of a finished run
OP_ERRORS = (AccuracyError, IntegrationStallError, ValueError)


def render(tables: dict, fits: dict | None = None) -> str:
    """Output tables in the package's deterministic JSON form (no config:
    the echoed `threads` key differs between serial and threaded runs)."""
    return outputs.json_text(outputs.json_payload({}, tables, fits or {}))


def _within(problems: list, label: str, value: float, target: float, tol: float) -> None:
    if not abs(value - target) <= tol:
        problems.append(f"{label} = {value:.6g}, outside {target:g} +- {tol:g}")


class Tails:
    """Tail estimates at r=4 and r=6 on the thread pool, plus a serial run.

    Each op is one tail_estimate of SAMPLES entry angles at each r, with the
    thresholds criterion 5 uses (built once, in set-up).  A tail exponent
    fitted from one run's samples is too noisy to hold criterion 5's +-0.2
    on every seed, so each op's survivor counts are checked instead against
    the exact survival fractions, which come from root-finding the adaptive
    quadrature transition.upsilon0 on both sides of the asymptotic angle; the
    exponent fitted to those exact fractions must hold criterion 5's +-0.2.
    """

    name = "tails"
    SAMPLES = 1 << 16
    RS = (4.0, 6.0)
    TARGETS = {4.0: 4.0, 6.0: 3.0}
    N0 = bands.DEFAULT_N0
    #: tail_estimate's threshold range for criterion 5's 1e6 samples:
    #: 4 * n0 * int(sqrt(1e6) / 40 + 1)
    N_HI = 1040
    SIGMAS = 5.0  # binomial z-score an op's counts may reach
    CAP = 256
    # vectorized kernel time on this host drifts with CPU steal and memory
    # contention that a Python calibration loop does not see; process CPU
    # time per op stays within a few percent across runs where wall time
    # and scaled wall time spread by 10-25%
    cpu_clock = True
    min_ops = 2
    ref_repeats = 5
    rate = 0.5  # ops per second, sizes the traced run

    def __init__(self, seed: int, threads: int):
        self.threads = threads
        self.profiles = {r: SurfaceProfile(r=r, eps0=1.0) for r in self.RS}
        self.thresholds = {
            r: experiments.default_thresholds(p, self.N0, n_hi=self.N_HI)
            for r, p in self.profiles.items()
        }
        self.seeds = np.random.default_rng(seed).integers(0, 2**32, size=self.CAP + 1)
        self.exact: dict[float, np.ndarray] = {}
        self.first_output = self.serial_output = None

    def config(self, i: int, r: float, threads: int) -> ExperimentConfig:
        return ExperimentConfig(
            r=r,
            seed=int(self.seeds[1 + i % self.CAP]),
            samples=self.SAMPLES,
            n0=self.N0,
            threads=threads,
        )

    def warm_up(self) -> None:
        # one chunk per thread with the thresholds tail_estimate picks itself
        experiments.tail_estimate(
            ExperimentConfig(r=4.0, seed=int(self.seeds[0]), samples=16384 * self.threads,
                             threads=self.threads)
        )

    def _estimate(self, i: int, r: float, threads: int):
        cfg = self.config(i, r, threads)
        return experiments.tail_estimate(cfg, thresholds=self.thresholds[r])

    def op(self, i: int):
        """One estimate at each r, on the thread pool."""
        ests = [self._estimate(i, r, self.threads) for r in self.RS]
        return len(self.RS) * self.SAMPLES, ests

    def digest(self, ests) -> str:
        return render(
            {f"r{est.config.r:g}": {"counts": est.counts, "thresholds": est.thresholds,
                                   "dropped": est.dropped} for est in ests},
            {f"survival_r{est.config.r:g}": est.fit for est in ests},
        )

    def check(self, i: int, ests) -> str | None:
        if i == 0:
            self.first_output = self.digest(ests[:1])
        for est in ests:
            r = est.config.r
            p = self.exact_survival(r)
            n = est.total
            z = (est.counts - n * p) / np.sqrt(n * p * (1.0 - p))
            worst = int(np.argmax(np.abs(z)))
            if not abs(z[worst]) <= self.SIGMAS:
                return (
                    f"r={r:g} op {i}: {int(est.counts[worst])} survivors at threshold "
                    f"{worst}, expected {n * p[worst]:.1f} (z = {z[worst]:.2f})"
                )
        return None

    def ref_job(self) -> None:
        """The r=4 estimate of op 0 on one thread: the serial baseline."""
        self.serial_output = self.digest([self._estimate(0, self.RS[0], threads=1)])

    def finish(self) -> list[str]:
        problems = []
        if self.serial_output != self.first_output:
            problems.append(f"threads=1 and threads={self.threads} tables differ")
        for r in self.RS:
            fit = asymptotics.fit_exponent(self.thresholds[r], self.exact_survival(r))
            _within(problems, f"exact survival exponent (r={r:g})", -fit.exponent,
                    self.TARGETS[r], 0.2)
        return problems

    def exact_survival(self, r: float) -> np.ndarray:
        """P(2*Upsilon0(psi) > T) for psi uniform on the entry window.

        Residence time grows toward the asymptotic angle on both sides, so
        the survivors at a threshold fill one interval of entry angles, whose
        ends are found by root-finding the adaptive quadrature.
        """
        if r not in self.exact:
            profile = self.profiles[r]
            lo, hi = experiments.entry_window(profile, self.N0)
            # every threshold is reached well inside band 16 * N_HI
            deep = 16 * self.N_HI
            _, psi_b_deep = bands.band_midpoint(profile, deep, bands.BOUNCING, self.N0)
            _, psi_c_deep = bands.band_midpoint(profile, deep, bands.CROSSING, self.N0)
            fracs = []
            for thr in self.thresholds[r]:
                def excess(psi):
                    return 2.0 * transition.upsilon0(profile, psi) - thr

                psi_b = brentq(excess, lo, psi_b_deep, xtol=1e-15, rtol=1e-15)
                psi_c = brentq(excess, psi_c_deep, hi, xtol=1e-15, rtol=1e-15)
                fracs.append((psi_c - psi_b) / (hi - lo))
            self.exact[r] = np.asarray(fracs)
        return self.exact[r]


class Bandmap:
    """Transition-map rows at band midpoints, n from 10 to N_TOP, r=4 and 6.

    Each op is one tabulate_bands row at a seeded (r, n, side).  Crossing
    rows carry closed-form derivative integrals, so their whole err_est is
    quadrature error and must stay within the package's 1e-9 ceiling.
    Bouncing rows carry a finite-difference zeta' whose error estimate the
    package does not certify to 1e-9; their zeta and Upsilon0 are certified
    by the package itself (it raises above the ceiling), and their zeta' is
    checked through the scaling exponents of criteria 3 and 4, on the run's
    rows and in the reference job.
    """

    name = "bandmap"
    RS = (4.0, 6.0)
    N_MIN = 10
    N_TOP = 3200
    ERR_CEILING = 1e-9
    CAP = 1 << 16
    cpu_clock = False
    min_ops = 1
    ref_repeats = 25  # the suites take ~0.1 s, so many short samples
    rate = 900.0

    def __init__(self, seed: int, threads: int):
        rng = np.random.default_rng(seed)
        self.profiles = {r: SurfaceProfile(r=r, eps0=1.0) for r in self.RS}
        self.r_idx = rng.integers(0, len(self.RS), size=self.CAP)
        self.n = rng.integers(self.N_MIN, self.N_TOP + 1, size=self.CAP)
        self.side = rng.integers(0, 2, size=self.CAP)
        # (r, side) -> {n: |zeta'|}: plain numbers, so the garbage collector
        # does not rescan a growing pile of row dicts inside timed ops
        self.zeta_prime: dict[tuple[float, str], dict[int, float]] = {}

    def _input(self, i: int):
        k = i % self.CAP
        return self.RS[self.r_idx[k]], int(self.n[k]), bands.SIDES[self.side[k]]

    def warm_up(self) -> None:
        transition.tabulate_bands(self.profiles[4.0], [self.N_MIN])

    def op(self, i: int):
        r, n, side = self._input(i)
        (row,) = transition.tabulate_bands(self.profiles[r], [n], sides=(side,))
        return 1, (r, row)

    def digest(self, out) -> str:
        r, row = out
        return render({"r": r, "row": row})

    def check(self, i: int, out) -> str | None:
        r, row = out
        values = [row[k] for k in ("zeta", "upsilon0", "zeta_prime", "err_est")]
        if not all(math.isfinite(v) for v in values) or row["zeta"] <= 0.0:
            return f"r={r:g} band {row['n']} {row['side']}: non-finite or nonpositive row"
        if row["side"] == bands.CROSSING and not row["err_est"] <= self.ERR_CEILING:
            return (
                f"r={r:g} band {row['n']} crossing: err_est {row['err_est']:.3e} "
                f"above {self.ERR_CEILING:g}"
            )
        self.zeta_prime.setdefault((r, row["side"]), {})[row["n"]] = abs(row["zeta_prime"])
        return None

    def ref_job(self) -> None:
        """Criteria 3, 4 and 10 at their own sizes: two scaling suites and
        one distortion suite."""
        self.suites = {
            r: experiments.scaling_suite(ExperimentConfig(r=r, n_min=25, n_max=3200))
            for r in self.RS
        }
        self.distortion = experiments.distortion_suite(
            ExperimentConfig(r=4.0, n_min=25, n_max=1600)
        )

    def finish(self) -> list[str]:
        problems = []
        for r, suite in self.suites.items():
            f = {k: v.exponent for k, v in suite.fits.items()}
            zp = 3.0 - 2.0 / r
            _within(problems, f"upsilon0 exponent (r={r:g})", f["upsilon0_pooled"],
                    (r - 2.0) / r, 0.05)
            for side in bands.SIDES:
                _within(problems, f"|zeta'| exponent ({side}, r={r:g})",
                        f[f"zeta_prime_{side}"], zp, 0.1)
                for tag in ("0", "p1", "m1"):
                    _within(problems, f"growth exponent ({tag}, {side}, r={r:g})",
                            f[f"growth_{tag}_{side}"], zp, 0.1)
            _within(problems, f"zeta'' exponent (crossing, r={r:g})",
                    f["zeta_second_crossing"], 5.0 - 2.0 / r, 0.15)
        _within(problems, "distortion trend slope",
                self.distortion.fits["m_n_trend"].exponent, 0.0, 0.1)
        # the same |zeta'| exponent tolerance on the run's own rows, n >= 25
        for (r, side), by_n in sorted(self.zeta_prime.items()):
            ns = sorted(n for n in by_n if n >= 25)
            if len(ns) >= 5:
                fit = asymptotics.fit_exponent(ns, [by_n[n] for n in ns])
                _within(problems, f"|zeta'| exponent over run rows ({side}, r={r:g})",
                        fit.exponent, 3.0 - 2.0 / r, 0.1)
        return problems


class Orbits:
    """Random neck transits checked against quadrature, then one scan.

    Entries are drawn as in criterion 2: band n uniform in 10..100, either
    side, at a uniform position in the middle 90% of the band.  Each op is
    one neck_transit, whose time and angle advance must match 2*Upsilon0
    and zeta to 1e-6.  The reference job is the default horocycle scan at
    r=4, whose constants must come out finite and positive.
    """

    name = "orbits"
    N_LO, N_HI = 10, 100
    TOL = 1e-6
    CAP = 2048
    cpu_clock = False
    min_ops = 1
    ref_repeats = 5
    rate = 45.0

    def __init__(self, seed: int, threads: int):
        rng = np.random.default_rng(seed)
        self.profile = SurfaceProfile(r=4.0, eps0=1.0)
        ns = rng.integers(self.N_LO, self.N_HI + 1, size=self.CAP)
        sides = rng.integers(0, 2, size=self.CAP)
        fracs = 0.05 + 0.9 * rng.random(self.CAP)
        self.psi = []
        for n, side, frac in zip(ns, sides, fracs):
            _, (lo, hi) = bands.band_boundaries(self.profile, int(n), bands.SIDES[side])
            self.psi.append(lo + frac * (hi - lo))
        self.entry_s = -self.profile.eps0

    def warm_up(self) -> None:
        self.op(self.CAP - 1)

    def op(self, i: int):
        psi = self.psi[i % self.CAP]
        return 1, dynamics.neck_transit(self.profile, GeodesicState(self.entry_s, 0.0, psi))

    def digest(self, tr) -> str:
        return render(
            {"psi": tr.entry.psi, "time": tr.transit_time, "dtheta": tr.dtheta,
             "class": tr.klass}
        )

    def check(self, i: int, tr) -> str | None:
        psi = tr.entry.psi
        dt = abs(2.0 * transition.upsilon0(self.profile, psi) - tr.transit_time)
        dz = abs(transition.zeta(self.profile, psi) - abs(tr.dtheta))
        if not (dt <= self.TOL and dz <= self.TOL):
            return (
                f"transit at psi={psi!r}: |2*Upsilon0 - T| = {dt:.3e}, "
                f"|zeta - |dtheta|| = {dz:.3e}"
            )
        return None

    def ref_job(self) -> None:
        self.scan = linearization.horocycle_scan(self.profile)

    def finish(self) -> list[str]:
        problems = []
        for name in ("c3", "c4", "c7"):
            value = getattr(self.scan, name)
            if not (math.isfinite(value) and value > 0.0):
                problems.append(f"horocycle constant {name} = {value!r} is not finite and > 0")
        return problems


WORKLOADS = {w.name: w for w in (Tails, Bandmap, Orbits)}
