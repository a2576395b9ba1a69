"""Model-integral limits and the shared power-law fitter.

Two integral families control every scaling law in this package:

    C1(r, a)        = int_0^inf (x^r + 1)^(-a) dx,            a r > 1
    C2(r, q, a, b)  = int_1^inf (x^r - 1)^(-a) (x^q - 1)^b dx,
                      a r - b q > 1  and  a < 1 + b

and the finite neck-scale integrals they approximate:

    kind 1a:  int_0^eps (s^r + t)^(-a) ds             ~  C1 * t^(1/r - a)
    kind 2a:  int_t^eps (s^r - t^r)^(-a)(s^q - t^q)^b ds
                                                      ~  C2 * t^(bq - ar + 1)
    kind 2b:  the same integrand over [t, eps + t]

as the scale t decreases to 0.  Every integral runs on transition's
graded-panel engine, one row per scale, with its embedded error estimate:
one above 1e-9 relative after refinement raises AccuracyError, so no
degraded number is returned.  The limit constants are the finite kinds at
t = 1 over a window of X = 50 plus a certified binomial tail series.

residence_law turns two of the constants into the two-term law of the
neck's residence time near the asymptotic angle,

    Upsilon0 = K u^(-beta) + L + o(1),   beta = 1/2 - 1/r,

u = | |c|-1 |, with K_b = C2(r, 0, 1/2, 0)/sqrt(2) on the bouncing side,
K_c = C1(r, 1/2)/sqrt(2) on the crossing side, and one finite part L for
both (Bleistein and Handelsman, Asymptotic Expansions of Integrals, 1975).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import transition
from .surface import SurfaceProfile

_TAIL_X = 50.0
_MODEL = ("model",)  # the engine's name for a model integrand


def _binomials(x: float, n: int) -> list[float]:
    """binom(x, j) for j = 0..n-1, by binom(x, j+1) = binom(x, j) (x-j)/(j+1);
    exactly 0 beyond j = x when x is a nonnegative integer."""
    out = [1.0]
    for j in range(n - 1):
        out.append(out[-1] * (x - j) / (j + 1))
    return out


def limit_constant_c1(r: float, alpha: float) -> float:
    """C1(r, alpha) to the engine's 1e-9 relative ceiling, else AccuracyError.

    The integral over [0, X] is kind 1a at b = 1, eps = X (split at x = 1);
    beyond X the integrand is expanded as x^(-alpha r) * sum_j binom(-alpha,
    j) x^(-rj), each term integrating in closed form.  With X = 50 the
    series terms fall by a factor X^(-r) < 1e-6 apiece, so truncation error
    is negligible next to the quadrature's.
    """
    if not alpha * r > 1.0:
        raise ValueError(f"alpha*r = {alpha * r} <= 1: C1 integral diverges")
    head = finite_model_integral("1a", r, alpha, 1.0, eps=_TAIL_X)
    tail = 0.0
    # (1 + x^-r)^-alpha = sum_j binom(-alpha, j) x^(-rj); the binomial
    # coefficient alternates sign by itself here
    for j, cj in enumerate(_binomials(-alpha, 60)):
        p = alpha * r + r * j - 1.0
        term = cj * _TAIL_X**-p / p
        tail += term
        if abs(term) < 1e-16 * (head + abs(tail)):
            break
    return head + tail


def limit_constant_c2(r: float, q: float, alpha: float, beta: float) -> float:
    """C2(r, q, alpha, beta) to the engine's 1e-9 relative ceiling, else
    AccuracyError.

    The integral over [1, X] is kind 2a at b = 1, eps = X: the substitution
    x = 1 + w^m, m = 1/(1 + beta - alpha), makes the (x-1)^(beta-alpha)
    endpoint behaviour exactly bounded, and the w-panels split at x = 2.
    The far tail beyond X = 50 is the double binomial series in x^(-r),
    x^(-q).
    """
    if beta == 0.0:
        q = 0.0  # the (x^q-1)^beta factor is identically 1
    if not alpha * r - beta * q > 1.0:
        raise ValueError(
            f"alpha*r - beta*q = {alpha * r - beta * q} <= 1: C2 diverges at infinity"
        )
    # finite_model_integral raises if alpha >= 1 + beta (divergence at x = 1)
    head = finite_model_integral("2a", r, alpha, 1.0, eps=_TAIL_X, q=q, beta=beta)
    tail = 0.0
    e = beta * q - alpha * r
    scale = None
    ck_all = [ck * (-1.0) ** k for k, ck in enumerate(_binomials(beta, 60))]
    for j, cj in enumerate(_binomials(-alpha, 60)):
        cj *= (-1.0) ** j
        for k, ck in enumerate(ck_all):
            if ck == 0.0:
                break
            p = -(e - r * j - q * k) - 1.0
            term = cj * ck * _TAIL_X**-p / p
            tail += term
            if scale is None:
                scale = abs(term)
            if abs(term) < 1e-16 * scale:
                break
        if abs(cj) * _TAIL_X ** -(alpha * r + r * j - beta * q - 1.0) < 1e-16 * scale:
            break
    return head + tail


@functools.lru_cache(maxsize=64)
def residence_law(profile: SurfaceProfile) -> tuple[float, float, float, float]:
    """(K_b, K_c, L, beta) of the two-term residence law at the profile.

    L = int_0^eps0 [xi sqrt(1+xi'^2)/sqrt(xi^2-1) - (2 s^r)^(-1/2)] ds
        - eps0^(1-r/2) / ((r/2-1) sqrt(2)),

    the integral being one row of transition's regular "offset" integrand
    and the closed form its leading term's integral beyond eps0.  Each
    integral is certified to the engine's 1e-9 relative ceiling, else
    AccuracyError; L's error is that of its integral.  Constants of the
    surface: cached per (hashable) SurfaceProfile.
    """
    r, eps0 = profile.r, profile.eps0
    root2 = math.sqrt(2.0)
    k_b = limit_constant_c2(r, 0.0, 0.5, 0.0) / root2
    k_c = limit_constant_c1(r, 0.5) / root2
    head = transition._integrate(
        transition._residence_offset, profile, np.array([eps0]), ("offset",), transition._GL_NODES
    )[0, 0, 0]
    offset = float(head) - eps0 ** (1.0 - 0.5 * r) / ((0.5 * r - 1.0) * root2)
    return k_b, k_c, offset, 0.5 - 1.0 / r


def finite_model_integral(
    kind: str,
    r: float,
    alpha: float,
    b,
    eps: float = 1.0,
    q: float = 0.0,
    beta: float = 0.0,
) -> float | np.ndarray:
    """The finite-scale integral of the given kind at scale b.

    kind 1a integrates (s^r + b)^(-alpha) over [0, eps], split at the peak
    width b^(1/r); kinds 2a and 2b integrate (s^r - b^r)^(-alpha) (s^q -
    b^q)^beta over [b, eps] and [b, eps + b].  The lower-endpoint
    singularity of the 2-kinds is removed by s = b + w^m exactly as in the
    limit constants, split at w = b^(1/m), with the differences s^r - b^r =
    b^r expm1(r log1p(w^m / b)) kept cancellation-free.

    b is a float or an array of scales, each one row of transition's
    graded-panel engine, so a value does not depend on the other scales; a
    float b returns a float.  AccuracyError if an estimate stays above 1e-9
    relative.
    """
    bs = np.asarray(b, dtype=float)
    if not np.all(bs > 0.0):
        raise ValueError("scale b must be positive")
    if kind == "1a":

        def rows(_, b):  # the engine's row maker, b a column of scales
            def f(s, _):
                return {"model": (s**r + b) ** -alpha}

            return f, np.minimum(b ** (1.0 / r), 0.5 * eps), eps

    elif kind in ("2a", "2b"):
        if beta == 0.0:
            q = 0.0
        if not alpha < 1.0 + beta:
            raise ValueError(
                f"alpha = {alpha} >= 1 + beta = {1.0 + beta}: diverges at the lower endpoint"
            )
        if kind == "2a" and not np.all(bs < eps):
            raise ValueError(f"kind 2a needs b < eps, got b={b} eps={eps}")
        m = 1.0 / (1.0 + beta - alpha)

        def rows(_, b):
            br, bq = b**r, b**q

            def f(w, _):
                wm = w**m
                val = (br * np.expm1(r * np.log1p(wm / b))) ** -alpha * m * w ** (m - 1.0)
                if beta != 0.0:
                    val *= (bq * np.expm1(q * np.log1p(wm / b))) ** beta
                return {"model": val}

            top = (eps - b if kind == "2a" else eps) ** (1.0 / m)
            return f, np.minimum(b ** (1.0 / m), 0.5 * top), top

    else:
        raise ValueError(f"unknown model-integral kind {kind!r}")
    vals = transition._integrate(rows, None, bs.ravel(), _MODEL, transition._GL_NODES)[0, 0]
    return float(vals[0]) if bs.ndim == 0 else vals.reshape(bs.shape)


def limit_constant(
    kind: str, r: float, alpha: float, q: float = 0.0, beta: float = 0.0
) -> float:
    """The limit constant of a model-integral kind: C1 for 1a, else C2."""
    if kind == "1a":
        return limit_constant_c1(r, alpha)
    return limit_constant_c2(r, q, alpha, beta)


def predicted_exponent(kind: str, r: float, alpha: float, q: float, beta: float) -> float:
    if kind == "1a":
        return 1.0 / r - alpha
    return beta * q - alpha * r + 1.0


def empirical_ratio(
    kind: str,
    r: float,
    alpha: float,
    b_values,
    eps: float = 1.0,
    q: float = 0.0,
    beta: float = 0.0,
) -> tuple[float, np.ndarray]:
    """(limit constant, finite integral / (constant * b^exponent) for each
    scale b).

    The ratios approach 1 as b decreases; how fast depends on eps (the
    neglected part of the limit integral lives beyond eps/b^(1/r)).  All
    scales are rows of one engine call.
    """
    c = limit_constant(kind, r, alpha, q=q, beta=beta)
    e = predicted_exponent(kind, r, alpha, q, beta)
    b = np.asarray(b_values, dtype=float)
    return c, finite_model_integral(kind, r, alpha, b, eps=eps, q=q, beta=beta) / (c * b**e)


#: the (kind, alpha, beta, q-as-function-of-r) triples exercised by the
#: tail and derivative estimates; q entries are exponent offsets from r
MODEL_TRIPLES = (
    ("1a", 0.5, 0.0, 0.0),
    ("1a", 1.5, 0.0, 0.0),
    ("1a", 2.5, 0.0, 0.0),
    ("2a", 1.5, 1.0, -1.0),
    ("2b", 1.5, 1.0, -2.0),
    ("2b", 2.5, 2.0, -1.0),
)


def model_triples(r: float):
    """MODEL_TRIPLES at profile exponent r, as (kind, alpha, beta, q).

    q = r + q_off for the 2-kinds; kind 1a has no q factor and gets 0.
    """
    for kind, alpha, beta, q_off in MODEL_TRIPLES:
        yield kind, alpha, beta, (0.0 if kind == "1a" else r + q_off)


#: the model table's finite-integral window: at eps = 2 the truncation
#: defect of kind 1a at alpha = 1/2, b = 1e-6 is ~0.85% (1.7% at eps = 1)
_TABLE_EPS = 2.0
_TABLE_COLUMNS = ("kind", "alpha", "beta", "q", "b", "limit_constant", "ratio")


def model_table(r: float) -> list[dict]:
    """The model-integral convergence table at profile exponent r.

    For each of model_triples(r), five rows at scales b log-spaced from
    1e-2 down to the triple's floor (1e-6 for kind 1a, 1e-4 for the
    2-kinds), each with the limit constant and the empirical ratio at
    eps = _TABLE_EPS.  Each constant is integrated once, and a triple's
    last row is its floor.
    """
    rows = []
    for kind, alpha, beta, q in model_triples(r):
        b_values = np.geomspace(1e-2, 1e-6 if kind == "1a" else 1e-4, 5)
        c, ratios = empirical_ratio(kind, r, alpha, b_values, eps=_TABLE_EPS, q=q, beta=beta)
        for b, ratio in zip(b_values.tolist(), ratios.tolist()):
            rows.append(dict(zip(_TABLE_COLUMNS, (kind, alpha, beta, q, b, c, ratio))))
    return rows


@dataclass(frozen=True)
class ScalingFit:
    """OLS power-law fit of value against index on log-log axes."""

    exponent: float
    exponent_stderr: float
    log_constant: float
    r_squared: float
    index_range: tuple[float, float]
    residual_max: float

    @property
    def constant(self) -> float:
        return math.exp(self.log_constant)


def fit_exponent(indices, values) -> ScalingFit:
    """Least-squares slope of log(value) vs log(index).

    Needs at least 5 strictly positive values at distinct indices; the
    returned residual_max is the largest absolute log-residual, which is
    what bounds the "up to a constant factor" window of the fit.
    """
    n = np.asarray(indices, dtype=float)
    v = np.asarray(values, dtype=float)
    if n.size < 5:
        raise ValueError(f"need at least 5 points for a fit, got {n.size}")
    if np.unique(n).size != n.size:
        raise ValueError("fit indices must be distinct")
    if not np.all(v > 0.0):
        raise ValueError("fit values must be strictly positive")
    x = np.log(n)
    y = np.log(v)
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return ScalingFit(
        exponent=float(slope),
        exponent_stderr=float(np.sqrt(cov[0, 0])),
        log_constant=float(intercept),
        r_squared=r2,
        index_range=(float(n.min()), float(n.max())),
        residual_max=float(np.max(np.abs(resid))),
    )
