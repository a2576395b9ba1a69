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

as the scale t decreases to 0.  The limit constants are computed by
adaptive quadrature over a finite window plus a certified binomial tail
series, so their stated accuracy is a bound, not a hope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import binom

_TAIL_X = 50.0
_EPSREL = 1e-12


def limit_constant_c1(r: float, alpha: float) -> float:
    """C1(r, alpha), certified to better than 1e-8 relative error.

    The integral over [0, X] is done adaptively; beyond X the integrand is
    expanded as x^(-alpha r) * sum_j binom(-alpha, j) x^(-rj), each term
    integrating in closed form.  With X = 50 the series terms fall by a
    factor X^(-r) < 1e-6 apiece, so truncation error is negligible next to
    the quadrature tolerance.
    """
    if not alpha * r > 1.0:
        raise ValueError(f"alpha*r = {alpha * r} <= 1: C1 integral diverges")

    def f(x):
        return (x**r + 1.0) ** -alpha

    head, _ = quad(f, 0.0, _TAIL_X, points=[1.0], epsabs=0.0, epsrel=_EPSREL, limit=200)
    tail = 0.0
    for j in range(60):
        p = alpha * r + r * j - 1.0
        # (1 + x^-r)^-alpha = sum_j binom(-alpha, j) x^(-rj); the binomial
        # coefficient alternates sign by itself here
        term = binom(-alpha, j) * _TAIL_X**-p / p
        tail += term
        if abs(term) < 1e-16 * (head + abs(tail)):
            break
    return head + tail


def limit_constant_c2(r: float, q: float, alpha: float, beta: float) -> float:
    """C2(r, q, alpha, beta), certified to better than 1e-8 relative error.

    Near x = 1 the integrand behaves like (x-1)^(beta-alpha); substituting
    x = 1 + w^m with m = 1/(1 + beta - alpha) makes it exactly bounded
    (the Jacobian power cancels the singular one).  The far tail beyond
    X = 50 is the double binomial series in x^(-r), x^(-q).
    """
    if beta == 0.0:
        q = 0.0  # the (x^q-1)^beta factor is identically 1
    if not alpha * r - beta * q > 1.0:
        raise ValueError(
            f"alpha*r - beta*q = {alpha * r - beta * q} <= 1: C2 diverges at infinity"
        )
    if not alpha < 1.0 + beta:
        raise ValueError(
            f"alpha = {alpha} >= 1 + beta = {1.0 + beta}: C2 diverges at x = 1"
        )
    m = 1.0 / (1.0 + beta - alpha)

    def near(w):  # x in (1, 2], w = (x-1)^(1/m)
        wm = w**m
        xr1 = math.expm1(r * math.log1p(wm))
        val = xr1**-alpha * m * w ** (m - 1.0)
        if beta != 0.0:
            val *= math.expm1(q * math.log1p(wm)) ** beta
        return val

    def mid(x):
        val = (x**r - 1.0) ** -alpha
        if beta != 0.0:
            val *= (x**q - 1.0) ** beta
        return val

    head1, _ = quad(near, 0.0, 1.0, epsabs=0.0, epsrel=_EPSREL, limit=200)
    head2, _ = quad(mid, 2.0, _TAIL_X, epsabs=0.0, epsrel=_EPSREL, limit=200)

    tail = 0.0
    e = beta * q - alpha * r
    scale = None
    for j in range(60):
        cj = binom(-alpha, j) * (-1.0) ** j
        for k in range(60):
            ck = binom(beta, k) * (-1.0) ** k
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
    return head1 + head2 + tail


def finite_model_integral(
    kind: str,
    r: float,
    alpha: float,
    b: float,
    eps: float = 1.0,
    q: float = 0.0,
    beta: float = 0.0,
) -> float:
    """The finite-scale integral of the given kind at scale b.

    kind 1a integrates (s^r + b)^(-alpha) over [0, eps]; kinds 2a and 2b
    integrate (s^r - b^r)^(-alpha) (s^q - b^q)^beta over [b, eps] and
    [b, eps + b].  The lower-endpoint singularity of the 2-kinds is removed
    by s = b + w^m exactly as in the limit constants, with the differences
    s^r - b^r = b^r expm1(r log1p(w^m / b)) kept cancellation-free.
    """
    if b <= 0.0:
        raise ValueError("scale b must be positive")
    if kind == "1a":

        def f(s):
            return (s**r + b) ** -alpha

        peak = min(b ** (1.0 / r), 0.5 * eps)
        val, _ = quad(
            f, 0.0, eps, points=[peak], epsabs=0.0, epsrel=_EPSREL, limit=200
        )
        return val
    if kind not in ("2a", "2b"):
        raise ValueError(f"unknown model-integral kind {kind!r}")
    if beta == 0.0:
        q = 0.0
    if not alpha < 1.0 + beta:
        raise ValueError("integral diverges at its lower endpoint")
    m = 1.0 / (1.0 + beta - alpha)
    length = eps - b if kind == "2a" else eps
    if length <= 0.0:
        raise ValueError(f"kind 2a needs b < eps, got b={b} eps={eps}")
    br = b**r
    bq = b**q

    def g(w):
        wm = w**m
        sr_m = br * math.expm1(r * math.log1p(wm / b))
        val = sr_m**-alpha * m * w ** (m - 1.0)
        if beta != 0.0:
            val *= (bq * math.expm1(q * math.log1p(wm / b))) ** beta
        return val

    hi = length ** (1.0 / m)
    val, _ = quad(g, 0.0, hi, epsabs=0.0, epsrel=_EPSREL, limit=200)
    return val


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
) -> np.ndarray:
    """Finite integral / (limit constant * b^exponent) for each scale b.

    The ratios approach 1 as b decreases; how fast depends on eps (the
    neglected part of the limit integral lives beyond eps/b^(1/r)).
    """
    c = limit_constant(kind, r, alpha, q=q, beta=beta)
    e = predicted_exponent(kind, r, alpha, q, beta)
    out = []
    for b in b_values:
        f = finite_model_integral(kind, r, alpha, b, eps=eps, q=q, beta=beta)
        out.append(f / (c * b**e))
    return np.asarray(out)


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
