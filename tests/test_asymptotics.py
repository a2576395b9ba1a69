import math

import numpy as np
import pytest

import _oracles as orc
from neckflow import acceptance, asymptotics, transition
from neckflow.asymptotics import (
    MODEL_TRIPLES,
    empirical_ratio,
    finite_model_integral,
    fit_exponent,
    limit_constant,
    limit_constant_c1,
    limit_constant_c2,
    model_table,
    model_triples,
    predicted_exponent,
    residence_law,
)
from neckflow.errors import AccuracyError
from neckflow.surface import SurfaceProfile

# frozen independently-verified limit constants for the beta >= 1 triples;
# the beta = 0 cases are covered exactly by the gamma closed forms below
C2_FROZEN = {
    (4.0, 1.5, 1.0, 3.0): 0.6555143885730299,
    (4.0, 1.5, 1.0, 2.0): 0.3559793298891319,
    (4.0, 2.5, 2.0, 3.0): 0.3964944611355759,
    (6.0, 1.5, 1.0, 5.0): 0.4673940351084847,
    (6.0, 1.5, 1.0, 4.0): 0.3236657262623853,
    (6.0, 2.5, 2.0, 5.0): 0.3356123040708201,
}


def test_c1_against_gamma_closed_form():
    for r in (4.0, 6.0):
        for alpha in (0.5, 1.5, 2.5):
            assert limit_constant_c1(r, alpha) == pytest.approx(
                orc.c1_closed_form(r, alpha), rel=1e-12
            )


def test_c1_precondition():
    with pytest.raises(ValueError):
        limit_constant_c1(4.0, 0.25)  # alpha * r = 1: diverges


def test_c2_beta0_against_gamma_closed_form():
    for r in (4.0, 6.0):
        assert limit_constant_c2(r, 0.0, 0.5, 0.0) == pytest.approx(
            orc.c2_closed_form_beta0(r, 0.5), rel=1e-12
        )


def test_c2_frozen_values():
    for (r, alpha, beta, q), want in C2_FROZEN.items():
        assert limit_constant_c2(r, q, alpha, beta) == pytest.approx(want, rel=1e-9)


def test_c2_preconditions():
    with pytest.raises(ValueError):
        limit_constant_c2(4.0, 3.0, 1.0, 1.0)  # alpha r - beta q = 1
    with pytest.raises(ValueError):
        limit_constant_c2(4.0, 1.0, 2.5, 1.0)  # alpha >= 1 + beta


def test_kind_1a_frozen_ratio():
    """Frozen: the eps = 1 truncation costs 1.7% at alpha = 1/2, b = 1e-6.

    The neglected tail of C1 runs from eps b^(-1/4) ~ 32 upward and decays
    like x^(-2); this ratio is what the 1%-level acceptance checks must
    budget for (they evaluate at eps = 2 where the defect is ~0.85%).
    """
    b = 1e-6
    val = finite_model_integral("1a", 4.0, 0.5, b, eps=1.0)
    ratio = val / (limit_constant_c1(4.0, 0.5) * b ** (1.0 / 4.0 - 0.5))
    assert ratio == pytest.approx(0.9829441748886647, rel=1e-10)


def test_kind_1a_ratio_approaches_one():
    _, ratios = empirical_ratio("1a", 4.0, 1.5, [1e-3, 1e-5, 1e-7], eps=1.0)
    err = np.abs(ratios - 1.0)
    assert err[0] > err[1] > err[2]
    assert err[2] < 1e-3


def test_kind_2_ratios_approach_one():
    for kind in ("2a", "2b"):
        _, ratios = empirical_ratio(
            kind, 4.0, 1.5, [1e-2, 1e-3, 1e-4], eps=1.0, q=3.0, beta=1.0
        )
        err = np.abs(ratios - 1.0)
        assert err[0] > err[2]
        assert err[2] < 0.02


@pytest.mark.parametrize(
    "kind, alpha, beta, q, b",
    [
        pytest.param("1a", 0.5, 0.0, 0.0, 1e-6, id="1a-a0.5"),
        pytest.param("1a", 2.5, 0.0, 0.0, 1e-6, id="1a-a2.5"),
        pytest.param("2a", 1.5, 1.0, 3.0, 0.1, id="2a-a1.5"),
        pytest.param("2b", 1.5, 1.0, 2.0, 0.1, id="2b-a1.5"),
        pytest.param("2b", 2.5, 2.0, 3.0, 0.1, id="2b-a2.5"),
    ],
)
def test_finite_model_integral_against_direct_quadrature(kind, alpha, beta, q, b):
    # independent fixed-grid rules on the raw integrands over eps = 1
    r = 4.0
    if kind == "1a":
        # Simpson's grid step 1.25e-6 resolves the peak width b^(1/4) ~ 0.03
        ref = orc.simpson(lambda s: (s**r + b) ** -alpha, 0.0, 1.0, 400_000)
    else:
        # integrable ~ (s-b)^(beta-alpha) = (s-b)^(-1/2) at s=b: substitute
        # s = b + w^2 with an independent midpoint rule
        def sub(w):
            s = b + w * w
            return (s**r - b**r) ** -alpha * (s**q - b**q) ** beta * 2.0 * w

        length = 1.0 - b if kind == "2a" else 1.0
        ref = orc.midpoint(sub, 0.0, math.sqrt(length), 400_000)
    val = finite_model_integral(kind, r, alpha, b, eps=1.0, q=q, beta=beta)
    assert val == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("r", [4.0, 10.0])
def test_finite_model_rows_are_batch_invariant(r):
    # every scale is one engine row: alone it gets the bits it gets in a batch
    for kind, alpha, beta, q in model_triples(r):
        b = np.geomspace(1e-2, 1e-6 if kind == "1a" else 1e-4, 7)
        batch = finite_model_integral(kind, r, alpha, b, eps=2.0, q=q, beta=beta)
        assert batch.shape == b.shape
        for bk, want in zip(b, batch):
            one = finite_model_integral(kind, r, alpha, float(bk), eps=2.0, q=q, beta=beta)
            assert type(one) is float and one == want


def test_empirical_ratio_row_matches_one_scale_call():
    # each triple's floor row of the model table (criterion 7 reads it)
    # against a one-b call and a separate limit constant
    rows = model_table(4.0)
    assert len(rows) == 5 * len(MODEL_TRIPLES)
    for k, (kind, alpha, beta, q) in enumerate(model_triples(4.0)):
        floor = rows[5 * k + 4]
        b = 1e-6 if kind == "1a" else 1e-4
        c, one = empirical_ratio(kind, 4.0, alpha, [b], eps=2.0, q=q, beta=beta)
        assert one.shape == (1,)
        assert (floor["kind"], floor["alpha"], floor["beta"], floor["q"]) == (kind, alpha, beta, q)
        assert floor["b"] == b and floor["ratio"] == one[0]
        assert floor["limit_constant"] == c == limit_constant(kind, 4.0, alpha, q=q, beta=beta)


def test_model_table_integrates_each_constant_once(monkeypatch):
    calls = []
    original = asymptotics.limit_constant

    def spy(*args, **kwargs):
        calls.append(args[:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "limit_constant", spy)
    rows = asymptotics.model_table(6.0)
    assert len(calls) == len(set(calls)) == len(MODEL_TRIPLES)
    assert len({row["limit_constant"] for row in rows}) == len(MODEL_TRIPLES)
    calls.clear()
    assert acceptance.criterion_7_model_integrals().passed
    assert len(calls) == len(MODEL_TRIPLES)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: limit_constant_c1(4.0, 1.5), id="c1"),
        pytest.param(lambda: limit_constant_c2(4.0, 3.0, 1.5, 1.0), id="c2"),
        pytest.param(
            lambda: finite_model_integral("2a", 4.0, 1.5, 1e-3, q=3.0, beta=1.0),
            id="2a",
        ),
    ],
)
def test_model_integrals_raise_above_ceiling(call, monkeypatch):
    monkeypatch.setattr(transition, "_ERR_CEILING", 0.0)
    with pytest.raises(AccuracyError, match="model integral") as info:
        call()
    assert info.value.achieved > 0.0
    assert "at scale=" in str(info.value)  # the worst row's scale b


@pytest.mark.parametrize(
    "r, eps0, measured",
    # L as first measured (30-digit mpmath), to its printed digits
    [(3.0, 1.0, -0.4349600), (4.0, 1.0, 0.3126489), (6.0, 1.0, 0.7329503),
     (10.0, 1.5, 57.93114), (10.0, 2.0, 1024.2744)],
)
def test_residence_law_against_oracles(r, eps0, measured):
    prof = SurfaceProfile(r=r, eps0=eps0, allow_low_r=True)
    k_b, k_c, offset, beta = residence_law(prof)
    assert beta == 0.5 - 1.0 / r
    assert k_b == pytest.approx(orc.c2_closed_form_beta0(r, 0.5) / math.sqrt(2.0), rel=1e-12)
    assert k_c == pytest.approx(orc.c1_closed_form(r, 0.5) / math.sqrt(2.0), rel=1e-12)
    want = orc.residence_offset_mp(r, eps0)
    assert offset == pytest.approx(want, rel=1e-9)
    assert want == pytest.approx(measured, rel=2e-7)
    # rows keyed by the gap u = 1e-12 on both sides, not by an angle, so
    # the rounding of an angle's gap does not enter
    u = np.full(2, 1e-12)
    rows = transition._gap_rows(prof, np.full(2, np.nan), u, np.array([True, False]), ("upsilon0",))
    assert rows[0, 0] == pytest.approx(np.array([k_b, k_c]) * u**-beta + offset, rel=1e-9)


def test_residence_law_raises_above_ceiling_and_is_cached(monkeypatch):
    # a profile no other test asks for, so its law is not cached yet
    prof = SurfaceProfile(r=5.0, eps0=0.75)
    monkeypatch.setattr(transition, "_ERR_CEILING", 0.0)
    monkeypatch.setattr(asymptotics, "limit_constant_c1", lambda r, alpha: 1.0)
    monkeypatch.setattr(asymptotics, "limit_constant_c2", lambda r, q, alpha, beta: 1.0)
    with pytest.raises(AccuracyError, match="Upsilon0 finite part.* at eps0=0.75") as info:
        residence_law(prof)
    assert info.value.achieved > 0.0
    monkeypatch.undo()
    law = residence_law(prof)
    assert residence_law(SurfaceProfile(r=5.0, eps0=0.75)) is law


def test_finite_model_integral_validation():
    with pytest.raises(ValueError):
        finite_model_integral("3c", 4.0, 0.5, 1e-3)
    with pytest.raises(ValueError):
        finite_model_integral("1a", 4.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        finite_model_integral("2a", 4.0, 1.5, 2.0, eps=1.0, q=3.0, beta=1.0)


def test_predicted_exponents():
    assert predicted_exponent("1a", 4.0, 0.5, 0.0, 0.0) == 1.0 / 4.0 - 0.5
    assert predicted_exponent("2a", 4.0, 1.5, 3.0, 1.0) == 3.0 - 6.0 + 1.0
    assert predicted_exponent("2b", 6.0, 2.5, 5.0, 2.0) == 10.0 - 15.0 + 1.0


def test_model_triples_well_formed():
    assert len(MODEL_TRIPLES) == 6
    for kind, alpha, beta, q_off in MODEL_TRIPLES:
        assert kind in ("1a", "2a", "2b")
        if kind == "1a":
            assert beta == 0.0
        else:
            # q = r + q_off must keep the integrals convergent for r >= 4
            assert alpha < 1.0 + beta
            assert alpha * 4.0 - beta * (4.0 + q_off) > 1.0


def test_fit_exponent_exact_power_law():
    n = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    fit = fit_exponent(n, 3.0 * n**2.5)
    assert fit.exponent == pytest.approx(2.5, abs=1e-12)
    assert fit.constant == pytest.approx(3.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_max < 1e-12
    assert fit.exponent_stderr < 1e-10
    assert fit.index_range == (10.0, 160.0)


def test_fit_exponent_constant_data():
    # constant values: flat slope, perfect residuals, r^2 pinned into [0, 1]
    fit = fit_exponent([1, 2, 3, 4, 5], [7.0] * 5)
    assert fit.exponent == pytest.approx(0.0, abs=1e-14)
    assert fit.residual_max < 1e-14
    assert 0.0 <= fit.r_squared <= 1.0


def test_fit_exponent_preconditions():
    with pytest.raises(ValueError):
        fit_exponent([1, 2, 3, 4], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        fit_exponent([1, 2, 3, 4, 4], [1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        fit_exponent([1, 2, 3, 4, 5], [1, 2, 0, 4, 5])
