"""Spec construction, validation, and the log-scale bookkeeping."""

import math

import numpy as np
import pytest

from prodspec.config import (
    GinibreProductSpec,
    HaarProductSpec,
    ScalingPlan,
    SignPattern,
    resolve_gamma,
)


def test_sign_pattern_parse_roundtrip():
    sp = SignPattern.parse("-+-")
    assert sp.entries == (-1, 1, -1)
    assert sp.m == 3
    assert sp.plus_count == 1
    assert str(sp) == "-+-"


def test_sign_pattern_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        SignPattern(())


def test_sign_pattern_rejects_bad_entry():
    with pytest.raises(ValueError, match=r"\+-1"):
        SignPattern((0, 1))
    with pytest.raises(ValueError, match="character"):
        SignPattern.parse("+x")


def test_ginibre_log_scale_all_plus():
    # scale n^(2p-m) = n^m when every factor is direct
    spec = GinibreProductSpec(50, SignPattern.parse("+++"))
    assert spec.log_scale() == pytest.approx(3 * math.log(50), rel=1e-15)
    assert spec.ratios is None  # Gaussian factors are not truncated


def test_ginibre_log_scale_balanced():
    spec = GinibreProductSpec(200, SignPattern.parse("-+"))
    assert spec.log_scale() == 0.0


def test_ginibre_log_scale_all_minus():
    spec = GinibreProductSpec(10, SignPattern.parse("--"))
    assert spec.log_scale() == pytest.approx(-2 * math.log(10), rel=1e-15)


def test_haar_log_scale_hand_value():
    # single direct factor, n=2 from dim 4: log(2/6) = -log 3
    spec = HaarProductSpec(2, SignPattern.parse("+"), (4,))
    assert spec.log_scale() == pytest.approx(-math.log(3.0), rel=1e-15)


def test_haar_log_scale_sign_flips_term():
    plus = HaarProductSpec(5, SignPattern.parse("+"), (9,))
    minus = HaarProductSpec(5, SignPattern.parse("-"), (9,))
    assert plus.log_scale() == pytest.approx(-minus.log_scale(), rel=1e-15)


def test_haar_rejects_dims_mismatch():
    with pytest.raises(ValueError, match="dims"):
        HaarProductSpec(4, SignPattern.parse("+-"), (8,))


def test_haar_rejects_small_dim():
    with pytest.raises(ValueError, match=r"dims\[1\]"):
        HaarProductSpec(4, SignPattern.parse("+-"), (8, 4))


def test_n_must_be_positive_integer():
    with pytest.raises(ValueError, match="n:"):
        GinibreProductSpec(0, SignPattern.parse("+"))
    with pytest.raises(ValueError, match="n:"):
        GinibreProductSpec(3.5, SignPattern.parse("+"))


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
def test_numpy_integers_build_the_spec_of_python_ints(integer):
    signs = SignPattern.parse("+-")
    for spec, ref in (
        (GinibreProductSpec(integer(10), signs), GinibreProductSpec(10, signs)),
        (
            HaarProductSpec(integer(10), signs, np.array([21, 15], dtype=integer)),
            HaarProductSpec(10, signs, (21, 15)),
        ),
    ):
        assert spec == ref and hash(spec) == hash(ref)
        assert type(spec.n) is int
        assert spec.dims is None or all(type(d) is int for d in spec.dims)
    with pytest.raises(ValueError, match="n:"):
        GinibreProductSpec(10.0, signs)
    with pytest.raises(ValueError, match="n:"):
        GinibreProductSpec(np.float64(10.0), signs)
    with pytest.raises(ValueError, match=r"dims\[0\]"):
        HaarProductSpec(10, signs, (21.0, 15))


def test_scaling_plan_requires_positive_gamma():
    with pytest.raises(ValueError, match="gamma_n"):
        ScalingPlan(gamma_n=0.0, log_scale=0.0)
    with pytest.raises(ValueError, match="gamma_n"):
        ScalingPlan(gamma_n=float("inf"), log_scale=0.0)
    with pytest.raises(ValueError, match="log_scale"):
        ScalingPlan(gamma_n=1.0, log_scale=float("inf"))


def test_scaling_plan_for_spec_and_roundtrip():
    spec = GinibreProductSpec(30, SignPattern.parse("-+"))
    plan = ScalingPlan.for_spec(spec, 2.0)
    assert plan.gamma_n == 2.0
    assert plan.log_scale == 0.0


def test_resolve_gamma_token_and_number():
    assert resolve_gamma("m", 4) == 4.0
    assert resolve_gamma("2", 4) == 2.0
    assert resolve_gamma(1200, 4) == 1200.0
    with pytest.raises(ValueError, match="gamma"):
        resolve_gamma("mn", 4)
    with pytest.raises(ValueError, match="gamma"):
        resolve_gamma("-1", 4)
