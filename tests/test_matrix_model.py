"""Matrix-product sampling: factor laws, solve accuracy, refusal paths."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from prodspec.config import GinibreProductSpec, HaarProductSpec, SignPattern
from prodspec.matrix_model import (
    CONDITION_LIMIT,
    MAX_FACTORS,
    MAX_PRODUCT_SIZE,
    ConditioningError,
    _inverse,
    _one_blas_thread,
    _openblas_thread_controls,
    product_eigenvalues,
    sample_ginibre,
    sample_haar_unitary,
    sample_product_eigenvalues,
    truncate,
)
from prodspec.numerics import RngStream
from prodspec.stats import EmpiricalCdf, fold_angles, ks_two_sample


def test_ginibre_entry_moments():
    a = sample_ginibre(300, RngStream(11))
    # unit-variance complex entries, centred, with balanced parts
    assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.02
    assert abs(np.mean(a)) < 0.01
    assert abs(np.var(a.real) - 0.5) < 0.01
    assert abs(np.var(a.imag) - 0.5) < 0.01


def test_ginibre_rejects_bad_dim():
    with pytest.raises(ValueError, match="dim"):
        sample_ginibre(0, RngStream(0))


def test_haar_unitary_is_unitary():
    u = sample_haar_unitary(60, RngStream(12))
    assert np.allclose(u @ u.conj().T, np.eye(60), atol=1e-12)


def test_haar_unitary_eigen_angles_uniform():
    rng = RngStream(13)
    angles = []
    for r in range(40):
        u = sample_haar_unitary(50, rng.substream(r))
        angles.append(np.angle(np.linalg.eigvals(u)))
    pooled = (np.concatenate(angles) + 2 * np.pi) % (2 * np.pi)
    stat = kstest(pooled / (2 * np.pi), "uniform").statistic
    assert stat < 1.63 / math.sqrt(pooled.size)


def test_haar_unitary_reproducible():
    a = sample_haar_unitary(20, RngStream(3).substream(5))
    b = sample_haar_unitary(20, RngStream(3).substream(5))
    assert np.array_equal(a, b)


def test_thin_haar_draw_has_orthonormal_columns():
    q = sample_haar_unitary(60, RngStream(12), 25)
    assert q.shape == (60, 25)
    assert np.allclose(q.conj().T @ q, np.eye(25), atol=1e-12)


def test_thin_haar_draw_with_all_columns_is_the_square_draw():
    square = sample_haar_unitary(30, RngStream(3).substream(5))
    assert np.array_equal(sample_haar_unitary(30, RngStream(3).substream(5), 30), square)
    assert np.array_equal(
        sample_ginibre(30, RngStream(4), 30), sample_ginibre(30, RngStream(4))
    )


def test_thin_draws_reject_bad_column_counts():
    with pytest.raises(ValueError, match="cols"):
        sample_ginibre(5, RngStream(0), 0)
    with pytest.raises(ValueError, match="cols"):
        sample_haar_unitary(5, RngStream(0), 6)


def test_truncate_corner_and_bounds():
    u = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(truncate(u, 2), [[0.0, 1.0], [4.0, 5.0]])
    with pytest.raises(ValueError, match="n:"):
        truncate(u, 5)
    with pytest.raises(ValueError, match="n:"):
        truncate(u, 0)


def test_truncated_haar_is_contraction():
    # strictly inside the unit ball once at least n rows are removed
    for cols in (None, 25):
        t = truncate(sample_haar_unitary(60, RngStream(14), cols), 25)
        s = np.linalg.svd(t, compute_uv=False)
        assert np.all(s < 1.0)
        assert np.all(s > 0.0)


def test_shallow_truncation_pins_singular_values_at_one():
    # removing d - n < n rows leaves 2n - d exact unit singular values
    for cols in (None, 25):
        t = truncate(sample_haar_unitary(40, RngStream(14), cols), 25)
        s = np.linalg.svd(t, compute_uv=False)
        assert np.sum(np.abs(s - 1.0) < 1e-12) == 10
        assert np.all(s <= 1.0 + 1e-12)


def test_single_direct_factor_matches_eigvals():
    a = sample_ginibre(30, RngStream(15))
    sample = product_eigenvalues([a], [1])
    expect = np.linalg.eigvals(a)
    assert np.allclose(
        np.sort(sample.log_moduli), np.sort(np.log(np.abs(expect))), atol=1e-10
    )


def test_single_inverse_factor_gives_reciprocal_spectrum():
    a = sample_ginibre(25, RngStream(16))
    sample = product_eigenvalues([a], [-1])
    expect = -np.log(np.abs(np.linalg.eigvals(a)))
    assert np.allclose(np.sort(sample.log_moduli), np.sort(expect), atol=1e-9)


@pytest.mark.parametrize("sign", [1, -1])
def test_single_factor_product_is_that_factor_byte_for_byte(sign):
    # a one-factor product is the factor (or its inverse) itself, and the
    # caller's factor is left as it was
    a = sample_ginibre(30, RngStream(18))
    kept = a.copy()
    sample = product_eigenvalues([a], [sign])
    with _one_blas_thread:
        eig = np.linalg.eigvals(a if sign == 1 else np.linalg.inv(a))
    assert sample.log_moduli.tobytes() == np.log(np.abs(eig)).tobytes()
    assert sample.angles.tobytes() == fold_angles(np.angle(eig)).tobytes()
    assert np.array_equal(a, kept)


def test_factor_paired_with_its_inverse_cancels():
    a = sample_ginibre(20, RngStream(17))
    sample = product_eigenvalues([a, a], [1, -1])
    assert np.allclose(sample.log_moduli, 0.0, atol=1e-9)
    folded = np.minimum(sample.angles, 2 * np.pi - sample.angles)
    assert np.allclose(folded, 0.0, atol=1e-9)


def test_log_determinant_consistency():
    # sum of log moduli must equal the signed sum of factor log dets
    rng = RngStream(18)
    factors = [sample_ginibre(40, rng.substream(k)) for k in range(3)]
    signs = [1, -1, -1]
    sample = product_eigenvalues(factors, signs)
    expect = sum(
        s * np.linalg.slogdet(a)[1] for a, s in zip(factors, signs)
    )
    assert np.sum(sample.log_moduli) == pytest.approx(expect, abs=1e-8 * 40)


def test_angles_live_in_the_half_open_period():
    sample = product_eigenvalues([sample_ginibre(50, RngStream(19))], [1])
    assert np.all(sample.angles >= 0.0)
    assert np.all(sample.angles < 2 * np.pi)


def test_conditioning_refusal():
    # rank-deficient factor up to rounding noise: condition far past the cap
    rng = RngStream(20)
    a = sample_ginibre(30, rng)
    a[:, 0] = a[:, 1] * (1 + 1e-15)
    with pytest.raises(ConditioningError, match="condition"):
        product_eigenvalues([a], [-1])


def test_conditioning_message_reports_factor_index():
    a = np.eye(10, dtype=complex)
    b = np.eye(10, dtype=complex)
    b[0, 0] = 1e-14
    with pytest.raises(ConditioningError, match="factor 1"):
        product_eigenvalues([a, b], [1, -1])


def _exactly_singular(n):
    a = sample_ginibre(n, RngStream(22))
    a[:, 3] = a[:, 1]
    return a


@pytest.mark.parametrize(
    "singular",
    [
        np.zeros((8, 8)), _exactly_singular(8), np.diag([1.0, 1e-320]),
        np.diag([1e200, 1e-200]), np.diag([1.0, np.nan]),
    ],
    ids=["zero", "repeated-column", "subnormal-pivot", "condition-overflows", "nan"],
)
def test_singular_or_broken_factor_is_a_conditioning_abort(singular):
    # no LinAlgError and no floating-point warning, which pytest makes an error
    n = singular.shape[0]
    with pytest.raises(ConditioningError, match="factor 1"):
        product_eigenvalues([np.eye(n), singular], [1, -1])


def test_condition_is_the_exact_one_norm_condition():
    for k in range(5):
        a = sample_ginibre(40, RngStream(23).substream(k))
        inv, cond = _inverse(a)
        assert cond == pytest.approx(np.linalg.cond(a, 1), rel=1e-12)
        assert np.allclose(a @ inv, np.eye(40), atol=1e-10)


def test_condition_limit_sits_at_1e12():
    # the 1-norm condition of diag(1, 1/c) is c, up to one rounding
    product_eigenvalues([np.diag([1.0, 1.0 / 0.99e12])], [-1])
    with pytest.raises(ConditioningError, match="factor 0"):
        product_eigenvalues([np.diag([1.0, 1.0 / 1.01e12])], [-1])


def test_well_conditioned_inverse_is_accepted():
    # identity is perfectly conditioned; must not trip the limit
    sample = product_eigenvalues([np.eye(15)], [-1])
    assert np.allclose(sample.log_moduli, 0.0, atol=1e-14)
    assert CONDITION_LIMIT == 1e12


def test_shape_and_sign_validation():
    a = sample_ginibre(10, RngStream(21))
    with pytest.raises(ValueError, match="factors"):
        product_eigenvalues([], [])
    with pytest.raises(ValueError, match="factors"):
        product_eigenvalues([a], [1, -1])
    with pytest.raises(ValueError, match=r"factors\[1\]"):
        product_eigenvalues([a, a[:5, :5]], [1, 1])
    with pytest.raises(ValueError, match=r"signs\[0\]"):
        product_eigenvalues([a], [2])


def test_caps_on_size_and_count():
    big = np.eye(MAX_PRODUCT_SIZE + 1)
    with pytest.raises(ValueError, match="capped"):
        product_eigenvalues([big], [1])
    small = np.eye(2)
    with pytest.raises(ValueError, match="at most"):
        product_eigenvalues([small] * (MAX_FACTORS + 1), [1] * (MAX_FACTORS + 1))


def test_spec_driven_ginibre_sample():
    spec = GinibreProductSpec(20, SignPattern.parse("+-"))
    sample = sample_product_eigenvalues(spec, RngStream(22))
    assert len(sample.log_moduli) == 20
    assert np.all(np.isfinite(sample.log_moduli))


def test_spec_driven_haar_contractions():
    spec = HaarProductSpec(15, SignPattern.parse("++"), (24, 30))
    sample = sample_product_eigenvalues(spec, RngStream(23))
    assert len(sample.log_moduli) == 15
    assert np.all(sample.log_moduli < 0.0)


def test_matrix_and_scalar_radii_share_a_law():
    # quick two-sample check; the acceptance suite runs the large version
    from prodspec.scalar_model import sample_radial_spectrum

    spec = GinibreProductSpec(20, SignPattern.parse("-+"))
    rng = RngStream(24)
    mat, sca = [], []
    for r in range(150):
        mat.append(sample_product_eigenvalues(spec, rng.substream(0, r)).log_moduli)
        sca.append(sample_radial_spectrum(spec, rng.substream(1, r)))
    report = ks_two_sample(
        EmpiricalCdf(np.concatenate(mat)), EmpiricalCdf(np.concatenate(sca))
    )
    assert report.statistic < 0.05


def test_one_blas_thread_pins_and_restores_the_counts_it_found():
    controls, complete = _openblas_thread_controls()
    if not controls:
        pytest.skip("no loaded OpenBLAS exposes a thread-count control")
    found = [get_threads() for _, get_threads in controls]
    try:
        for set_threads, _ in controls:
            set_threads(2)
        raised = [get() for _, get in controls]
        with _one_blas_thread as outer:
            with _one_blas_thread as inner:
                assert [get() for _, get in controls] == [1] * len(controls)
            # the inner exit leaves the outer pin in place
            assert [get() for _, get in controls] == [1] * len(controls)
        assert outer == inner == (1 if complete else None)
        assert [get() for _, get in controls] == raised
    finally:
        for (set_threads, _), count in zip(controls, found):
            set_threads(count)
