"""Matrix-product sampling: factor laws, solve accuracy, refusal paths."""

import ctypes
import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest
from test_scalar_model import product_specs

import prodspec.matrix_model as matrix_model
from prodspec.cli import ExperimentConfig, run_experiment, write_outputs
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


@pytest.fixture(params=["lapack", "fallback"])
def factoring(request, monkeypatch):
    """Each Haar factoring path: the bound zgeqrf and ztrsm, or the Q of
    np.linalg.qr with the binding forced absent."""
    if request.param == "fallback":
        monkeypatch.setattr(matrix_model, "_qr_routines", lambda: None)
    elif matrix_model._qr_routines() is None:
        pytest.skip("no ILP64 OpenBLAS zgeqrf and ztrsm are loaded")
    return request.param


@_one_blas_thread
def q_route_corner(dim, rng, n):
    """The corner as Q of the reduced QR, phases moved into Q, top n rows,
    factored at one BLAS thread as sample_haar_unitary factors."""
    q, r = np.linalg.qr(sample_ginibre(dim, rng, n))
    d = np.diagonal(r)
    return (q * (d / np.abs(d)))[:n]


def test_haar_unitary_is_unitary(factoring):
    u = sample_haar_unitary(60, RngStream(12))
    assert u.shape == (60, 60)
    assert np.allclose(u @ u.conj().T, np.eye(60), atol=1e-12)


@pytest.mark.parametrize("dim, n", [(200, 100), (101, 100), (400, 200), (21, 20)])
def test_corner_agrees_with_the_q_route(factoring, dim, n):
    # the R-only corner carries QR's backward error through R's inverse, so
    # it may differ by about eps * cond(G); the bound holds at every size
    for seed in range(3):
        corner = sample_haar_unitary(dim, RngStream(seed), n)
        expect = q_route_corner(dim, RngStream(seed), n)
        cond = np.linalg.cond(sample_ginibre(dim, RngStream(seed), n))
        gap = np.abs(corner - expect).max()
        assert gap <= 1e-13
        assert gap <= np.finfo(float).eps * cond


@pytest.mark.parametrize("n, seeds", [(200, 8), (400, 3)])
def test_one_row_deep_corner_is_a_contraction_up_to_the_gaussian_condition(factoring, n, seeds):
    # at d = n + 1 the corner has n - 1 unit singular values, so the error
    # shows in its norm; 1 + 1e-13 is exceeded on 10 of 200 seeds at n = 200
    # (at most 2.8e-13) and reached 4.7e-13 over 40 seeds at n = 400, while
    # the excess stayed below 0.82 * eps * cond(G) on all
    for seed in range(seeds):
        t = sample_haar_unitary(n + 1, RngStream(seed), n)
        cond = np.linalg.cond(sample_ginibre(n + 1, RngStream(seed), n))
        assert np.linalg.norm(t, 2) <= 1.0 + np.finfo(float).eps * cond


@pytest.mark.parametrize("dim, n", [(30, 12), (13, 12), (9, None)])
def test_corner_draw_uses_the_stream_as_the_q_route_does(factoring, dim, n):
    rng, reference = RngStream(6), RngStream(6)
    sample_haar_unitary(dim, rng, n)
    q_route_corner(dim, reference, dim if n is None else n)
    assert np.array_equal(rng.standard_normal(5), reference.standard_normal(5))


@pytest.mark.parametrize("n", [None, 30])
def test_whole_unitary_is_the_q_route_byte_for_byte(factoring, n):
    # Q is the whole answer, unitary to about eps, so it is kept on both paths
    u = sample_haar_unitary(30, RngStream(8), n)
    assert u.tobytes() == q_route_corner(30, RngStream(8), 30).tobytes()


@pytest.mark.parametrize("dim, n", [(30, 12), (13, 12), (201, 200)])
def test_fallback_corner_is_the_q_route_byte_for_byte(monkeypatch, dim, n):
    monkeypatch.setattr(matrix_model, "_qr_routines", lambda: None)
    corner = sample_haar_unitary(dim, RngStream(4), n)
    assert corner.shape == (n, n) and corner.flags.c_contiguous
    assert corner.tobytes() == q_route_corner(dim, RngStream(4), n).tobytes()


def test_bound_haar_replicate_calls_no_numpy_factoring(monkeypatch):
    # numpy's qr holds the interpreter lock while its zgeqrf runs
    if matrix_model._qr_routines() is None:
        pytest.skip("no ILP64 OpenBLAS zgeqrf and ztrsm are loaded")

    def refuse(*args, **kwargs):
        raise AssertionError("numpy factoring on the bound path")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    spec = HaarProductSpec(15, SignPattern.parse("+-"), (30, 16))
    assert len(sample_product_eigenvalues(spec, RngStream(3)).log_moduli) == 15


@pytest.mark.parametrize("dim, n", [(400, 200), (200, 100), (21, 20), (5, 1)])
def test_bound_factoring_solves_with_numpys_r(monkeypatch, dim, n):
    # zgeqrf gets numpy's workspace, so the R that ztrsm reads is numpy's byte
    # for byte; past n = 128 a smaller workspace would change zgeqrf's blocking
    routines = matrix_model._qr_routines()
    if routines is None:
        pytest.skip("no ILP64 OpenBLAS zgeqrf and ztrsm are loaded")
    zgeqrf, ztrsm = routines
    seen = []

    def recording(*args):
        # A and LDA, as ztrsm reads them: n columns of lda entries each
        lda = args[8].value
        buf = (ctypes.c_double * (2 * lda * n)).from_address(args[7])
        seen.append(np.triu(np.frombuffer(buf, dtype=complex).reshape(n, lda).T[:n]))
        ztrsm(*args)

    monkeypatch.setattr(matrix_model, "_qr_routines", lambda: (zgeqrf, recording))
    sample_haar_unitary(dim, RngStream(2), n)
    with _one_blas_thread:
        expect = np.linalg.qr(sample_ginibre(dim, RngStream(2), n), mode="r")
    assert len(seen) == 1 and seen[0].tobytes() == np.ascontiguousarray(expect).tobytes()


@pytest.mark.parametrize("failing_call", [1, 2], ids=["query", "factor"])
def test_corner_raises_when_zgeqrf_reports_a_nonzero_info(monkeypatch, failing_call):
    routines = matrix_model._qr_routines()
    if routines is None:
        pytest.skip("no ILP64 OpenBLAS zgeqrf and ztrsm are loaded")
    zgeqrf, ztrsm = routines
    calls = []

    def failing(*args):
        zgeqrf(*args)
        calls.append(args)
        if len(calls) == failing_call:
            args[7].value = -4  # INFO

    monkeypatch.setattr(matrix_model, "_qr_routines", lambda: (failing, ztrsm))
    with pytest.raises(np.linalg.LinAlgError, match="zgeqrf"):
        sample_haar_unitary(6, RngStream(0), 3)
    assert len(calls) == failing_call


def test_haar_unitary_eigen_angles_uniform():
    rng = RngStream(13)
    angles = []
    for r in range(40):
        u = sample_haar_unitary(50, rng.substream(r))
        angles.append(np.angle(np.linalg.eigvals(u)))
    pooled = (np.concatenate(angles) + 2 * np.pi) % (2 * np.pi)
    stat = kstest(pooled / (2 * np.pi), "uniform").statistic
    assert stat < 1.63 / math.sqrt(pooled.size)


@pytest.mark.parametrize("n", [None, 7])
def test_haar_unitary_reproducible(factoring, n):
    a = sample_haar_unitary(20, RngStream(3).substream(5), n)
    b = sample_haar_unitary(20, RngStream(3).substream(5), n)
    assert a.tobytes() == b.tobytes()


def test_haar_corner_is_an_n_by_n_contraction():
    t = sample_haar_unitary(60, RngStream(12), 25)
    assert t.shape == (25, 25)
    assert np.linalg.norm(t, 2) < 1.0


def test_thin_haar_draw_with_all_columns_is_the_square_draw():
    square = sample_haar_unitary(30, RngStream(3).substream(5))
    assert np.array_equal(sample_haar_unitary(30, RngStream(3).substream(5), 30), square)
    assert np.array_equal(
        sample_ginibre(30, RngStream(4), 30), sample_ginibre(30, RngStream(4))
    )


def test_thin_draws_reject_bad_column_counts():
    with pytest.raises(ValueError, match="cols"):
        sample_ginibre(5, RngStream(0), 0)


@pytest.mark.parametrize("n", [0, -1, 6])
def test_corner_size_must_lie_in_one_to_dim(n):
    with pytest.raises(ValueError, match=r"n: must lie in 1\.\.5"):
        sample_haar_unitary(5, RngStream(0), n)


def test_truncated_haar_is_contraction():
    # strictly inside the unit ball once at least n rows are removed; the
    # corner drawn alone and the corner of the whole unitary
    for t in (
        sample_haar_unitary(60, RngStream(14), 25),
        sample_haar_unitary(60, RngStream(14))[:25, :25],
    ):
        s = np.linalg.svd(t, compute_uv=False)
        assert np.all(s < 1.0)
        assert np.all(s > 0.0)


def test_shallow_truncation_pins_singular_values_at_one():
    # removing d - n < n rows leaves 2n - d exact unit singular values
    for t in (
        sample_haar_unitary(40, RngStream(14), 25),
        sample_haar_unitary(40, RngStream(14))[:25, :25],
    ):
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


@pytest.fixture(params=["zgeev", "fallback"])
def solver(request, monkeypatch):
    """Each eigen-solve path: the bound zgeev, or np.linalg.eigvals with the
    binding forced absent."""
    if request.param == "fallback":
        monkeypatch.setattr(matrix_model, "_zgeev", lambda: None)
    elif matrix_model._zgeev() is None:
        pytest.skip("no ILP64 OpenBLAS zgeev is loaded")
    return request.param


def test_zgeev_is_bound_where_numpy_uses_an_ilp64_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = {}
    if "openblas" not in blas.get("name", "") or "USE64BITINT" not in blas.get(
        "openblas configuration", ""
    ):
        pytest.skip("numpy's BLAS is not an ILP64 OpenBLAS")
    assert matrix_model._zgeev() is not None


@pytest.mark.parametrize(
    "a",
    [
        *(sample_ginibre(n, RngStream(30).substream(n)) for n in (1, 2, 37, 100, 200)),
        np.eye(12, dtype=complex),
        (2.0 * np.eye(9) + np.eye(9, k=1)).astype(complex),
    ],
    ids=["n1", "n2", "n37", "n100", "n200", "identity", "jordan"],
)
def test_eigvals_returns_numpys_bytes(solver, a):
    kept = a.copy()
    with _one_blas_thread:
        assert matrix_model._eigvals(a).tobytes() == np.linalg.eigvals(a).tobytes()
    assert np.array_equal(a, kept)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_eigvals_refuses_non_finite_input(solver, bad):
    a = np.eye(4, dtype=complex)
    a[2, 1] = bad
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        matrix_model._eigvals(a)


@pytest.mark.parametrize("failing_call", [1, 2], ids=["query", "solve"])
def test_eigvals_raises_when_zgeev_reports_a_nonzero_info(monkeypatch, failing_call):
    zgeev = matrix_model._zgeev()
    if zgeev is None:
        pytest.skip("no ILP64 OpenBLAS zgeev is loaded")
    calls = []

    def failing(*args):
        zgeev(*args)
        calls.append(args)
        if len(calls) == failing_call:
            args[13].value = 1  # INFO

    monkeypatch.setattr(matrix_model, "_zgeev", lambda: failing)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        matrix_model._eigvals(np.eye(3, dtype=complex))
    assert len(calls) == failing_call


@pytest.mark.parametrize("mode", ["matrix", "both"])
def test_runs_write_the_same_files_without_the_binding(monkeypatch, tmp_path, mode):
    cfg = ExperimentConfig(
        ensemble="haar", n=12, signs="+-", dims=(24, 24), gamma="2", replicates=10,
        mode=mode,
    )
    write_outputs(run_experiment(cfg), tmp_path / "zgeev")
    monkeypatch.setattr(matrix_model, "_zgeev", lambda: None)
    write_outputs(run_experiment(cfg), tmp_path / "fallback")

    def outputs(out):
        record = json.loads((out / "report.json").read_text())
        timings = [k for k in record if k.startswith("runtime_")]
        for key in timings:
            del record[key]
        return record, *((out / name).read_bytes() for name in ("cdf.csv", "angles.csv"))

    assert outputs(tmp_path / "zgeev") == outputs(tmp_path / "fallback")


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


def draw_factors(spec, rng):
    """The factors sample_product_eigenvalues draws for spec from rng; the
    samplers are looked up on matrix_model, so that a test can patch them."""
    if spec.dims is None:
        return [matrix_model.sample_ginibre(spec.n, rng) for _ in range(spec.m)]
    return [matrix_model.sample_haar_unitary(d, rng, spec.n) for d in spec.dims]


# Largest gap in the sorted log-moduli between two orderings of one
# product. Over 300 drawn specs like those below the largest seen was
# 1.5e-11, at n = 38 with four Gaussian factors.
IDENTITY_TOLERANCE = 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=product_specs(max_n=40), seed=st.integers(0, 2**32 - 1))
def test_reversed_product_with_flipped_signs_has_reciprocal_eigenvalues(spec, seed):
    factors, signs = draw_factors(spec, RngStream(seed)), list(spec.signs)
    forward = product_eigenvalues(factors, signs)
    inverse = product_eigenvalues(factors[::-1], [-s for s in reversed(signs)])
    assert np.abs(
        np.sort(forward.log_moduli) - np.sort(-inverse.log_moduli)
    ).max() <= IDENTITY_TOLERANCE


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=product_specs(max_n=40), seed=st.integers(0, 2**32 - 1))
def test_cyclic_rotation_of_the_factors_keeps_the_log_moduli(spec, seed):
    factors, signs = draw_factors(spec, RngStream(seed)), list(spec.signs)
    expect = np.sort(product_eigenvalues(factors, signs).log_moduli)
    for k in range(1, spec.m):
        rotated = product_eigenvalues(factors[k:] + factors[:k], signs[k:] + signs[:k])
        assert np.abs(np.sort(rotated.log_moduli) - expect).max() <= IDENTITY_TOLERANCE


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
        sca.append(sample_radial_spectrum(spec, rng.substream(1, r), 1)[0])
    report = ks_two_sample(
        EmpiricalCdf(np.concatenate(mat)), EmpiricalCdf(np.concatenate(sca))
    )
    assert report.statistic < 0.05


# Every factor law here is invariant under A -> e^(i phi) A, and so are
# the inverses and the product, so E sum_i e^(ik theta_i) = 0 for k != 0 at
# every n. Under that null |z_k|^2 is about Exp(1), so the bound 4 on the
# 16 modes below falsely alarms with probability near 1e-6
FOURIER_MODES = np.arange(1, 5)
FOURIER_Z_BOUND = 4.0
FOURIER_SPECS = {
    "ginibre:-+-": GinibreProductSpec(20, SignPattern.parse("-+-")),
    "haar:+-": HaarProductSpec(20, SignPattern.parse("+-"), (40, 40)),
    "haar:-+": HaarProductSpec(12, SignPattern.parse("-+"), (18, 30)),
    "haar:+": HaarProductSpec(20, SignPattern.parse("+"), (21,)),
}


def angle_fourier_z(spec, replicates):
    """|mean S_k| / (sd S_k / sqrt(R)) per mode k, for S_k = sum_i e^(ik theta_i)
    over replicate r's eigenangles, drawn from key (1, r) as a run draws it."""
    angles = (
        sample_product_eigenvalues(spec, RngStream(0).substream(1, r)).angles
        for r in range(replicates)
    )
    sums = np.array([np.exp(1j * np.outer(FOURIER_MODES, a)).sum(axis=1) for a in angles])
    return np.abs(sums.mean(axis=0)) / (sums.std(axis=0) / np.sqrt(replicates))


@pytest.mark.parametrize("name", FOURIER_SPECS)
def test_eigenangles_have_no_fourier_mode_at_the_standard_error_scale(name):
    assert angle_fourier_z(FOURIER_SPECS[name], 2000).max() <= FOURIER_Z_BOUND


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(spec=product_specs(min_n=2), route=st.sampled_from(["lapack", "fallback"]))
@example(spec=HaarProductSpec(10, SignPattern.parse("-"), (11,)), route="lapack")
@example(spec=HaarProductSpec(10, SignPattern.parse("-"), (11,)), route="fallback")
def test_eigenangles_have_no_fourier_mode_over_drawn_specs_on_both_qr_routes(spec, route):
    # the fallback route is the Q of np.linalg.qr, which the fixed specs
    # above reach only where no ILP64 OpenBLAS is loaded; a drawn spec whose
    # inverse trips the condition limit fails here, as a run would refuse it
    routines = (lambda: None) if route == "fallback" else matrix_model._qr_routines
    with mock.patch.object(matrix_model, "_qr_routines", routines):
        assert angle_fourier_z(spec, 400).max() <= FOURIER_Z_BOUND


def unphased_haar_corner(dim, rng, n=None):
    """Q of the QR with R's diagonal phases left in R, top n rows: a Haar
    corner without the phase fix, whose law a phase changes."""
    return np.linalg.qr(sample_ginibre(dim, rng, n))[0][:n]


@pytest.mark.parametrize("name", [name for name in FOURIER_SPECS if name.startswith("haar")])
def test_fourier_check_flags_a_haar_corner_without_the_phase_fix(monkeypatch, name):
    # at k = 1 and 2000 replicates it read |z| of about 7 (d = 2n), 9 (-+)
    # and 92 (d = n + 1)
    monkeypatch.setattr(matrix_model, "sample_haar_unitary", unphased_haar_corner)
    assert angle_fourier_z(FOURIER_SPECS[name], 2000)[0] > FOURIER_Z_BOUND


# The same invariance gives E tr(P^k) = 0 for k >= 1 when P has no inverse
# factor, whose moments could fail to exist. The z statistic and its bound
# are the Fourier check's, over the powers k = 1..3
TRACE_POWERS = (1, 2, 3)
TRACE_SPECS = {
    "ginibre:++": GinibreProductSpec(20, SignPattern.parse("++")),
    "haar:++": HaarProductSpec(20, SignPattern.parse("++"), (40, 40)),
    "haar:+": HaarProductSpec(20, SignPattern.parse("+"), (21,)),
    "haar:+++": HaarProductSpec(12, SignPattern.parse("+++"), (18, 30, 13)),
}


def trace_moment_z(spec, replicates):
    """|mean S_k| / (sd S_k / sqrt(R)) per power k, for S_k = tr(P^k) of
    replicate r's product P, its factors drawn from key (1, r) as a run
    draws them and multiplied at one BLAS thread."""
    with _one_blas_thread:
        products = (
            functools.reduce(np.matmul, draw_factors(spec, RngStream(0).substream(1, r)))
            for r in range(replicates)
        )
        sums = np.array(
            [[np.trace(np.linalg.matrix_power(p, k)) for k in TRACE_POWERS] for p in products]
        )
    return np.abs(sums.mean(axis=0)) / (sums.std(axis=0) / np.sqrt(replicates))


@pytest.mark.parametrize("name", TRACE_SPECS)
def test_direct_products_have_no_trace_moment_at_the_standard_error_scale(name):
    assert trace_moment_z(TRACE_SPECS[name], 2000).max() <= FOURIER_Z_BOUND


@pytest.mark.parametrize("name", ["haar:++", "haar:+"])
def test_trace_check_flags_a_haar_corner_without_the_phase_fix(monkeypatch, name):
    # at k = 1 and 2000 replicates it read |z| of about 12.6 (d = 2n) and 104
    # (d = n + 1); on haar:+++ it read at most 1.4, so that spec is not checked
    monkeypatch.setattr(matrix_model, "sample_haar_unitary", unphased_haar_corner)
    assert trace_moment_z(TRACE_SPECS[name], 2000)[0] > FOURIER_Z_BOUND


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
