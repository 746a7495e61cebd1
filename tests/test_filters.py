import json

import numpy as np
import pytest

from gspest.errors import UnstableFilterError
from gspest.filters import (
    FilterSpec,
    apply_filter,
    denominator_tolerance,
    filter_matrix,
    lpi_basis,
    lpi_basis_from_eigenvalues,
    numerical_rank,
    response,
    response_at,
    spec_from_json,
    spec_to_json,
    vandermonde,
)
from gspest.graphs import build_laplacian, gft, igft
from gspest.rng import generator
from tests.test_graphs import random_connected_graph


def random_sg(rng, n):
    return build_laplacian(random_connected_graph(rng, n, extra=0.6))


def random_stable_arma(rng, sg, num_order=2, den_order=2):
    """Random rational spec whose denominator stays positive on [0, lam_max]."""
    lam_max = float(sg.eigenvalues[-1])
    numer = rng.standard_normal(num_order + 1)
    # positive tail coefficients keep 1 + sum a_r lam^r >= 1 on lam >= 0
    denom = np.concatenate([[1.0], rng.uniform(0.1, 1.0, den_order) / lam_max ** np.arange(1, den_order + 1)])
    return FilterSpec.arma(numer, denom)


# ----------------------------------------------------------------- spec type


def test_spec_kinds_and_validation():
    lpi = FilterSpec.lpi([1.0, 0.5])
    assert lpi.kind == "lpi"
    arma = FilterSpec.arma([1.0, 2.0], [1.0, 0.1])
    assert arma.kind == "arma"
    lin = FilterSpec.linear([3.0, 1.0, 0.2])
    assert lin.kind == "linear"
    assert np.array_equal(lin.denominator, [1.0])
    lr = FilterSpec.lr_arma([1.0], [1.0, 0.2], cutoff=4)
    assert lr.cutoff == 4

    with pytest.raises(ValueError):
        FilterSpec.arma([1.0], [2.0, 0.1])  # a0 != 1
    with pytest.raises(ValueError):
        FilterSpec.lr_arma([1.0], [1.0], cutoff=0)
    with pytest.raises(ValueError):
        FilterSpec(kind="nope", taps=np.array([1.0]))
    with pytest.raises(ValueError):
        FilterSpec.lpi([])


def test_spec_json_round_trip():
    rng = generator(21, "filters")
    specs = [
        FilterSpec.lpi(rng.standard_normal(4)),
        FilterSpec.arma(rng.standard_normal(3), [1.0, 0.01, 0.002]),
        FilterSpec.linear(rng.standard_normal(5)),
        FilterSpec.lr_arma(rng.standard_normal(2), [1.0, 0.3], cutoff=7),
    ]
    for spec in specs:
        text = spec_to_json(spec)
        back = spec_from_json(text)
        assert back.kind == spec.kind
        for field in ("taps", "numerator", "denominator"):
            a, b = getattr(spec, field), getattr(back, field)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)
        assert back.cutoff == spec.cutoff
        json.loads(text)  # stays plain JSON


def test_spec_json_is_its_set_fields():
    specs = {
        '{"kind": "lpi", "taps": [1.0, -0.5]}': FilterSpec.lpi([1.0, -0.5]),
        '{"kind": "arma", "numerator": [0.25, 2.0], "denominator": [1.0, 0.125]}':
            FilterSpec.arma([0.25, 2.0], [1.0, 0.125]),
        '{"kind": "linear", "numerator": [3.0], "denominator": [1.0]}':
            FilterSpec.linear([3.0]),
        '{"kind": "lr-arma", "numerator": [0.5], "denominator": [1.0, 0.3], "cutoff": 7}':
            FilterSpec.lr_arma([0.5], [1.0, 0.3], cutoff=7),
    }
    for text, spec in specs.items():
        assert spec_to_json(spec) == text


@pytest.mark.parametrize("text", [
    '"lpi"', "[1, 2]", '{"taps": [1.0]}', '{"kind": "lpi", "taps": [1.0], "order": 0}',
])
def test_spec_from_json_rejects_what_is_not_a_spec(text):
    with pytest.raises(ValueError):
        spec_from_json(text)


# --------------------------------------------------------------------- bases


def test_vandermonde_increasing_powers():
    lam = np.array([0.0, 1.0, 2.0])
    v = vandermonde(lam, 3)
    assert v.shape == (3, 4)
    assert np.array_equal(v[:, 0], [1.0, 1.0, 1.0])
    assert np.array_equal(v[2], [1.0, 2.0, 4.0, 8.0])


def test_lpi_basis_zero_row_and_inverse_powers():
    lam = np.array([0.0, 0.5, 2.0])
    b = lpi_basis_from_eigenvalues(lam, 2, zero_tol=1e-12)
    assert np.array_equal(b[0], [1.0, 0.0, 0.0])
    assert np.allclose(b[1], [1.0, 2.0, 4.0], atol=1e-15)
    assert np.allclose(b[2], [1.0, 0.5, 0.25], atol=1e-15)


def test_lpi_basis_requires_connected():
    from tests.test_graphs import graph_of

    sg = build_laplacian(graph_of(4, ((0, 1, 1.0), (2, 3, 1.0))))
    with pytest.raises(UnstableFilterError):
        lpi_basis(sg, 2)


# ------------------------------------------------- dual-route matrix oracles


def test_lpi_matrix_oracle():
    # inverse-power filter equals the explicit pseudo-inverse polynomial
    rng = generator(22, "filters")
    for _ in range(20):
        sg = random_sg(rng, int(rng.integers(4, 13)))
        taps = rng.standard_normal(4)
        spec = FilterSpec.lpi(taps)
        pinv = np.linalg.pinv(sg.laplacian, rcond=1e-10)
        mat = taps[0] * np.eye(sg.n_vertices)
        power = np.eye(sg.n_vertices)
        for k in range(1, taps.size):
            power = power @ pinv
            mat = mat + taps[k] * power
        x = rng.standard_normal(sg.n_vertices)
        assert np.max(np.abs(apply_filter(spec, sg, x) - mat @ x)) < 1e-8
        assert np.max(np.abs(filter_matrix(spec, sg) - mat)) < 1e-8


def test_arma_matrix_oracle():
    # rational filter equals inv(I + sum a_r L^r) @ (sum c_q L^q)
    rng = generator(23, "filters")
    for _ in range(20):
        sg = random_sg(rng, int(rng.integers(4, 13)))
        spec = random_stable_arma(rng, sg)
        n = sg.n_vertices
        lap = sg.laplacian
        num = np.zeros((n, n))
        den = np.zeros((n, n))
        power = np.eye(n)
        for k in range(max(spec.numerator.size, spec.denominator.size)):
            if k < spec.numerator.size:
                num = num + spec.numerator[k] * power
            if k < spec.denominator.size:
                den = den + spec.denominator[k] * power
            power = power @ lap
        mat = np.linalg.solve(den, num)
        x = rng.standard_normal(n)
        assert np.max(np.abs(apply_filter(spec, sg, x) - mat @ x)) < 1e-8


def test_linear_matrix_oracle():
    rng = generator(24, "filters")
    for _ in range(20):
        sg = random_sg(rng, int(rng.integers(4, 13)))
        coeffs = rng.standard_normal(3)
        spec = FilterSpec.linear(coeffs)
        lap = sg.laplacian
        mat = coeffs[0] * np.eye(sg.n_vertices) + coeffs[1] * lap + coeffs[2] * lap @ lap
        x = rng.standard_normal(sg.n_vertices)
        assert np.max(np.abs(apply_filter(spec, sg, x) - mat @ x)) < 1e-8


def test_lr_arma_matrix_oracle():
    # low-rank rational filter equals projector @ full-band rational @ projector
    rng = generator(25, "filters")
    for _ in range(20):
        n = int(rng.integers(5, 13))
        sg = random_sg(rng, n)
        cutoff = int(rng.integers(2, n))
        full = random_stable_arma(rng, sg)
        spec = FilterSpec.lr_arma(full.numerator, full.denominator, cutoff)
        lap = sg.laplacian
        num = np.zeros((n, n))
        den = np.zeros((n, n))
        power = np.eye(n)
        for k in range(max(full.numerator.size, full.denominator.size)):
            if k < full.numerator.size:
                num = num + full.numerator[k] * power
            if k < full.denominator.size:
                den = den + full.denominator[k] * power
            power = power @ lap
        kept = sg.eigenvectors[:, :cutoff]
        proj = kept @ kept.T
        mat = proj @ np.linalg.solve(den, num) @ proj
        x = rng.standard_normal(n)
        assert np.max(np.abs(apply_filter(spec, sg, x) - mat @ x)) < 1e-8
        assert np.max(np.abs(filter_matrix(spec, sg) - mat)) < 1e-8


def test_lr_arma_response_zero_above_cutoff():
    rng = generator(26, "filters")
    sg = random_sg(rng, 10)
    spec = FilterSpec.lr_arma([1.0, 0.5], [1.0, 0.1], cutoff=4)
    resp = response(spec, sg)
    assert np.array_equal(resp[4:], np.zeros(6))
    assert np.all(resp[:4] != 0)


# ------------------------------------------------------- response semantics


def test_identity_response_leaves_signal():
    rng = generator(27, "filters")
    sg = random_sg(rng, 9)
    spec = FilterSpec.linear([1.0])
    x = rng.standard_normal(9)
    assert np.max(np.abs(apply_filter(spec, sg, x) - x)) < 1e-12


def test_apply_equals_frequency_route_all_kinds():
    rng = generator(28, "filters")
    for _ in range(10):
        sg = random_sg(rng, int(rng.integers(5, 12)))
        specs = [
            FilterSpec.lpi(rng.standard_normal(3)),
            random_stable_arma(rng, sg),
            FilterSpec.linear(rng.standard_normal(4)),
            FilterSpec.lr_arma(rng.standard_normal(2), [1.0, 0.05], cutoff=3),
        ]
        x = rng.standard_normal(sg.n_vertices)
        for spec in specs:
            resp = response(spec, sg)
            want = igft(sg, resp * gft(sg, x))
            assert np.max(np.abs(apply_filter(spec, sg, x) - want)) < 1e-10


def test_response_at_matches_graph_response():
    rng = generator(29, "filters")
    sg = random_sg(rng, 8)
    spec = random_stable_arma(rng, sg)
    assert np.array_equal(
        response(spec, sg), response_at(spec, sg.eigenvalues, sg.zero_tolerance())
    )


def test_batched_apply():
    rng = generator(30, "filters")
    sg = random_sg(rng, 7)
    spec = FilterSpec.linear(rng.standard_normal(3))
    x = rng.standard_normal((6, 7))
    out = apply_filter(spec, sg, x)
    assert out.shape == (6, 7)
    for i in range(6):
        assert np.allclose(out[i], apply_filter(spec, sg, x[i]), atol=1e-14)


# --------------------------------------------------------- denominator guard


def test_unit_denominator_never_vanishes():
    # a0 = 1 is exact at lam = 0 and must pass for any benign tail
    lam = np.linspace(0.0, 600.0, 50)
    spec = FilterSpec.arma([1.0], [1.0, 15.0, 40.0, 0.2])
    resp = response_at(spec, lam, zero_tol=1e-9)
    assert np.all(np.isfinite(resp))


def test_true_pole_caught():
    lam = np.array([0.0, 1.0, 2.0])
    # root exactly at lam = 1
    spec = FilterSpec.arma([1.0], [1.0, -1.0])
    with pytest.raises(UnstableFilterError):
        response_at(spec, lam, zero_tol=1e-9)


def test_denominator_tolerance_scales_per_term():
    tol = denominator_tolerance(np.array([1.0, 15.0, 40.0, 0.2]), 600.0)
    bound = 1.0 + 15.0 * 600.0 + 40.0 * 600.0**2 + 0.2 * 600.0**3
    assert tol == pytest.approx(1e-10 * (1.0 + bound))
    assert tol < 1.0  # the guard must not reach the a0 = 1 value itself


# ------------------------------------------------------------ rank helper


def test_rank_full_on_distinct_spectra():
    # acceptance criterion 5 material: distinct eigenvalues give full rank
    rng = generator(31, "filters")
    for _ in range(50):
        n = int(rng.integers(5, 20))
        lam = np.sort(rng.uniform(0.1, 10.0, n))
        while np.any(np.diff(lam) < 1e-3):
            lam = np.sort(rng.uniform(0.1, 10.0, n))
        order = int(rng.integers(1, min(n - 1, 6)))
        assert numerical_rank(vandermonde(lam, order)) == order + 1
        assert numerical_rank(lpi_basis_from_eigenvalues(lam, order, 1e-12)) == order + 1


def test_rank_deficient_on_repeated_spectra():
    lam = np.array([0.5, 0.5, 0.5, 2.0, 2.0])
    v = vandermonde(lam, 3)
    assert numerical_rank(v) == 2  # only two distinct nodes
    b = lpi_basis_from_eigenvalues(lam, 3, 1e-12)
    assert numerical_rank(b) == 2
