"""Graph-filter families and their frequency responses.

A graph filter acts on a signal as ``V diag(h(lam)) V^T x`` where ``h`` is its
scalar frequency response evaluated at the Laplacian eigenvalues. Four
families are supported:

``lpi``
    Polynomial in the Laplacian pseudo-inverse: response ``taps[0]`` at the
    zero eigenvalue and ``sum_k taps[k] * lam**(-k)`` elsewhere. Requires a
    connected graph.
``arma``
    Rational response ``(sum_q c[q] lam**q) / (1 + sum_r a[r] lam**r)`` with
    the leading denominator coefficient pinned to one.
``linear``
    Polynomial response ``sum_q c[q] lam**q``; the ``arma`` special case with
    a trivial denominator, kept as its own kind.
``lr-arma``
    The rational response on the lowest ``cutoff`` frequencies and exactly
    zero above them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import UnstableFilterError
from .graphs import SpectralGraph, _filter_operator, gft, igft

FILTER_KINDS = ("lpi", "arma", "linear", "lr-arma")

# Relative threshold below which a rational denominator counts as vanishing.
_DENOM_RTOL = 1e-10
# Relative singular-value threshold for numerical rank decisions.
RANK_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Immutable description of one graph filter.

    ``taps`` holds the pseudo-inverse polynomial coefficients for kind
    ``lpi``; ``numerator``/``denominator`` hold the rational coefficients for
    the other kinds (``denominator[0]`` is always exactly 1). ``cutoff`` is
    the kept-frequency count for kind ``lr-arma`` and None otherwise.
    """

    kind: str
    taps: np.ndarray | None = None
    numerator: np.ndarray | None = None
    denominator: np.ndarray | None = None
    cutoff: int | None = None

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "lpi":
            if self.taps is None or self.numerator is not None:
                raise ValueError("lpi filters take taps only")
            taps = np.atleast_1d(np.asarray(self.taps, dtype=float))
            if taps.size == 0:
                raise ValueError("taps must not be empty")
            object.__setattr__(self, "taps", taps)
        else:
            if self.taps is not None or self.numerator is None:
                raise ValueError(f"{self.kind} filters take numerator/denominator")
            num = np.atleast_1d(np.asarray(self.numerator, dtype=float))
            if num.size == 0:
                raise ValueError("numerator must not be empty")
            den = (
                np.ones(1)
                if self.denominator is None
                else np.atleast_1d(np.asarray(self.denominator, dtype=float))
            )
            if den[0] != 1.0:
                raise ValueError("denominator[0] must be exactly 1")
            if self.kind == "linear" and den.size != 1:
                raise ValueError("linear filters have a trivial denominator")
            object.__setattr__(self, "numerator", num)
            object.__setattr__(self, "denominator", den)
        if self.kind == "lr-arma":
            if self.cutoff is None or int(self.cutoff) < 1:
                raise ValueError("lr-arma needs a positive cutoff")
            object.__setattr__(self, "cutoff", int(self.cutoff))
        elif self.cutoff is not None:
            raise ValueError(f"{self.kind} filters take no cutoff")

    @classmethod
    def lpi(cls, taps) -> "FilterSpec":
        return cls("lpi", taps=taps)

    @classmethod
    def arma(cls, numerator, denominator) -> "FilterSpec":
        return cls("arma", numerator=numerator, denominator=denominator)

    @classmethod
    def linear(cls, numerator) -> "FilterSpec":
        return cls("linear", numerator=numerator)

    @classmethod
    def lr_arma(cls, numerator, denominator, cutoff: int) -> "FilterSpec":
        return cls("lr-arma", numerator=numerator, denominator=denominator, cutoff=cutoff)


def vandermonde(eigenvalues: np.ndarray, order: int) -> np.ndarray:
    """Ascending-power Vandermonde matrix, column ``j`` is ``lam**j``."""
    lam = np.asarray(eigenvalues, dtype=float)
    if order < 0:
        raise ValueError("order must be non-negative")
    return np.vander(lam, order + 1, increasing=True)


def lpi_basis_from_eigenvalues(
    eigenvalues: np.ndarray, order: int, zero_tol: float
) -> np.ndarray:
    """Pseudo-inverse power basis: row ``n``, column ``k`` is ``lam[n]**(-k)``
    for positive eigenvalues, and ``(1, 0, ..., 0)`` on the zero eigenvalue.

    The :func:`vandermonde` matrix of ``1/lam``, taken as 0 on the zero
    group. Eigenvalues other than the zero group must be strictly positive.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    zero = np.abs(lam) <= zero_tol
    if np.any(lam[~zero] <= 0):
        raise UnstableFilterError("inverse-spectrum basis needs positive eigenvalues")
    inv = np.zeros_like(lam)
    inv[~zero] = 1.0 / lam[~zero]
    return vandermonde(inv, order)


def lpi_basis(sg: SpectralGraph, order: int) -> np.ndarray:
    """Pseudo-inverse power basis at the graph's eigenvalues (connected graph,
    ``order < n``)."""
    if not sg.is_connected():
        raise UnstableFilterError("inverse-spectrum filters need a connected graph")
    if order >= sg.n_vertices:
        raise ValueError("order must be below the number of vertices")
    return lpi_basis_from_eigenvalues(sg.eigenvalues, order, sg.zero_tolerance())


def denominator_tolerance(denominator: np.ndarray, lam_max: float) -> float:
    """Magnitude below which a rational denominator counts as vanishing.

    Scaled per term: 1e-10 of the polynomial's largest possible magnitude on
    [0, lam_max] given its coefficients, so only cancellation-level values
    trip it. A cruder all-terms-at-lam_max^order bound turns the guard into
    an active constraint on fitted low-order coefficients.
    """
    a = np.abs(np.asarray(denominator, dtype=float))
    scale = max(lam_max, 1.0) ** np.arange(a.size)
    return _DENOM_RTOL * (1.0 + float(a @ scale))


def _rational_response(
    numerator: np.ndarray, denominator: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    num = vandermonde(lam, numerator.size - 1) @ numerator
    den = vandermonde(lam, denominator.size - 1) @ denominator
    tol = denominator_tolerance(denominator, float(np.max(lam, initial=0.0)))
    if np.any(np.abs(den) <= tol):
        raise UnstableFilterError("rational denominator vanishes on the spectrum")
    return num / den


def response_at(spec: FilterSpec, eigenvalues: np.ndarray, zero_tol: float) -> np.ndarray:
    """Frequency response of ``spec`` at arbitrary ascending eigenvalues."""
    lam = np.asarray(eigenvalues, dtype=float)
    if spec.kind == "lpi":
        basis = lpi_basis_from_eigenvalues(lam, spec.taps.size - 1, zero_tol)
        return basis @ spec.taps
    if spec.kind in ("arma", "linear"):
        return _rational_response(spec.numerator, spec.denominator, lam)
    # lr-arma: rational on the kept band, identically zero above it
    kept = min(spec.cutoff, lam.size)
    out = np.zeros(lam.size)
    out[:kept] = _rational_response(spec.numerator, spec.denominator, lam[:kept])
    return out


def response(spec: FilterSpec, sg: SpectralGraph) -> np.ndarray:
    """Frequency response of ``spec`` on the graph's spectrum."""
    if spec.kind == "lpi" and not sg.is_connected():
        raise UnstableFilterError("inverse-spectrum filters need a connected graph")
    return response_at(spec, sg.eigenvalues, sg.zero_tolerance())


def apply_filter(spec: FilterSpec, sg: SpectralGraph, signal: np.ndarray) -> np.ndarray:
    """Filter a signal (or rows of signals) through ``spec`` on ``sg``."""
    resp = response(spec, sg)
    return igft(sg, gft(sg, signal) * resp)


def filter_matrix(spec: FilterSpec, sg: SpectralGraph) -> np.ndarray:
    """Dense operator ``V diag(response) V^T``."""
    return _filter_operator(sg.eigenvectors, response(spec, sg))


def numerical_rank(matrix: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank by singular values above ``rtol`` times the largest."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rtol * svals[0]))


def spec_to_json(spec: FilterSpec) -> str:
    """Serialize a filter spec as a JSON object of its set (non-None) fields,
    by name in field order (floats keep full precision)."""
    values = ((f.name, getattr(spec, f.name)) for f in fields(spec))
    return json.dumps({name: v.tolist() if isinstance(v, np.ndarray) else v
                       for name, v in values if v is not None})


def spec_from_json(text: str) -> FilterSpec:
    """Inverse of :func:`spec_to_json`; round trips bit-exactly. Text that is
    not a JSON object of :class:`FilterSpec` fields with a ``kind`` (an
    unknown field included) is a ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError(f"a filter spec is a JSON object with a kind, not {text[:40]}")
    unknown = doc.keys() - {f.name for f in fields(FilterSpec)}
    if unknown:
        raise ValueError(f"unknown filter spec fields {sorted(unknown)}")
    return FilterSpec(**doc)
