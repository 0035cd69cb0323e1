"""Center-of-mass states of the 2-D harmonic trap.

The transverse CM wavefunction factorizes as A_{N,M}(r/w_r) e^{iM phi}/sqrt(2pi);
only radial moments of A are computed here -- the azimuthal quantum number enters
the coupling module through a Kronecker delta, and the phi integral is part
of the angular algebra there.  Radial moments are evaluated by Gauss-Laguerre
quadrature after u = x^2, where the integrand is exactly (polynomial) x
u^{a} e^{-u} and the rule is exact at modest node counts; the nodes and
weights come from the Golub-Welsch eigenproblem in numpy.  The same
eigenproblem gives the Gauss-Legendre rule of the lambda audit and of the
verifier's sphere quadrature, so no module needs numpy.polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from . import _lazy_numpy
from .specfun import assoc_laguerre, log_factorial

np = _lazy_numpy()

__all__ = ["CMState", "MAX_N_MINUS", "cm_moment", "gauss_legendre"]

# Largest radial quantum number n- = (N - |M|)/2 a CMState may have: the
# Golub-Welsch weights carry absolute, not relative, accuracy, and the tiny
# ones sit where the Laguerre product is huge.  Against exact arithmetic,
# at |M_f - M_i| <= 4, cm_moment's worst relative error is 1.6e-12 at
# n- = 10 and 2.7e-5 at n- = 12 (docs/AUDIT.md).
MAX_N_MINUS = 10


@dataclass(frozen=True)
class CMState:
    """Trap level |N, M>: N vibrational quanta, projection M, width w_r (au)."""

    N: int
    M: int
    w_r: float

    def __post_init__(self):
        if self.N < abs(self.M):
            raise ValueError(f"need N >= |M|, got N={self.N}, M={self.M}")
        if (self.N - abs(self.M)) % 2:
            raise ValueError(f"N - |M| must be even, got N={self.N}, M={self.M}")
        if self.n_minus > MAX_N_MINUS:
            raise ValueError(f"(N - |M|)/2 = {self.n_minus} exceeds {MAX_N_MINUS}, "
                             "beyond which the CM moments lose their digits")
        if self.w_r <= 0:
            raise ValueError(f"trap length must be positive, got {self.w_r}")

    @property
    def n_minus(self) -> int:
        return (self.N - abs(self.M)) // 2

    @property
    def n_plus(self) -> int:
        return (self.N + abs(self.M)) // 2


def _log_norm(s: CMState) -> float:
    # sqrt(2 n-! / n+!); |M| in the radial power keeps M < 0 normalizable
    return 0.5 * (math.log(2.0) + log_factorial(s.n_minus) - log_factorial(s.n_plus))


def _golub_welsch(diag: np.ndarray, off: np.ndarray,
                  mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of the orthogonal polynomials whose symmetric tridiagonal
    Jacobi matrix has diagonal `diag` and off-diagonal `off`: nodes are its
    eigenvalues, weights mu0 (the weight's total integral) times the squared
    first eigenvector components (Golub & Welsch, Math. Comp. 23, 221 (1969))."""
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x, v = np.linalg.eigh(jacobi)
    return x, mu0 * v[0] ** 2


@cache
def _gauss_laguerre(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Laguerre rule for the weight u^a e^{-u} on [0, inf);
    cached per (n, a), so the arrays are read-only."""
    k = np.arange(n, dtype=float)
    rule = _golub_welsch(2.0 * k + a + 1.0, np.sqrt(k[1:] * (k[1:] + a)),
                         math.gamma(a + 1.0))
    for arr in rule:
        arr.setflags(write=False)
    return rule


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1], nodes ascending."""
    k = np.arange(1, n, dtype=float)
    return _golub_welsch(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), 2.0)


def cm_moment(f: CMState, i: CMState, beta: int) -> float:
    """<f| x^beta |i> over the radial measure x dx (dimensionless; the caller
    owns the azimuthal delta).

    After u = x^2 the integrand is u^{(|Mf|+|Mi|+beta)/2} L_{nf} L_{ni} e^{-u}/2,
    handled exactly by generalized Gauss-Laguerre with the fractional part of
    the power as the weight exponent.
    """
    if beta < 0:
        raise ValueError("moment order must be non-negative")
    if f.w_r != i.w_r:
        raise ValueError(f"trap lengths differ: {f.w_r} vs {i.w_r}")
    a = 0.5 * (abs(f.M) + abs(i.M) + beta)
    npts = f.n_minus + i.n_minus + 2
    u, w = _gauss_laguerre(npts, a)
    lf = assoc_laguerre(f.n_minus, float(abs(f.M)), u)
    li = assoc_laguerre(i.n_minus, float(abs(i.M)), u)
    norm = math.exp(_log_norm(f) + _log_norm(i))
    return 0.5 * norm * float(np.dot(w, lf * li))

