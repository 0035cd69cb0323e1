"""Center-of-mass states of the 2-D harmonic trap.

The transverse CM wavefunction factorizes as A_{N,M}(r/w_r) e^{iM phi}/sqrt(2pi);
only radial moments of A are computed here -- the azimuthal quantum number enters
the coupling module through a Kronecker delta, and the phi integral is part
of the angular algebra there.  Radial moments are evaluated by Gauss-Laguerre
quadrature after u = x^2, where the integrand is exactly (polynomial) x
u^{a} e^{-u} and the rule is exact at modest node counts.  This module also
gives the Gauss-Legendre rule of the lambda audit and of the verifier's
sphere quadrature.  Both rules come from their polynomials' three-term
recurrences in plain Python, so no module needs numpy.polynomial or
numpy.linalg: LAPACK's first call costs a process about 1.3 MB of peak
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from . import _lazy_numpy
from .specfun import assoc_laguerre, log_factorial

np = _lazy_numpy()

__all__ = ["CMState", "MAX_N_MINUS", "cm_moment", "gauss_legendre"]

# Largest radial quantum number n- = (N - |M|)/2 a CMState may have.  The
# Christoffel weights keep their relative accuracy, so against exact
# arithmetic cm_moment's worst relative error at |M_f - M_i| <= 4 is 5e-14 at
# n- = 10 and under 1e-12 up to n- = 18 (docs/AUDIT.md); the cap could rise,
# but it decides which trap.N a config may take.
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


@cache
def _gauss_laguerre_unit(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the unit-mass weight u^a e^{-u}/Gamma(a+1) on
    [0, inf), nodes ascending; cached per (n, a), so the arrays are read-only.

    Sturm bisection isolates each node, bracketed Newton steps on the
    orthonormal polynomial p_n polish it, and its weight is the Christoffel
    number 1/sum_{k<n} p_k(u)^2, a sum of positive terms."""
    alpha = [2.0 * k + a + 1.0 for k in range(n)]
    beta = [math.sqrt(k * (k + a)) for k in range(n + 1)]

    def recurrence(x: float) -> tuple[float, float, float, int]:
        # p_n(x), p_n'(x), sum_{k<n} p_k(x)^2 and the nodes below x, which
        # are the sign agreements along p_0(x), ..., p_n(x) (Sturm)
        p0, p1, d0, d1, ss, count = 0.0, 1.0, 0.0, 0.0, 0.0, 0
        for al, b, b1 in zip(alpha, beta, beta[1:]):
            ss += p1 * p1
            p0, p1, d0, d1 = (p1, ((x - al) * p1 - b * p0) / b1,
                              d1, (p1 + (x - al) * d1 - b * d0) / b1)
            count += (p0 < 0.0) == (p1 < 0.0)
        return p1, d1, ss, count

    nodes, weights, next_lo = [], [], 0.0
    upper = [alpha[-1] + beta[n - 1] + beta[n]] * n    # above every node (Gershgorin)
    for k in range(n):
        lo, hi = next_lo, upper[k]
        while True:            # until [lo, hi] holds node k alone
            x = 0.5 * (lo + hi)
            p, dp, ss, count = recurrence(x)
            if count <= k:
                lo = x
            else:              # x is above nodes k, ..., count - 1
                hi = x
                upper[k + 1:count] = [x] * (count - k - 1)
            if count == k + 1:
                break
        next_lo, small = hi, False
        while not small:       # Newton steps that stay in [lo, hi], else bisection
            step = p / dp if dp else math.inf
            small = abs(step) <= 1e-10 * x
            x = x - step if small or lo < x - step < hi else 0.5 * (lo + hi)
            p, dp, ss, count = recurrence(x)
            lo, hi = (x, hi) if count <= k else (lo, x)
        nodes.append(x)
        weights.append(1.0 / ss)
    rule = np.array(nodes), np.array(weights)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1], nodes ascending: Newton's
    method on P_n from Tricomi's guesses for the nodes x >= 0 (the rule is
    symmetric), weights 2(1 - x^2)/(n (P_{n-1} - x P_n))^2."""
    nodes, weights = [], []
    for i in range((n + 1) // 2, 0, -1):
        x = (1.0 - (n - 1) / (8.0 * n ** 3)) * math.cos(math.pi * (i - 0.25) / (n + 0.5))
        step = math.inf
        while True:
            p0, p1 = 1.0, x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            dp = n * (p0 - x * p1)          # (1 - x^2) P_n'(x)
            if abs(step) <= 1e-10:
                break
            step = (1.0 - x * x) * p1 / dp
            x -= step
        nodes.append(x)
        weights.append(2.0 * (1.0 - x * x) / (dp * dp))
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate((-x[::-1], x[n % 2:])), np.concatenate((w[::-1], w[n % 2:]))


def cm_moment(f: CMState, i: CMState, beta: int) -> float:
    """<f| x^beta |i> over the radial measure x dx (dimensionless; the caller
    owns the azimuthal delta).

    After u = x^2 the integrand is u^a L_{nf} L_{ni} e^{-u}/2 with
    a = (|Mf|+|Mi|+beta)/2, handled exactly by the unit-mass Gauss-Laguerre
    rule of u^a e^{-u}.  Its mass Gamma(a+1) and the two norms go in through
    one exp of their logs, so no factorial overflows at large |M|.
    """
    if beta < 0:
        raise ValueError("moment order must be non-negative")
    if f.w_r != i.w_r:
        raise ValueError(f"trap lengths differ: {f.w_r} vs {i.w_r}")
    a = 0.5 * (abs(f.M) + abs(i.M) + beta)
    npts = f.n_minus + i.n_minus + 2
    u, w = _gauss_laguerre_unit(npts, a)
    lf = assoc_laguerre(f.n_minus, float(abs(f.M)), u)
    li = assoc_laguerre(i.n_minus, float(abs(i.M)), u)
    scale = math.exp(math.lgamma(a + 1.0) + _log_norm(f) + _log_norm(i))
    return 0.5 * scale * float(np.dot(w, lf * li))

