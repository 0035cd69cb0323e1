"""Angular-momentum algebra and special functions.

All factorial-laden coefficients are evaluated in log space and exponentiated
once, so ranks up to l ~ 10 and envelope orders q ~ 8 survive without
overflow.  The Condon-Shortley phase is fixed globally here: every 3j symbol
and Gaunt coefficient in the package goes through this module (the explicit
spherical harmonics that check them live in the verifier, in the same
convention), so cross-module phase consistency reduces to this one
convention.

Wigner 3j symbols use the Racah closed sum (no recursion) -- the ranks that
occur stay small (<~ 12), where the alternating sum is benign in log space.
The plane-wave factor enters at order 0 only, so the one spherical Bessel
function here is j_0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from . import _lazy_numpy

np = _lazy_numpy()

__all__ = [
    "log_factorial",
    "assoc_laguerre",
    "wigner3j",
    "clebsch_gordan",
    "gaunt",
    "multi_gaunt",
    "spherical_bessel",
]


# --------------------------------------------------------------------------
# factorials

@lru_cache(maxsize=2048)
def log_factorial(n: int) -> float:
    """ln(n!) for integer n >= 0."""
    if n < 0:
        raise ValueError(f"log_factorial of negative integer {n}")
    return math.lgamma(n + 1)


def assoc_laguerre(n: int, a: float, x: float | np.ndarray) -> float | np.ndarray:
    """Generalized Laguerre polynomial L^a_n(x) by the stable three-term
    upward recurrence  (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}.

    x is a number or a numpy array.  An array runs the same operations in
    the same order elementwise, so each element is bit-identical to the
    scalar result at that point; n = 0 gives ones shaped like x."""
    if n < 0:
        raise ValueError("Laguerre degree must be non-negative")
    if n == 0:
        return 1.0 if isinstance(x, (int, float)) else np.ones_like(x, dtype=float)
    lm, lk = 1.0, 1.0 + a - x
    for k in range(1, n):
        lm, lk = lk, ((2 * k + 1 + a - x) * lk - (k + a) * lm) / (k + 1)
    return lk


# --------------------------------------------------------------------------
# 3j / Clebsch-Gordan / Gaunt

def _two_j(x: float, what: str) -> int:
    t = 2.0 * x
    ti = round(t)
    if abs(t - ti) > 1e-9:
        raise ValueError(f"{what} must be (half-)integer, got {x}")
    return int(ti)


@lru_cache(maxsize=2048)
def wigner3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3j symbol by the Racah sum, log-factorial evaluation.

    Selection-rule violations (triangle, projection sum, |m| > j) return 0;
    non-half-integer arguments raise.
    """
    tj1, tj2, tj3 = _two_j(j1, "j1"), _two_j(j2, "j2"), _two_j(j3, "j3")
    tm1, tm2, tm3 = _two_j(m1, "m1"), _two_j(m2, "m2"), _two_j(m3, "m3")
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        raise ValueError("m must differ from j by an integer")
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if tj3 > tj1 + tj2 or tj3 < abs(tj1 - tj2) or (tj1 + tj2 + tj3) % 2:
        return 0.0

    def lf2(t: int) -> float:  # ln((t/2)!) for even non-negative t
        return log_factorial(t // 2)

    log_pre = 0.5 * (
        lf2(tj1 + tj2 - tj3) + lf2(tj1 - tj2 + tj3) + lf2(-tj1 + tj2 + tj3)
        - lf2(tj1 + tj2 + tj3 + 2)
        + lf2(tj1 + tm1) + lf2(tj1 - tm1)
        + lf2(tj2 + tm2) + lf2(tj2 - tm2)
        + lf2(tj3 + tm3) + lf2(tj3 - tm3)
    )
    k_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    k_max = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    # alternating Racah sum, factored against its largest term
    logs, signs = [], []
    for k in range(k_min, k_max + 1):
        lt = -(
            log_factorial(k)
            + lf2(tj1 + tj2 - tj3 - 2 * k)
            + lf2(tj1 - tm1 - 2 * k)
            + lf2(tj2 + tm2 - 2 * k)
            + lf2(tj3 - tj2 + tm1 + 2 * k)
            + lf2(tj3 - tj1 - tm2 + 2 * k)
        )
        logs.append(lt)
        signs.append(-1.0 if k % 2 else 1.0)
    if not logs:
        return 0.0
    top = max(logs)
    ssum = sum(s * math.exp(lt - top) for s, lt in zip(signs, logs))
    phase = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    return phase * ssum * math.exp(log_pre + top)


def clebsch_gordan(l, s, ml, ms, j, mj) -> float:
    """<l ml; s ms | j mj> through the 3j relation; mj != ml + ms gives 0."""
    if abs(ml + ms - mj) > 1e-9:
        return 0.0
    tphase = _two_j(l, "l") - _two_j(s, "s") + _two_j(mj, "mj")
    phase = -1.0 if (tphase // 2) % 2 else 1.0
    return phase * math.sqrt(2.0 * j + 1.0) * wigner3j(l, s, j, ml, ms, -mj)


def gaunt(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Integral of Y_{l1}^{m1} Y_{l2}^{m2} Y_{l3}^{m3} over the sphere."""
    if m1 + m2 + m3 != 0:
        return 0.0
    pre = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
    return pre * wigner3j(l1, l2, l3, 0, 0, 0) * wigner3j(l1, l2, l3, m1, m2, m3)


def multi_gaunt(factors: Sequence, bra, ket) -> float:
    """Solid-angle integral of conj(Y_bra) * prod(factors) * Y_ket.

    The factor list (<= 5 in this package: the dipole sigma-harmonic, the
    plane-wave p-harmonic and up to three expansion harmonics) is reduced
    left to right: each pair of harmonics is re-expanded in single harmonics
    through Gaunt coefficients.  The reduction order is immaterial (tested);
    selection failures simply return 0.
    """
    (lb, mb), (lk, mk) = bra, ket
    if not factors:
        return 1.0 if (lb, mb) == (lk, mk) else 0.0
    # branches: coefficient of Y_L^M in the partially reduced product
    branches = {tuple(factors[0]): 1.0}
    for lf, mf in factors[1:]:
        nxt: dict[tuple[int, int], float] = {}
        for (L, M), c in branches.items():
            Mp = M + mf
            for Lp in range(abs(L - lf), L + lf + 1):
                if (L + lf + Lp) % 2 or abs(Mp) > Lp:
                    continue
                w = (-1.0) ** Mp * gaunt(L, M, lf, mf, Lp, -Mp)
                if w != 0.0:
                    nxt[(Lp, Mp)] = nxt.get((Lp, Mp), 0.0) + c * w
        branches = nxt
    out = 0.0
    sgn = (-1.0) ** mb
    for (L, M), c in branches.items():
        out += c * sgn * gaunt(lb, -mb, L, M, lk, mk)
    return out


# --------------------------------------------------------------------------
# spherical Bessel

def spherical_bessel(x):
    """j_0(x) = sin x / x; below |x| = 1e-3 the power series
    1 - x^2/6 + x^4/120 dodges the cancellation.  x may be a scalar or an
    array; a scalar comes back as a float.  Each element takes the IEEE
    operations of the scalar formula, so the two forms agree bit for bit."""
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.reshape(-1)
    x2 = x * x
    j0 = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    np.divide(np.sin(x), x, out=j0, where=np.abs(x) >= 1e-3)
    return j0.reshape(shape) if shape else float(j0[0])
