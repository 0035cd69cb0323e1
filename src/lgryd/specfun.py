"""Angular-momentum algebra and special functions.

All factorial-laden coefficients are evaluated in log space and exponentiated
once, so ranks up to l ~ 10 and envelope orders q ~ 8 survive without
overflow.  The Condon-Shortley phase is fixed globally here: every spherical
harmonic, 3j symbol and Gaunt coefficient in the package goes through this
module, so cross-module phase consistency reduces to this one convention.

Wigner 3j symbols use the Racah closed sum (no recursion) -- the ranks that
occur stay small (<~ 12), where the alternating sum is benign in log space.
Spherical Bessel functions use the three-term recurrence, upward or by
Miller's backward scheme (Gautschi 1967).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

__all__ = [
    "log_factorial",
    "log_gamma",
    "assoc_laguerre",
    "spherical_harmonic",
    "wigner3j",
    "clebsch_gordan",
    "gaunt",
    "multi_gaunt",
    "spherical_bessel",
]


# --------------------------------------------------------------------------
# factorials / gamma

@lru_cache(maxsize=2048)
def log_factorial(n: int) -> float:
    """ln(n!) for integer n >= 0."""
    if n < 0:
        raise ValueError(f"log_factorial of negative integer {n}")
    return math.lgamma(n + 1)


def log_gamma(x: float) -> float:
    """ln Gamma(x), x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def assoc_laguerre(n: int, a: float, x: float) -> float:
    """Generalized Laguerre polynomial L^a_n(x) by the stable three-term
    upward recurrence  (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}."""
    if n < 0:
        raise ValueError("Laguerre degree must be non-negative")
    if n == 0:
        return 1.0
    lm, lk = 1.0, 1.0 + a - x
    for k in range(1, n):
        lm, lk = lk, ((2 * k + 1 + a - x) * lk - (k + a) * lm) / (k + 1)
    return lk


# --------------------------------------------------------------------------
# spherical harmonics

def _norm_assoc_legendre(l: int, m: int, x: float) -> float:
    """Fully normalized associated Legendre P~_l^m(x), m >= 0, including the
    Condon-Shortley (-1)^m, such that Y_l^m = P~_l^m(cos th) e^{i m phi}."""
    # seed: P~_m^m = (-1)^m sqrt((2m+1)!/(4 pi)) / (2^m m!) * (1-x^2)^{m/2}
    sin2 = max(1.0 - x * x, 0.0)
    if m > 0 and sin2 == 0.0:
        return 0.0
    log_seed = 0.5 * (log_factorial(2 * m + 1) - math.log(4 * math.pi)) \
        - m * math.log(2.0) - log_factorial(m) + 0.5 * m * math.log(sin2 if m else 1.0)
    pmm = (-1.0) ** m * math.exp(log_seed)
    if l == m:
        return pmm
    pm1 = math.sqrt(2 * m + 3.0) * x * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = math.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        pmm, pm1 = pm1, a * (x * pm1 - b * pmm)
    return pm1


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Y_l^m(theta, phi), Condon-Shortley convention, unit L2 norm on the sphere."""
    if abs(m) > l:
        raise ValueError(f"|m| <= l violated: (l, m) = ({l}, {m})")
    am = abs(m)
    p = _norm_assoc_legendre(l, am, math.cos(theta))
    if m < 0:
        p *= (-1.0) ** am  # Y_l^{-m} = (-1)^m conj(Y_l^m)
    return p * complex(math.cos(m * phi), math.sin(m * phi))


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
                w = ((-1.0) ** Mp
                     * math.sqrt((2 * L + 1) * (2 * lf + 1) * (2 * Lp + 1)
                                 / (4.0 * math.pi))
                     * wigner3j(L, lf, Lp, 0, 0, 0)
                     * wigner3j(L, lf, Lp, M, mf, -Mp))
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

def spherical_bessel(p: int, x: float) -> float:
    """j_p(x) by the three-term recurrence j_{k+1} = (2k+1)/x j_k - j_{k-1}
    (Gautschi, SIAM Rev. 9, 24 (1967)).

    Small arguments take the power series to dodge cancellation.  For
    |x| > p the recurrence runs upward from j_0 = sin x / x and
    j_1 = (j_0 - cos x)/x, where it is stable; otherwise Miller's backward
    recurrence runs down from an order well above p and is scaled to
    whichever of j_0, j_1 is larger.  Above the series range p = 0 returns
    sin x / x.
    """
    if p < 0:
        raise ValueError("order must be non-negative")
    ax = abs(x)
    if ax == 0.0:
        return 1.0 if p == 0 else 0.0
    if ax < 1e-3:
        # j_p(x) = x^p/(2p+1)!! [1 - x^2/(2(2p+3)) + x^4/(8(2p+3)(2p+5))]
        log_dfact = log_factorial(2 * p + 1) - p * math.log(2.0) - log_factorial(p)
        lead = math.exp(p * math.log(ax) - log_dfact) if p else 1.0
        x2 = x * x
        series = 1.0 - x2 / (2.0 * (2 * p + 3)) + x2 * x2 / (8.0 * (2 * p + 3) * (2 * p + 5))
        val = lead * series
        return val * (-1.0) ** p if (x < 0 and p % 2) else val
    if ax > p:
        s0 = math.sin(x) / x
        if p == 0:
            return s0
        s1 = (s0 - math.cos(x)) / x
        for k in range(1, p):
            s0, s1 = s1, (2 * k + 1) * s1 / x - s0
        return s1
    # backward from j_{top+1} = 0, j_top = 1; rescaled like the Numerov tail
    nxt, cur, jp = 0.0, 1.0, 0.0
    for k in range(p + int(ax) + 20, 0, -1):
        nxt, cur = cur, (2 * k + 1) * cur / ax - nxt
        if k - 1 == p:
            jp = cur
        if abs(cur) > 1e250:
            nxt, cur, jp = nxt * 1e-250, cur * 1e-250, jp * 1e-250
    s0 = math.sin(ax) / ax
    if abs(cur) >= abs(nxt):              # cur = j_0, nxt = j_1, both unscaled
        val = jp * (s0 / cur)
    else:                                 # near a zero of j_0
        val = jp * ((s0 - math.cos(ax)) / ax / nxt)
    return -val if (x < 0 and p % 2) else val
