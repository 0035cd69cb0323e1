"""Laguerre-Gaussian beam parameters and its solid-harmonic expansion weights.

The l-charged LG mode at its waist,

    E(rho, phi, z) = E0 sqrt(2/(pi |l|!)) (rho sqrt2/w0)^{|l|}
                     e^{-rho^2/w0^2} e^{i l phi} e^{i k z},

is rewritten as a finite sum of products of three regular solid harmonics:
one carrying the vortex (rank |l|, projection l) and a (+q, -q) pair per
envelope order that carries no net projection, weighted by f(l, q).  The
solid-harmonic normalization used throughout is the multiplicative form

    R^m_l = C^m_l r^l Y^m_l,   C^m_l = sqrt(4 pi (l-m)! (l+m)! / (2l+1)),

which is the (unique) reading of the mixed-notation normalization that makes
the expansion and the translation theorem close as identities; the
cylindrical monomials it produces are R^{+1}_1 = -(x+iy), R^{-1}_1 = x-iy,
R^0_1 = z.  The expansion itself and the translation theorem are evaluated
only by the oracles in :mod:`lgryd.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .specfun import log_factorial

__all__ = ["BeamSpec", "solid_norm", "f_coeff", "g_coeff"]


@dataclass(frozen=True)
class BeamSpec:
    """LG beam parameters, all in atomic units.

    sigma labels the spherical polarization component eps_sigma picked up by
    the dipole operator; mass_ratio is m_core/m_total multiplying the
    electron coordinate in the translation step (~1 for any real atom).
    """

    l: int
    w0: float
    E0: float
    sigma: int
    k: float = 0.0
    q_max: int = 1
    mass_ratio: float = 1.0

    def __post_init__(self):
        if self.w0 <= 0:
            raise ValueError(f"waist must be positive, got {self.w0}")
        if self.E0 < 0:
            raise ValueError(f"field amplitude must be non-negative, got {self.E0}")
        if self.sigma not in (-1, 0, 1):
            raise ValueError(f"polarization index must be -1, 0 or +1, got {self.sigma}")
        if self.q_max < 0:
            raise ValueError(f"q_max must be non-negative, got {self.q_max}")
        if not 0.0 < self.mass_ratio <= 1.0:
            raise ValueError(f"mass ratio out of (0, 1]: {self.mass_ratio}")


@cache
def solid_norm(l: int, m: int) -> float:
    """C^m_l = sqrt(4 pi (l-m)! (l+m)! / (2l+1))."""
    if abs(m) > l:
        raise ValueError(f"|m| <= l violated: ({l}, {m})")
    return math.exp(0.5 * (
        math.log(4.0 * math.pi) + log_factorial(l - m) + log_factorial(l + m)
        - math.log(2.0 * l + 1.0)))


def f_coeff(l: int, q: int, w0: float = 1.0) -> float:
    """Expansion weight of the q-th envelope order.

    f(l,q) = 4^q q! / (w0^{2q+|l|} ((2q)!)^2 (2|l|)!) * sqrt(2^{3|l|+1} |l|! / pi)
    """
    if q < 0:
        raise ValueError("envelope order q must be non-negative")
    al = abs(l)
    log_f = (q * math.log(4.0) + log_factorial(q)
             - (2 * q + al) * math.log(w0)
             - 2.0 * log_factorial(2 * q) - log_factorial(2 * al)
             + 0.5 * ((3 * al + 1) * math.log(2.0) + log_factorial(al)
                      - math.log(math.pi)))
    return math.exp(log_f)


def g_coeff(l: int, q: int, w_r: float, w0: float) -> float:
    """Trap-side coupling weight: f(l,q) with the field waist replaced by the
    dimensionless ratio against the CM width,

    g(l,q) = pi (w_r/w0)^{2q+|l|} [4^q q!/((2q)!)^2 (2|l|)!] sqrt(2^{3|l|+1}|l|!/3)
           = pi^{3/2}/sqrt(3) * f(l,q) * w_r^{2q+|l|}.
    """
    if w_r <= 0 or w0 <= 0:
        raise ValueError("widths must be positive")
    return (math.pi ** 1.5 / math.sqrt(3.0)
            * f_coeff(l, q, w0=w0) * w_r ** (2 * q + abs(l)))
