"""Independent oracles used across the test suite.

Everything here is deliberately implemented by a *different* route than the
package code it checks: brute-force coefficient sums, direct quadrature,
closed-form hydrogen states, sympy's exact angular momentum algebra, and
the nested-loop channel enumerator the package used to run.
Slow is fine; these only run under pytest.
"""

from __future__ import annotations

import math

import numpy as np

from lgryd.coupling import Channel, StateLabel, _angular_and_cg


def laguerre_coeff_sum(n: int, a: float, x: float) -> float:
    """L^a_n(x) from the explicit coefficient sum (binomial form).

    The alternating sum cancels badly in double precision for n*x large, so
    it is carried out at 50 digits; the result is exact to double.
    """
    import mpmath

    with mpmath.workdps(50):
        xm, am = mpmath.mpf(x), mpmath.mpf(a)
        tot = mpmath.mpf(0)
        for k in range(n + 1):
            c = mpmath.gamma(n + am + 1) / (
                mpmath.factorial(n - k) * mpmath.gamma(am + k + 1)
                * mpmath.factorial(k))
            tot += c * (-xm) ** k
        return float(tot)


def sphere_integral_simpson(fn, n_theta: int = 201, n_phi: int = 256) -> complex:
    """Direct Simpson x trapezoid integral of fn(theta, phi) over 4pi.

    Independent of the Gauss-Legendre quadrature shipped in the package.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    vals = np.empty((n_theta, n_phi), dtype=complex)
    for i, th in enumerate(thetas):
        s = math.sin(th)
        for j, ph in enumerate(phis):
            vals[i, j] = fn(th, ph) * s
    row = vals.sum(axis=1) * (2.0 * math.pi / n_phi)
    # composite Simpson over theta (n_theta odd)
    h = math.pi / (n_theta - 1)
    w = np.ones(n_theta)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * complex(np.dot(w, row))


def hydrogen_radial(n: int, l: int, r: np.ndarray) -> np.ndarray:
    """Closed-form hydrogen R_nl(r), Z = 1, atomic units."""
    from scipy.special import genlaguerre

    rho = 2.0 * r / n
    log_norm = 0.5 * (
        math.log(4.0 / n**4)
        + math.lgamma(n - l) - math.lgamma(n + l + 1)
    )
    lag = genlaguerre(n - l - 1, 2 * l + 1)(rho)
    return np.exp(log_norm + l * np.log(rho) - rho / 2.0) * lag / n ** 0


def hydrogen_expectation_r(n: int, l: int) -> float:
    """<r> = (3n^2 - l(l+1))/2 for hydrogen, atomic units."""
    return 0.5 * (3.0 * n * n - l * (l + 1))


def cm_amplitude(s, r_cm: float) -> float:
    """Radial amplitude A_{N,M}(x) of the CM state s, x = r_cm/w_r, with
    int A^2 r dr = 1; the pointwise form of what lgryd.cm.cm_moment
    integrates."""
    from lgryd.cm import _log_norm
    from lgryd.specfun import assoc_laguerre

    if r_cm < 0:
        raise ValueError("radius must be non-negative")
    x = r_cm / s.w_r
    am = abs(s.M)
    if x == 0.0:
        if am > 0:
            return 0.0
        return math.exp(_log_norm(s)) * assoc_laguerre(s.n_minus, 0.0, 0.0) / s.w_r
    return (math.exp(_log_norm(s) + am * math.log(x) - 0.5 * x * x)
            * assoc_laguerre(s.n_minus, float(am), x * x) / s.w_r)


def cm_moment_series(Nf: int, Mf: int, Ni: int, Mi: int, power: int,
                     n_terms_guard: int = 0) -> float:
    """<Nf Mf| x^power |Ni Mi> for the radial 2-D oscillator (w_r = 1) by
    expanding both Laguerre factors into coefficient sums and integrating
    each resulting Gamma term exactly.

        integral_0^inf x^{|Mf|+|Mi|+power} L^{|Mf|}_{nf}(x^2) L^{|Mi|}_{ni}(x^2)
                e^{-x^2} x dx   ->  u = x^2 Gamma integrals
    """
    nf, ni = (Nf - abs(Mf)) // 2, (Ni - abs(Mi)) // 2
    norm = math.exp(0.5 * (
        math.log(2.0) + math.lgamma(nf + 1) - math.lgamma(nf + abs(Mf) + 1)
        + math.log(2.0) + math.lgamma(ni + 1) - math.lgamma(ni + abs(Mi) + 1)
    ))
    s = 0.0
    for j in range(nf + 1):
        cj = math.exp(
            math.lgamma(nf + abs(Mf) + 1) - math.lgamma(nf - j + 1)
            - math.lgamma(abs(Mf) + j + 1) - math.lgamma(j + 1)
        ) * (-1.0) ** j
        for k in range(ni + 1):
            ck = math.exp(
                math.lgamma(ni + abs(Mi) + 1) - math.lgamma(ni - k + 1)
                - math.lgamma(abs(Mi) + k + 1) - math.lgamma(k + 1)
            ) * (-1.0) ** k
            # integral_0^inf u^{(|Mf|+|Mi|+power)/2 + j + k} e^{-u} du / 2
            expo = (abs(Mf) + abs(Mi) + power) / 2.0 + j + k
            s += cj * ck * 0.5 * math.exp(math.lgamma(expo + 1.0))
    return norm * s


def sympy_wigner3j(j1, j2, j3, m1, m2, m3) -> float:
    from sympy import Rational
    from sympy.physics.wigner import wigner_3j

    def q(x):
        return Rational(int(round(2 * x)), 2)

    return float(wigner_3j(q(j1), q(j2), q(j3), q(m1), q(m2), q(m3)))


# The channel enumerator as it was before each channel block listed its open
# final labels once: every (l_f, j_f) of every block is rebuilt and
# angular-checked for each charge l, through the uncached angular factor.
def enumerate_channels_nested(beam: BeamSpec, initial: StateLabel,
                              initial_cm: CMState, final_l_f_max: int = 3,
                              j_policy: str = "stretched",
                              include_elastic: bool = False) -> list[Channel]:
    """All index tuples compatible with the selection deltas from the
    initial label, each paired with every angular-reachable final label, in
    the lexicographic order (q, l1, l2, l3, sigma, l_f, j_f) the loops run
    in (sigma is the beam's).  A channel fixes the initial m_j and the final
    CM state that `assemble` takes."""
    if j_policy not in ("stretched", "all"):
        raise ValueError(f"unknown j_policy {j_policy!r}")
    l, sigma = beam.l, beam.sigma
    l_i, j_i, m_ji = initial.l, initial.j, initial.m_j
    M_i = initial_cm.M
    sign_l = (l > 0) - (l < 0)
    out = []
    for q in range(beam.q_max + 1):
        for l1 in range(abs(l) + 1):
            for l2 in range(q + 1):
                for l3 in range(q + 1):
                    m1, m2, m3 = sign_l * l1, l2, -l3
                    M_f = l - m1 - m2 - m3 + M_i
                    m_jf = m_ji + sigma + m1 + m2 + m3
                    parity = (l_i + 1 + l1 + l2 + l3) % 2
                    # past l_i + 1 + l1 + l2 + l3 the triangle rule closes l_f
                    top = min(final_l_f_max, l_i + 1 + l1 + l2 + l3)
                    for l_f in range(top + 1):
                        if l_f % 2 != parity:
                            continue
                        if j_policy == "stretched":
                            j_fs = (l_f + 0.5,)
                        else:
                            j_fs = tuple(j for j in (l_f - 0.5, l_f + 0.5) if j > 0)
                        for j_f in j_fs:
                            if abs(m_jf) > j_f + 1e-9:
                                continue
                            if _angular_and_cg.__wrapped__(
                                    sigma, l1, m1, l2, l3, l_f, j_f, m_jf,
                                    l_i, j_i)[0] == 0.0:
                                continue   # angular selection closes this l_f
                            if not include_elastic and l_f == l_i and \
                                    abs(j_f - j_i) < 1e-9 and \
                                    abs(m_jf - m_ji) < 1e-9 and M_f == M_i:
                                continue
                            out.append(Channel(
                                l=l, sigma=sigma, q=q, l1=l1, l2=l2, l3=l3,
                                M_i=M_i, final=StateLabel(l_f, j_f, m_jf)))
    return out
