"""Built-in verification suites and the oracles only they use.

Each suite re-derives a package result by an independent route (closed
forms, quadrature, exact integrals) and reports the worst residual.  These
back the `verify` subcommand; the same checks run with tighter harnesses in
the test suite.  The oracles -- the closed LG profile, explicit spherical
harmonics, the evaluated solid-harmonic expansion, the translation (addition)
theorem and a sphere quadrature -- live here because no channel, Rabi or sweep
result depends on them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .atom import default_grid, load_species, radial_matrix_element, solve_radial
from .beam import BeamSpec, f_coeff, solid_norm
from .cm import CMState, cm_moment, gauss_legendre
from .coupling import lambda_integral_oracle
from .specfun import assoc_laguerre, log_factorial, multi_gaunt


# --------------------------------------------------------------------------
# oracles: the LG field as a solid-harmonic series, and the translation
# theorem (normalization and conventions in lgryd.beam)

@dataclass(frozen=True)
class SolidHarmonicTerm:
    """One factor R^m_l, with a scalar weight folded into `coefficient`."""

    l: int
    m: int
    coefficient: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.l < 0 or abs(self.m) > self.l:
            raise ValueError(f"bad solid-harmonic indices (l, m) = ({self.l}, {self.m})")


class ExpansionTerm(NamedTuple):
    q: int
    weight: float
    harmonics: tuple  # (vortex, envelope+, envelope-)


@dataclass(frozen=True)
class ExpansionCheck:
    residual: float
    relative: bool  # False when the reference field vanished at the probe


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


def solid_harmonic(l: int, m: int, vec: Sequence[float]) -> complex:
    """R^m_l evaluated at a Cartesian point."""
    x, y, z = vec
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0:
        return 1.0 + 0.0j if l == 0 else 0.0j
    theta = math.acos(max(-1.0, min(1.0, z / r)))
    phi = math.atan2(y, x)
    return solid_norm(l, m) * r ** l * spherical_harmonic(l, m, theta, phi)


def lg_amplitude(spec: BeamSpec, rho: float, phi: float, z: float) -> complex:
    """Waist-plane LG profile times the propagation phase e^{ikz}."""
    al = abs(spec.l)
    if rho == 0.0 and al > 0:
        return 0.0j
    pre = math.sqrt(2.0 / math.pi * math.exp(-log_factorial(al)))
    radial = (rho * math.sqrt(2.0) / spec.w0) ** al * math.exp(-(rho / spec.w0) ** 2)
    return spec.E0 * pre * radial * cmath.exp(1j * (spec.l * phi + spec.k * z))


def expand_field(spec: BeamSpec) -> tuple[ExpansionTerm, ...]:
    """Solid-harmonic series of the LG profile, truncated at q_max.

    Each term is f(l,q) * [s_l R^l_{|l|}] * R^q_q * R^{-q}_q with
    s_l = (-1)^{|l|} for l > 0 and +1 otherwise: the m = +|l| harmonic
    carries the Condon-Shortley sign, which s_l cancels so the series
    reproduces the (sign-free) cylindrical profile exactly.  The envelope
    pair carries zero net projection at every order.
    """
    al = abs(spec.l)
    s_l = (-1.0) ** al if spec.l > 0 else 1.0
    out = []
    for q in range(spec.q_max + 1):
        harms = (
            SolidHarmonicTerm(al, spec.l, complex(s_l)),
            SolidHarmonicTerm(q, q),
            SolidHarmonicTerm(q, -q),
        )
        out.append(ExpansionTerm(q, f_coeff(spec.l, q, w0=spec.w0), harms))
    return tuple(out)


def evaluate_expansion(spec: BeamSpec, r: float, theta: float, phi: float) -> complex:
    """Numeric value of the truncated series at a spherical point, with the
    same e^{ikz} propagation factor as lg_amplitude."""
    vec = (r * math.sin(theta) * math.cos(phi),
           r * math.sin(theta) * math.sin(phi),
           r * math.cos(theta))
    total = 0.0j
    for _, weight, harms in expand_field(spec):
        prod = complex(weight)
        for t in harms:
            prod *= t.coefficient * solid_harmonic(t.l, t.m, vec)
        total += prod
    return spec.E0 * total * cmath.exp(1j * spec.k * r * math.cos(theta))


def verify_expansion(spec: BeamSpec, r: float, theta: float, phi: float) -> ExpansionCheck:
    """Pointwise residual of the truncated series against the closed form."""
    rho = r * math.sin(theta)
    ref = lg_amplitude(spec, rho, phi, r * math.cos(theta))
    got = evaluate_expansion(spec, r, theta, phi)
    if ref == 0.0:
        return ExpansionCheck(abs(got - ref), relative=False)
    return ExpansionCheck(abs(got - ref) / abs(ref), relative=True)


def translate_solid_harmonic(l: int, m: int, r_cm: Sequence[float],
                             lam_r: Sequence[float]
                             ) -> list[tuple[SolidHarmonicTerm, SolidHarmonicTerm]]:
    """Split R^m_l(r_cm + lam_r) into products over the two coordinates.

    Under the multiplicative normalization the addition theorem carries
    binomial weights,

        R^m_l(a+b) = sum_{l1 m1} B(l+m, l1+m1) B(l-m, l1-m1)
                     R^{m1}_{l1}(b) R^{m-m1}_{l-l1}(a),

    (they collapse to 1 on the stretched-projection terms the coupling path
    uses, but are required for the identity to hold in general).  Returned
    pairs are (inner, outer) with the weight and the evaluated inner factor
    folded into inner.coefficient and the evaluated outer factor in
    outer.coefficient; pairs that vanish identically at the given points are
    dropped.
    """
    if abs(m) > l:
        raise ValueError(f"|m| <= l violated: ({l}, {m})")
    pairs = []
    for l1 in range(l + 1):
        l2 = l - l1
        for m1 in range(-l1, l1 + 1):
            m2 = m - m1
            if abs(m2) > l2:
                continue
            w = math.comb(l + m, l1 + m1) * math.comb(l - m, l1 - m1) \
                if 0 <= l1 + m1 <= l + m and 0 <= l1 - m1 <= l - m else 0
            if w == 0:
                continue
            inner_val = solid_harmonic(l1, m1, lam_r)
            outer_val = solid_harmonic(l2, m2, r_cm)
            if inner_val == 0.0 or outer_val == 0.0:
                continue
            pairs.append((SolidHarmonicTerm(l1, m1, w * inner_val),
                          SolidHarmonicTerm(l2, m2, outer_val)))
    return pairs


def sphere_quadrature(fn: Callable[[float, float], complex],
                      n_polar: int = 64, n_azimuth: int = 128) -> complex:
    """Gauss-Legendre x uniform-azimuthal quadrature of fn(theta, phi) dOmega.

    Exact for integrands of band limit < n_polar in cos(theta) and total
    azimuthal winding < n_azimuth (the trapezoid rule is exact on periodic
    trigonometric polynomials).
    """
    x, w = gauss_legendre(n_polar)
    thetas = np.arccos(x)
    phis = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    total = 0.0 + 0.0j
    for th, wi in zip(thetas, w):
        row = sum(fn(th, ph) for ph in phis)
        total += wi * row
    return total * (2.0 * math.pi / n_azimuth)


# --------------------------------------------------------------------------
# suites

@dataclass
class SuiteReport:
    name: str
    passed: bool
    lines: list

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "".join(f"    {ln}\n" for ln in self.lines)
        return f"[{status}] {self.name}\n{body}"


def _hydrogen_u(n: int, l: int, r: np.ndarray) -> np.ndarray:
    # closed-form u = r R_nl, pure Coulomb, atomic units
    rho = 2.0 * r / n
    log_norm = 0.5 * (math.log(2.0 / n) * 3 + math.lgamma(n - l)
                      - math.log(2.0 * n) - math.lgamma(n + l + 1))
    lag = assoc_laguerre(n - l - 1, 2 * l + 1, rho)
    return r * np.exp(log_norm - rho / 2.0 + l * np.log(rho)) * lag


def suite_expansion_identity(w0: float = 51022.6, l_values=(-2, -1, 0, 1, 3),
                             q_max: int = 8, n_probes: int = 40,
                             rho_frac: float = 0.3) -> SuiteReport:
    """Truncated solid-harmonic expansion against the closed beam profile."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for l in l_values:
        beam = BeamSpec(l=l, w0=w0, E0=1.0, sigma=1, q_max=q_max)
        for _ in range(n_probes):
            rho = rho_frac * w0 * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            z = w0 * rng.uniform(-0.05, 0.05)
            r = math.hypot(rho, z)
            theta = math.atan2(rho, z)
            chk = verify_expansion(beam, r, theta, phi)
            if chk.relative:
                worst = max(worst, chk.residual)
    ok = worst <= 1e-6
    return SuiteReport("expansion identity", ok,
                       [f"worst relative residual {worst:.3e} "
                        f"(bound 1e-6, q_max={q_max}, rho <= {rho_frac:g} w0)"])


def suite_addition_theorem(l_max: int = 4, n_vectors: int = 25) -> SuiteReport:
    """Solid-harmonic translation against direct evaluation at r_cm + r."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            for _ in range(n_vectors):
                r_cm = rng.normal(size=3)
                r = rng.normal(size=3)
                direct = solid_harmonic(l, m, r_cm + r)
                total = sum(inner.coefficient * outer.coefficient
                            for inner, outer in
                            translate_solid_harmonic(l, m, r_cm, r))
                scale = max(1.0, abs(direct))
                worst = max(worst, abs(total - direct) / scale)
    ok = worst <= 1e-10
    return SuiteReport("addition theorem", ok,
                       [f"worst residual {worst:.3e} (bound 1e-10, l <= {l_max})"])


def suite_hydrogen_oracle() -> SuiteReport:
    """Numerov solver against closed-form Coulomb wavefunctions."""
    hy = load_species("hydrogen")
    worst_u = 0.0
    for n in range(1, 6):
        for l in range(n):
            st = solve_radial(hy, n, l, l + 0.5, grid=default_grid(n))
            xi = st.grid.xi
            u_num = st.chi * np.sqrt(xi)
            u_ref = _hydrogen_u(n, l, xi * xi)
            if np.dot(u_num, u_ref) < 0:
                u_num = -u_num
            worst_u = max(worst_u, float(np.max(np.abs(u_num - u_ref))))
    grid = default_grid(2)
    s1 = solve_radial(hy, 1, 0, 0.5, grid=grid)
    p2 = solve_radial(hy, 2, 1, 1.5, grid=grid)
    dip = radial_matrix_element(p2, s1, 1, 1.0)
    dip_ref = 128.0 * math.sqrt(6.0) / 243.0
    dip_err = abs(abs(dip) - dip_ref) / dip_ref
    ok = worst_u <= 1e-6 and dip_err <= 1e-4
    return SuiteReport("hydrogen oracle", ok,
                       [f"max-norm u error {worst_u:.3e} (bound 1e-6, n <= 5)",
                        f"<2p|r|1s> rel error {dip_err:.3e} (bound 1e-4)"])


def suite_gaunt_quadrature(n_sets: int = 60, max_rank: int = 4) -> SuiteReport:
    """multi_gaunt contractions against band-limited sphere quadrature."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(n_sets):
        n_fact = int(rng.integers(1, 4))
        factors = []
        for _ in range(n_fact):
            lf = int(rng.integers(0, max_rank + 1))
            factors.append((lf, int(rng.integers(-lf, lf + 1))))
        lb = int(rng.integers(0, max_rank + 1))
        lk = int(rng.integers(0, max_rank + 1))
        bra = (lb, int(rng.integers(-lb, lb + 1)))
        ket = (lk, int(rng.integers(-lk, lk + 1)))
        alg = multi_gaunt(factors, bra, ket)

        def integrand(th, ph):
            v = spherical_harmonic(*bra, th, ph).conjugate() \
                * spherical_harmonic(*ket, th, ph)
            for lf, mf in factors:
                v *= spherical_harmonic(lf, mf, th, ph)
            return v

        quad = sphere_quadrature(integrand, n_polar=16, n_azimuth=32)
        worst = max(worst, abs(alg - quad))
    ok = worst <= 1e-9
    return SuiteReport("gaunt vs quadrature", ok,
                       [f"worst abs deviation {worst:.3e} "
                        f"(bound 1e-9, {n_sets} random factor sets)"])


def suite_cm_orthonormality(N_max: int = 6) -> SuiteReport:
    """Oscillator overlaps and a ladder of closed-form moments."""
    w_r = 41573.97474176695
    worst = 0.0
    for M in range(-N_max, N_max + 1):
        ns = [N for N in range(abs(M), N_max + 1) if (N - abs(M)) % 2 == 0]
        for Na in ns:
            for Nb in ns:
                ov = cm_moment(CMState(Na, M, w_r), CMState(Nb, M, w_r), 0)
                want = 1.0 if Na == Nb else 0.0
                worst = max(worst, abs(ov - want))
    # stretched ladder <(L,L)| x^L |0,0> = sqrt(L!)
    ladder = 0.0
    for L in range(1, 7):
        got = cm_moment(CMState(L, L, w_r), CMState(0, 0, w_r), L)
        ladder = max(ladder, abs(got - math.sqrt(math.factorial(L))))
    ok = worst <= 1e-10 and ladder <= 1e-8
    return SuiteReport("CM orthonormality", ok,
                       [f"worst overlap deviation {worst:.3e} (bound 1e-10, "
                        f"N <= {N_max})",
                        f"worst ladder-moment deviation {ladder:.3e}"])


def suite_lambda_audit() -> SuiteReport:
    """Exact lambda-integral against the assembled dipole-limit constant."""
    lines = []
    worst = 0.0
    for alpha in (1, 2, 3, 4):
        exact0 = lambda_integral_oracle(alpha - 1, 0.0, 1.0)
        worst = max(worst, abs(exact0 - 1.0 / alpha))
        ratio = math.gamma(alpha / 2.0) / exact0
        lines.append(f"alpha={alpha}: exact integral {exact0:.12f} "
                     f"(= 1/alpha), assembled/exact = {ratio:.6f} "
                     f"(= alpha*Gamma(alpha/2))")
    ok = worst <= 1e-12
    lines.insert(0, f"worst |integral - 1/alpha| {worst:.3e} (bound 1e-12)")
    return SuiteReport("lambda-integral audit", ok, lines)


ALL_SUITES = [suite_expansion_identity, suite_addition_theorem,
              suite_hydrogen_oracle, suite_gaunt_quadrature,
              suite_cm_orthonormality, suite_lambda_audit]


def run_all(suites=None) -> tuple[bool, str]:
    reports = [fn() for fn in (suites or ALL_SUITES)]
    text = "".join(r.render() for r in reports)
    n_ok = sum(r.passed for r in reports)
    text += f"{n_ok}/{len(reports)} suites passed\n"
    return all(r.passed for r in reports), text
