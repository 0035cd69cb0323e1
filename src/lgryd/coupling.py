"""Transition channels and Rabi frequencies.

A channel is one term of the quadruple sum over (q, l1, l2, l3) produced by
expanding the beam profile in solid harmonics and translating each one to
CM + electron coordinates: the projections are then pinned by Kronecker
deltas (m1 = sign(l) l1, m2 = l2, m3 = -l3, and M_f taking up the remainder
of the beam OAM), and the radial powers follow as alpha = l1+l2+l3+1 on the
electron and beta = |l|+2q-(l1+l2+l3) on the CM.  So a `Channel` holds only
its free indices (l, sigma, q, l1, l2, l3, M_i, final label) and derives the
rest.  The matrix element is assembled literally as

    E0 * g(l,q) * Gamma(alpha/2) * C-product * <f| r (r/w_r)^{alpha-1} |i>
       * <CM_f| x^beta |CM_i> * (angular bracket) * (fine-structure weight),

with the dipole-limit constant Gamma(alpha/2) kept exactly as the source
formula states it.  Every result carries an audit of that constant against
the exact integral int_0^1 lambda^{alpha-1} j_0(k lambda r) dlambda at the
resonant k (see docs/AUDIT.md for what that ratio reveals).
Factors of plain numbers (angular x CG, each block's open final labels,
the coefficient, the final trap state, the CM moment) are cached per
process; factors of solved states (<f|r^alpha|i> with its audit,
<i|r|i>) are kept by the `StateSolver` that solved them.

The six normalization constants of c_product follow the coordinate split:
the printed index pairs are used in the form that matches the CM-side
harmonics Y^{q-m2}_{q-l2} and Y^{-q-m3}_{q-l3} (two superscript/subscript
slips in the source expression are resolved so its own worked example,
C^1_1 C^0_0 (C^0_0)^4, comes out; the alternatives are identically zero).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple, Sequence

from .atom import (XI_STEP, RydbergState, SpeciesParams, default_grid,
                   radial_matrix_element, solve_radial)
from .beam import BeamSpec, g_coeff, solid_norm
from .cm import CMState, cm_moment, gauss_legendre
from .specfun import clebsch_gordan, multi_gaunt, spherical_bessel
from .units import FINE_STRUCTURE, rabi_kHz as _to_kHz

__all__ = ["StateLabel", "Channel", "ChannelResult", "SweepRow", "StateSolver",
           "c_product", "enumerate_channels", "scenario_channels",
           "fine_structure_weight", "assemble", "lambda_integral_oracle",
           "compute_scenario", "sweep_topological_charge"]

_SPECT = "SPDFGHIKLMNOQRTUV"


def _half(x: float, signed: bool = False) -> str:
    n = round(2 * x)
    return f"{n:+d}/2" if signed else f"{n}/2"


@dataclass(frozen=True, order=True)
class StateLabel:
    """Electronic state label (l, j, m_j); prints like D5/2(+3/2)."""

    l: int
    j: float
    m_j: float

    def __post_init__(self):
        if abs(abs(self.j - self.l) - 0.5) > 1e-9:
            raise ValueError(f"|j - l| must be 1/2: l={self.l}, j={self.j}")
        if abs(self.m_j) > self.j + 1e-9:
            raise ValueError(f"|m_j| <= j violated: {self.m_j} > {self.j}")

    def __str__(self) -> str:
        letter = _SPECT[self.l] if self.l < len(_SPECT) else f"(l={self.l})"
        return f"{letter}{_half(self.j)}({_half(self.m_j, signed=True)})"


class Channel(NamedTuple):
    """One (sigma, q, l1, l2, l3) term and the final electronic label it
    feeds; the deltas give the projections m1, m2, m3 and M_f."""

    l: int
    sigma: int
    q: int
    l1: int
    l2: int
    l3: int
    M_i: int
    final: StateLabel

    @property
    def m1(self) -> int:
        return self.l1 if self.l > 0 else -self.l1

    @property
    def m2(self) -> int:
        return self.l2

    @property
    def m3(self) -> int:
        return -self.l3

    @property
    def M_f(self) -> int:
        return self.l - self.m1 - self.m2 - self.m3 + self.M_i

    @property
    def alpha(self) -> int:
        return self.l1 + self.l2 + self.l3 + 1      # p = 0 throughout

    @property
    def beta(self) -> int:
        return abs(self.l) + 2 * self.q - self.l1 - self.l2 - self.l3

    @property
    def group(self) -> str:
        """Reporting group: pure dipole / vortex-fed / envelope-fed / mixed."""
        if self.l1 == self.l2 == self.l3 == 0:
            return "pure"
        if self.l1 == abs(self.l) and self.l2 == 0 and self.l3 == 0:
            return "via_tc"
        if self.l1 == 0:
            return "via_gt"
        return "other"


class ChannelResult(NamedTuple):
    """One assembled channel: its factors, matrix element and audit."""

    channel: Channel
    coeff: float          # g(l,q) * Gamma(alpha/2) * C-product * lambda^(alpha-1)
    radial_e: float
    radial_cm: float
    angular: float
    cg_weight: float
    matrix_element: float
    rabi_kHz: float
    lambda_audit: float   # Gamma(alpha/2) / exact lambda-integral at resonant k
    closed: bool          # a selection factor vanished; perfbench counts it


def c_product(l: int, q: int, l1: int, l2: int, l3: int,
              m1: int, m2: int, m3: int) -> float:
    """Product of the six solid-harmonic normalization constants attached to
    one channel; 0 when any (rank, projection) pair is out of domain."""
    pairs = ((l1, m1), (abs(l) - l1, l - m1), (l2, m2), (q - l2, q - m2),
             (l3, m3), (q - l3, -q - m3))
    log_total = 0.0
    for rank, proj in pairs:
        if rank < 0 or abs(proj) > rank:
            return 0.0
        log_total += math.log(solid_norm(rank, proj))
    return math.exp(log_total)


def fine_structure_weight(initial: tuple, final: tuple, orbital_bra_ket: tuple) -> float:
    """Spin-spectator reduction: sum_{m_s} <l_f m_lf, m_s | j_f m_jf> *
    <l_i m_li, m_s | j_i m_ji> for the given orbital projections."""
    l_i, j_i, m_ji = initial
    l_f, j_f, m_jf = final
    m_li, m_lf = orbital_bra_ket
    total = 0.0
    for twice_ms in (-1, 1):
        m_s = twice_ms / 2.0
        total += (clebsch_gordan(l_f, 0.5, m_lf, m_s, j_f, m_jf)
                  * clebsch_gordan(l_i, 0.5, m_li, m_s, j_i, m_ji))
    return total


@cache
def _angular_and_cg(sigma: int, l1: int, m1: int, l2: int, l3: int,
                    l_f: int, j_f: float, m_jf: float, l_i: int, j_i: float):
    """(angular, cg_weight) for the channel (sigma, l1, m1, l2, l3) feeding
    the final label (l_f, j_f, m_jf) from |l_i j_i m_jf - dm>, where dm =
    sigma + m1 + m2 + m3, m2 = l2, m3 = -l3.

    General case: sum over the initial m_l decomposition of |j_i m_ji>, each
    term weighted by both Clebsch-Gordan brackets.  When a single m_li
    contributes (any S initial state) the two factors separate cleanly and
    are reported apart; otherwise the contraction lands in `angular` and
    cg_weight is 1 by convention.
    """
    dm = sigma + m1 + l2 - l3
    m_ji = m_jf - dm
    # dipole sigma-harmonic, plane-wave p=0 harmonic, three expansion harmonics
    factors = [(1, sigma), (0, 0), (l1, m1), (l2, l2), (l3, -l3)]
    terms = []
    for twice_mli in range(-2 * l_i, 2 * l_i + 1, 2):
        m_li = twice_mli / 2.0
        m_lf = m_li + dm
        if abs(m_lf) > l_f:
            continue
        w = fine_structure_weight((l_i, j_i, m_ji), (l_f, j_f, m_jf),
                                  (m_li, m_lf))
        if w == 0.0:
            continue
        g = multi_gaunt(factors, (l_f, round(m_lf)), (l_i, round(m_li)))
        terms.append((w, g))
    if not terms:
        return 0.0, 0.0
    if len(terms) == 1:
        w, g = terms[0]
        return g, w
    return sum(w * g for w, g in terms), 1.0


@cache
def _open_finals(sigma: int, l1: int, m1: int, l2: int, l3: int,
                 m_jf: float, final_l_f_max: int, j_policy: str,
                 l_i: int, j_i: float) -> tuple[StateLabel, ...]:
    """The final labels (l_f, j_f, m_jf) that the block (sigma, l1, m1, l2,
    l3) reaches with a non-zero angular factor."""
    parity = (l_i + 1 + l1 + l2 + l3) % 2
    # past l_i + 1 + l1 + l2 + l3 the triangle rule closes l_f
    top = min(final_l_f_max, l_i + 1 + l1 + l2 + l3)
    out = []
    for l_f in range(top + 1):
        if l_f % 2 != parity:
            continue
        j_fs = (l_f - 0.5, l_f + 0.5) if j_policy == "all" and l_f else (l_f + 0.5,)
        for j_f in j_fs:
            if abs(m_jf) > j_f + 1e-9:
                continue
            if _angular_and_cg(sigma, l1, m1, l2, l3, l_f, j_f, m_jf,
                               l_i, j_i)[0] == 0.0:
                continue   # angular selection closes this l_f
            out.append(StateLabel(l_f, j_f, m_jf))
    return tuple(out)


def enumerate_channels(beam: BeamSpec, initial: StateLabel,
                       initial_cm: CMState, final_l_f_max: int = 3,
                       j_policy: str = "stretched",
                       include_elastic: bool = False) -> list[Channel]:
    """All index tuples compatible with the selection deltas from the
    initial label, each paired with every angular-reachable final label, in
    the lexicographic order (q, l1, l2, l3, sigma, l_f, j_f) the loops run
    in (sigma is the beam's).  A channel fixes the initial m_j and the final
    CM state that `assemble` takes; each block's open finals come from a
    process cache, so every charge l that reaches a block shares them."""
    if j_policy not in ("stretched", "all"):
        raise ValueError(f"unknown j_policy {j_policy!r}")
    l, sigma = beam.l, beam.sigma
    l_i, j_i, m_ji, M_i = initial.l, initial.j, initial.m_j, initial_cm.M
    out = []
    for q in range(beam.q_max + 1):
        for l1 in range(abs(l) + 1):
            for l2 in range(q + 1):
                for l3 in range(q + 1):
                    m1 = l1 if l > 0 else -l1
                    dm = m1 + l2 - l3                  # m1 + m2 + m3
                    finals = _open_finals(sigma, l1, m1, l2, l3,
                                          m_ji + sigma + dm, final_l_f_max,
                                          j_policy, l_i, j_i)
                    # elastic: m_jf = m_ji and M_f = M_i
                    elastic = not include_elastic and sigma + dm == 0 and dm == l
                    for fin in finals:
                        if elastic and fin.l == l_i and abs(fin.j - j_i) < 1e-9:
                            continue
                        out.append(Channel(l, sigma, q, l1, l2, l3, M_i, fin))
    return out


def scenario_channels(beam: BeamSpec, n: int, l_i: int, j_i: float,
                      m_ji: float, cm_i: CMState, final_l_f_max: int,
                      n_final: int | None, j_policy: str) -> list[Channel]:
    """The channels `compute_scenario` assembles from |n l_i j_i m_ji>: no
    bound final state has l_f >= n_final, and only at n_final = n is the
    label-diagonal channel elastic."""
    nf = n if n_final is None else n_final
    return enumerate_channels(beam, StateLabel(l_i, j_i, m_ji), cm_i,
                              min(final_l_f_max, nf - 1), j_policy=j_policy,
                              include_elastic=nf != n)


@cache
def _gauss_legendre_unit() -> tuple[tuple, tuple]:
    """64-point Gauss-Legendre nodes mapped to [0, 1], and their weights."""
    x, w = gauss_legendre(64)
    return tuple(0.5 * (t + 1.0) for t in x), w


@cache
def _lambda_powers(exponent: int) -> tuple:
    """lambda^exponent at the unit nodes, each by Python's **, which is
    libm's pow."""
    return tuple(li**exponent for li in _gauss_legendre_unit()[0])


def lambda_integral_oracle(exponent: int, k: float, r: float) -> float:
    """int_0^1 lambda^exponent j_0(k lambda r) dlambda by Gauss-Legendre,
    summed node by node from the left."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    lam, w = _gauss_legendre_unit()
    j0 = spherical_bessel(tuple(k * li * r for li in lam))
    total = 0.0          # not sum(), whose order Python 3.12 changed
    for wi, pi, ji in zip(w, _lambda_powers(exponent), j0):
        total += wi * (pi * ji)
    return 0.5 * total


# bounds above a q_max = 4 rb60 sweep's working set; width scans add keys
@lru_cache(maxsize=4096)
def _coeff(l: int, q: int, l1: int, l2: int, l3: int, w_r: float, w0: float,
           mass_ratio: float) -> float:
    al = l1 + l2 + l3 + 1
    return (g_coeff(l, q, w_r, w0)
            * math.exp(math.lgamma(al / 2.0))
            * c_product(l, q, l1, l2, l3, l1 if l > 0 else -l1, l2, -l3)
            * mass_ratio ** (al - 1))


@lru_cache(maxsize=256)
def _final_cm(cm_i: CMState, M_f: int) -> CMState:
    # lowest N compatible with M_f, preserving the initial radial excitation
    return CMState(abs(M_f) + cm_i.N - abs(cm_i.M), M_f, cm_i.w_r)


@lru_cache(maxsize=1024)
def _cm_moment(cm_i: CMState, M_f: int, beta: int) -> float:
    return cm_moment(_final_cm(cm_i, M_f), cm_i, beta)


def _radial_and_audit(memo: dict, psi_f: RydbergState, psi_i: RydbergState,
                      al: int, w_r: float) -> tuple[float, float]:
    """(<f|r^alpha|i>, audit) of one (final state, alpha): the audit sets
    the assembled constant Gamma(alpha/2) against the exact lambda-integral
    at the resonant k and <r> of the initial state."""
    radial_e = radial_matrix_element(psi_f, psi_i, al, w_r)
    k = abs(psi_f.energy - psi_i.energy) * FINE_STRUCTURE
    r_char = memo.get((psi_i, w_r))
    if r_char is None:
        r_char = memo[psi_i, w_r] = radial_matrix_element(psi_i, psi_i, 1, w_r)
    exact = lambda_integral_oracle(al - 1, k, r_char)
    audit = math.exp(math.lgamma(al / 2.0)) / exact if exact else math.inf
    return radial_e, audit


def assemble(channel: Channel, beam: BeamSpec, psi_i: RydbergState,
             psi_f: RydbergState, cm_i: CMState,
             memo: dict | None = None) -> ChannelResult:
    """Literal per-channel matrix element and Rabi frequency.

    The channel fixes the projections: m_ji = m_jf - sigma - m1 - m2 - m3
    by its deltas, and the final CM state by M_f (`_final_cm`).  The
    reported Rabi convention is nu = |<f|H|i>| / h, i.e. the matrix element
    in hartree times E_h/h, in kHz.  Angular x CG, the coefficient and the
    CM moment come from process caches keyed by plain numbers.  `memo`
    keeps <f|r^alpha|i> and the lambda audit per (psi_f, psi_i, alpha,
    w_r), and <i|r|i> per (psi_i, w_r); `compute_scenario` passes its
    solver's `factors`, and a standalone call without one fills its own.
    """
    memo = {} if memo is None else memo
    ch, fin = channel, channel.final
    eps = 1.0 if ch.sigma == beam.sigma else 0.0
    w_r = cm_i.w_r
    al = ch.alpha

    coeff = _coeff(ch.l, ch.q, ch.l1, ch.l2, ch.l3, w_r, beam.w0,
                   beam.mass_ratio)
    key = (psi_f, psi_i, al, w_r)
    radial = memo.get(key)
    if radial is None:
        radial = memo[key] = _radial_and_audit(memo, psi_f, psi_i, al, w_r)
    radial_e, audit = radial
    radial_cm = _cm_moment(cm_i, ch.M_f, ch.beta)
    angular, cg = _angular_and_cg(ch.sigma, ch.l1, ch.m1, ch.l2, ch.l3,
                                  fin.l, fin.j, fin.m_j, psi_i.l, psi_i.j)

    me = beam.E0 * eps * coeff * radial_e * radial_cm * angular * cg
    closed = eps == 0.0 or angular == 0.0 or cg == 0.0 or radial_e == 0.0 \
        or radial_cm == 0.0
    # positional, in field order: keywords double the cost of the build
    return ChannelResult(ch, coeff, radial_e, radial_cm, angular, cg, me,
                         _to_kHz(abs(me)), audit, closed)


class StateSolver:
    """Memoizing wrapper around solve_radial for one species/grid step; a
    state is solved on default_grid(grid_n), grid_n defaulting to n, so
    states with the same grid_n share one grid by value.  `factors` keeps
    the factors of its states for every scenario on this solver
    (`assemble`'s `memo`)."""

    def __init__(self, species: SpeciesParams, step: float = XI_STEP):
        self.species = species
        self.step = step
        self.factors: dict = {}
        self._cache: dict = {}

    def get(self, n: int, l: int, j: float,
            grid_n: int | None = None) -> RydbergState:
        grid_n = n if grid_n is None else grid_n
        key = (n, l, round(2 * j), grid_n)
        state = self._cache.get(key)
        if state is None:
            grid = default_grid(grid_n, self.step)
            state = self._cache[key] = solve_radial(self.species, n, l, j, grid=grid)
        return state

    @property
    def states(self):
        """Read-only view of the states solved so far."""
        return self._cache.values()


def compute_scenario(solver: StateSolver, beam: BeamSpec,
                     n: int, l_i: int, j_i: float, m_ji: float,
                     cm_i: CMState, *, final_l_f_max: int = 3,
                     n_final: int | None = None,
                     j_policy: str = "stretched") -> list[ChannelResult]:
    """Solve, enumerate and assemble every channel of one beam scenario from
    |n l_i j_i m_ji>, keeping the factors of its states in `solver.factors`.
    All states are solved on the grid of max(n, n_final), the one grid
    `radial_matrix_element` requires of its two states."""
    nf = n if n_final is None else n_final
    grid_n = max(n, nf)
    psi_i = solver.get(n, l_i, j_i, grid_n)
    channels = scenario_channels(beam, n, l_i, j_i, m_ji, cm_i,
                                 final_l_f_max, n_final, j_policy)
    return [assemble(ch, beam, psi_i,
                     solver.get(nf, ch.final.l, ch.final.j, grid_n), cm_i,
                     solver.factors) for ch in channels]


class SweepRow(NamedTuple):
    l: int
    kind: str            # channel | group | total | aggregate
    group: str           # channel/group rows; '-' otherwise
    final_state: str
    M_f: int | None
    N_f: int | None
    q: int | None
    rabi_kHz: float


def sweep_topological_charge(l_values: Sequence[int], solver: StateSolver,
                             beam_template: BeamSpec, n: int, l_i: int,
                             j_i: float, m_ji: float, cm_i: CMState,
                             **scenario_kwargs) -> list[SweepRow]:
    """Per-l channel table plus three reductions:

    group      coherent sum of the channels of one reporting group feeding
               one final label (the via-TC / via-GT curves),
    total      coherent sum over everything feeding one final composite
               (electronic label + M_f),
    aggregate  root-sum-square of the totals over the projections of one
               electronic species (how curves collapse when the plot labels
               only, say, D5/2).
    """
    if not l_values:
        raise ValueError("sweep needs at least one l")
    rows: list[SweepRow] = []
    texts: dict = {}       # final label -> its text, formatted once
    for l in l_values:
        beam = dataclasses.replace(beam_template, l=l)
        results = compute_scenario(solver, beam, n, l_i, j_i, m_ji, cm_i,
                                   **scenario_kwargs)
        groups: dict = {}
        totals: dict = {}
        for res in results:
            ch = res.channel
            fin, M_f, group, me = ch.final, ch.M_f, ch.group, res.matrix_element
            N_f = _final_cm(cm_i, M_f).N
            label = texts.get(fin)
            if label is None:
                label = texts[fin] = str(fin)
            rows.append(SweepRow(l, "channel", group, label, M_f, N_f, ch.q,
                                 res.rabi_kHz))
            gkey = (group, label, M_f, N_f)
            groups[gkey] = groups.get(gkey, 0.0) + me
            tkey = (label, M_f, N_f)
            totals[tkey] = totals.get(tkey, 0.0) + me
        for (grp, label, M_f, N_f), me in sorted(groups.items()):
            rows.append(SweepRow(l, "group", grp, label, M_f, N_f, None,
                                 _to_kHz(abs(me))))
        agg: dict = {}
        for (label, M_f, N_f), me in sorted(totals.items()):
            rows.append(SweepRow(l, "total", "-", label, M_f, N_f, None,
                                 _to_kHz(abs(me))))
            # D5/2(+3/2) -> D5/2, (l=17)35/2(+33/2) -> (l=17)35/2
            species_label = label.rpartition("(")[0]
            try:
                sq = abs(me) ** 2
            except OverflowError:     # a finite |me| over 1e154
                sq = math.inf
            agg[species_label] = agg.get(species_label, 0.0) + sq
        for label, sq in sorted(agg.items()):
            rows.append(SweepRow(l, "aggregate", "-", label, None, None, None,
                                 _to_kHz(math.sqrt(sq))))
    return rows
