"""Rydberg electronic structure: model potential, quantum-defect energies,
Numerov radial wavefunctions and electronic radial matrix elements.

Quantum-defect energies are *inputs* to the radial solve, not eigenvalues to
converge: integration runs inward only, from deep in the classically
forbidden tail, on a grid uniform in xi = sqrt(r).  With u = r*psi and
chi = u / sqrt(xi) the radial equation becomes

    chi'' = W chi,   W = 8 xi^2 (V(xi^2) - E) + (2l + 1/2)(2l + 3/2) / xi^2,

which Numerov handles at O(h^4).  Because E is not an exact eigenvalue of the
model potential, high-l solutions can blow up under the inner centrifugal
barrier; the blow-up is cut at the innermost |chi| minimum and flagged rather
than hidden.

The grid's nodes xi, r = xi^2 and the powers 2 r^4 and 2 r^3 of the
potential are computed once per `RadialGrid` and cached on it, so a solve
does only its own state's work: -1/r and the core exponentials, the
polarization cutoff near rc, the alpha_c and spin-orbit scalings and the
centrifugal term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .units import FINE_STRUCTURE, amu_to_au

__all__ = [
    "SpeciesParams",
    "RadialGrid",
    "RydbergState",
    "default_grid",
    "model_potential",
    "qd_energy",
    "solve_radial",
    "radial_matrix_element",
    "load_species",
]

# inner cutoff (au).  Kept well below the innermost core oscillation
# (~Z^{-1} for the deepest s-like node) so inward integration accumulates the
# full WKB phase and the node count comes out right; truncating at the core
# polarizability scale alpha_c^{1/3} instead silently loses ~4 nodes for Rb.
R_MIN = 1e-3
XI_STEP = 0.01
# exp(-x) is exactly +0.0 for every x > _EXP_ZERO (model_potential)
_EXP_ZERO = 746.0


@dataclass(frozen=True)
class SpeciesParams:
    """Per-species inputs: nuclear charge, core-potential constants per l,
    Rydberg-Ritz defect series per (l, j), mass."""

    name: str
    Z: int
    mass: float                       # atomic units (electron masses)
    alpha_c: float
    so_scale: float
    potential: dict                   # l -> (a1, a2, a3, a4, rc)
    defects: dict                     # (l, 2j) -> coefficient tuple

    def __post_init__(self):
        if self.Z < 1:
            raise ValueError(f"nuclear charge must be >= 1, got {self.Z}")
        if self.alpha_c < 0:
            raise ValueError("core polarizability must be non-negative")
        for l, (a1, a2, a3, a4, rc) in self.potential.items():
            if rc <= 0:
                raise ValueError(f"cutoff radius must be positive (l={l})")

    def potential_for(self, l: int) -> tuple:
        lmax = max(self.potential)
        return self.potential[min(l, lmax)]

    def defect_series(self, l: int, j: float) -> tuple | None:
        return self.defects.get((l, round(2 * j)))

    @classmethod
    def from_file(cls, path) -> "SpeciesParams":
        """Parse the sectioned key=value species format (see data/rb.species)."""
        atom: dict = {}
        potential: dict = {}
        defects: dict = {}
        section = None
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise ValueError(f"{path}:{lineno}: malformed section header {raw!r}")
                parts = line[1:-1].split()
                kind = parts[0]
                tags = dict(p.split("=", 1) for p in parts[1:])
                if kind == "atom":
                    section = ("atom",)
                elif kind == "potential":
                    section = ("potential", int(tags["l"]))
                    potential[section[1]] = {}
                elif kind == "defect":
                    section = ("defect", int(tags["l"]), round(2 * float(tags["j"])))
                else:
                    raise ValueError(f"{path}:{lineno}: unknown section {kind!r}")
                continue
            if section is None or "=" not in line:
                raise ValueError(f"{path}:{lineno}: stray line {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if section[0] == "atom":
                atom[key] = val
            elif section[0] == "potential":
                potential[section[1]][key] = float(val)
            else:
                if key != "d":
                    raise ValueError(f"{path}:{lineno}: defect blocks take only 'd'")
                defects[(section[1], section[2])] = tuple(float(t) for t in val.split())
        pot = {}
        for l, kv in potential.items():
            try:
                pot[l] = tuple(kv[k] for k in ("a1", "a2", "a3", "a4", "rc"))
            except KeyError as e:
                raise ValueError(f"{path}: potential block l={l} missing {e}") from None
        try:
            return cls(
                name=atom.get("name", Path(path).stem),
                Z=int(atom["Z"]),
                mass=amu_to_au(float(atom["mass_amu"])),
                alpha_c=float(atom["alpha_c"]),
                so_scale=float(atom.get("so_scale", "1.0")),
                potential=pot,
                defects=defects,
            )
        except (KeyError, ValueError) as e:
            raise ValueError(f"{path}: bad atom block ({e})") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _r_factors(r: np.ndarray) -> tuple:
    """(2 r^4, 2 r^3): the powers of r in model_potential, each built as the
    full formula builds it."""
    two_r4 = np.power(r, 4)
    two_r4 *= 2.0
    two_r3 = np.power(r, 3)
    two_r3 *= 2.0
    return two_r4, two_r3


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid in xi = sqrt(r) on [sqrt(r_min), sqrt(r_max)].

    The node arrays xi, r and r_factors are built on first use and cached
    on the grid.  They are read-only and shared by every state solved on the
    grid and every matrix element taken on it, so no caller may edit them in
    place; a solver that hands one grid object to all its states builds them
    once.  Only arrays that cost a solve more to rebuild than to keep are
    cached: -1/r and 8 xi^2 take one pass each, and every N-point array that
    lives through an nscan op costs about 850 page faults a pass.
    """

    r_min: float
    r_max: float
    step: float = XI_STEP

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}")
        if self.step <= 0:
            raise ValueError("step must be positive")

    @cached_property
    def xi(self) -> np.ndarray:
        # nodes at sqrt(r_min) + k*step, overshooting r_max by < one step:
        # grids sharing (r_min, step) then coincide exactly on their overlap,
        # so cross-n matrix elements need no resampling
        lo, hi = math.sqrt(self.r_min), math.sqrt(self.r_max)
        npts = int(math.ceil((hi - lo) / self.step - 1e-9)) + 1
        return _read_only(lo + np.arange(npts) * self.step)

    @cached_property
    def r(self) -> np.ndarray:
        return _read_only(self.xi * self.xi)

    @cached_property
    def r_factors(self) -> tuple:
        """(2 r^4, 2 r^3) at the nodes (see `_r_factors`)."""
        return tuple(map(_read_only, _r_factors(self.r)))

    @property
    def h(self) -> float:
        return self.step


def default_grid(n: int, step: float = XI_STEP) -> RadialGrid:
    # outer cutoff 2n(n+15): comfortably past the turning point ~2n^2
    return RadialGrid(R_MIN, 2.0 * n * (n + 15.0), step)


@dataclass(frozen=True, eq=False)
class RydbergState:
    """One solved |n l j (m_j)> level: energy, chi on the grid, diagnostics."""

    n: int
    l: int
    j: float
    energy: float
    grid: RadialGrid
    chi: np.ndarray                   # chi = r psi / xi^(1/2), normalized
    nodes: int
    flags: tuple = ()
    m_j: float | None = None

    def __post_init__(self):
        if not 0 <= self.l < self.n:
            raise ValueError(f"need 0 <= l < n, got l={self.l}, n={self.n}")
        if abs(abs(self.j - self.l) - 0.5) > 1e-9:
            raise ValueError(f"|j - l| must be 1/2, got l={self.l}, j={self.j}")
        if self.m_j is not None and abs(self.m_j) > self.j + 1e-9:
            raise ValueError(f"|m_j| <= j violated: {self.m_j} > {self.j}")
        self.chi.setflags(write=False)

    def with_m_j(self, m_j: float) -> "RydbergState":
        return RydbergState(self.n, self.l, self.j, self.energy, self.grid,
                            self.chi, self.nodes, self.flags, m_j)

    def u_of_r(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, u = r psi) for plotting/inspection."""
        return self.grid.r, self.chi * np.sqrt(self.grid.xi)


def model_potential(p: SpeciesParams, l: int, j: float, r) -> float | np.ndarray:
    """V(r) = V_core + V_polarization + V_spin-orbit, atomic units:

        V = -z/r - alpha_c/(2 r^4) (1 - exp(-(r/rc)^6)) + so_scale alpha^2/(2 r^3) L.S,
        z = 1 + (Z-1) exp(-a1 r) - r (a3 + a4 r) exp(-a2 r).

    The r-factors 2 r^4 and 2 r^3 come from `_r_factors`, here on this r
    and in solve_radial from its grid's cache; `_potential` then does the
    rest on one work buffer besides the result, each ufunc one IEEE
    operation of the formula, in the order written.  exp(x) rounds to
    exactly +0.0 below x = -745.14, and numpy's vector exp takes a slow path
    below about -708, so the exponentials are evaluated only where an
    argument is >= -746, on gathered copies of those points; every other
    point is set to the value the full formula gives there:
      - z is computed only where min(a1, a2) r <= 746.  Beyond, both core
        exponentials are 0, z is exactly 1 and V_core is -1/r.
      - 1 - exp(-(r/rc)^6) is computed only where r <= rc 746^(1/6).
        Beyond, it is exactly 1, so the polarization term is
        -alpha_c/(2 r^4) as it stands and the sixth power is skipped.
    Any r, scalar, unsorted or a grid, takes this one path; a scalar comes
    back as a float.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("model potential requires r > 0")
    shape, r = r.shape, r.reshape(-1)
    v = _potential(p, l, j, r, *_r_factors(r))
    return v.reshape(shape) if shape else float(v[0])


def _potential(p: SpeciesParams, l: int, j: float, r: np.ndarray,
               two_r4: np.ndarray, two_r3: np.ndarray) -> np.ndarray:
    """model_potential on a flat r > 0, given its r-factors; a fresh array."""
    a1, a2, a3, a4, rc = p.potential_for(l)
    v = np.divide(-1.0, r)                              # -z/r at z = 1
    core = np.flatnonzero(min(a1, a2) * r <= _EXP_ZERO)
    rk = r[core]
    z, t = np.empty_like(rk), np.empty_like(rk)
    np.multiply(a4, rk, out=t)
    t += a3
    t *= rk
    t *= np.exp(np.multiply(-a2, rk, out=z), out=z)     # r (a3 + a4 r) e^{-a2 r}
    np.exp(np.multiply(-a1, rk, out=z), out=z)
    z *= p.Z - 1.0
    z += 1.0
    z -= t                                              # z
    np.negative(z, out=z)
    z /= rk
    v[core] = z
    t = np.empty_like(r)
    if p.alpha_c:
        np.divide(p.alpha_c, two_r4, out=t)
        near = np.flatnonzero(r <= rc * _EXP_ZERO ** (1.0 / 6.0))
        u = r[near]
        u /= rc
        np.power(u, 6, out=u)
        np.exp(np.negative(u, out=u), out=u)
        np.subtract(1.0, u, out=u)
        t[near] *= u
        v -= t
    if p.so_scale:
        ls = 0.5 * (j * (j + 1.0) - l * (l + 1.0) - 0.75)
        np.divide(p.so_scale * FINE_STRUCTURE**2, two_r3, out=t)
        t *= ls
        v += t
    return v


def qd_energy(p: SpeciesParams, n: int, l: int, j: float) -> float:
    """E = -1/(2 (n - delta)^2) with the Rydberg-Ritz defect
    delta(n) = d0 + d2/(n-d0)^2 + d4/(n-d0)^4 + ..."""
    if n <= l:
        raise ValueError(f"need n > l, got n={n}, l={l}")
    series = p.defect_series(l, j)
    if series is None:
        warnings.warn(
            f"{p.name}: no defect series for (l={l}, j={j}); using delta=0",
            stacklevel=2)
        delta = 0.0
    else:
        d0 = series[0]
        delta = d0
        for k, dk in enumerate(series[1:], start=1):
            delta += dk / (n - d0) ** (2 * k)
    nstar = n - delta
    return -0.5 / (nstar * nstar)


def _numerov_inward(W: np.ndarray, h: float) -> np.ndarray:
    """Integrate chi'' = W chi from the outer end; seeds set the tail scale.

    The step chi[i-1] = (b[i] chi[i] - a[i+1] chi[i+1]) / a[i-1], with
    a = 1 - h^2 W / 12 and b = 12 - 10 a, is serial, so it runs on Python
    floats: indexing numpy scalars one at a time costs three to four times
    as much.  Each float operation is the IEEE double operation numpy does, in
    the same order, so chi is bit-identical to the numpy-indexed loop.
    Dividing by a[i-1] must stay a division, and the two products must stay
    separately rounded: multiplying by a precomputed 1/a, or regrouping or
    fusing the terms, changes the last bits of chi and of every output.
    Memoryviews of the reversed a and b hand the loop one float at a time,
    and one of chi takes each result, so no N-element list is built.

    There are two paths.  The fast one runs the bare recurrence: a[i+2] and
    a[i+1] stay in locals, so each step fetches only b[i+1] and a[i], and no
    step tests for overflow.  The finished chi is then checked once,
    max <= 1e250 and min >= -1e250 (NaN fails both).  If it passes, the
    reference's 1e-250 rescale never fired and chi is its exact result.  If
    it fails, or a step divides by zero, `_numerov_rescaled` restarts from
    the seeds with the rescale test.  The real states that need the rescale
    are Rb n = 60 at l >= 54, Rb n = 90 at l >= 56 and hydrogen n = 60 at
    l >= 55; every workload stops at l_f <= 10.
    """
    a = np.multiply(h * h / 12.0, W)
    np.subtract(1.0, a, out=a)
    b = np.multiply(10.0, a)
    np.subtract(12.0, b, out=b)
    a_rev, b_rev = memoryview(a[::-1]), memoryview(b[::-1])
    chi = np.empty_like(W)
    chi[-1], chi[-2] = 1e-12, 2e-12
    out = memoryview(chi)
    c_out, c_in = 1e-12, 2e-12            # chi[i+2], chi[i+1]
    a_out, a_mid = a_rev[0], a_rev[1]     # a[i+2], a[i+1]
    try:
        for i, b_i, a_i in zip(range(len(chi) - 3, -1, -1),
                               b_rev[1:-1], a_rev[2:]):
            c = (b_i * c_in - a_out * c_out) / a_i
            out[i] = c
            c_out, c_in = c_in, c
            a_out, a_mid = a_mid, a_i
    except ZeroDivisionError:
        pass
    else:
        if chi.max() <= 1e250 and chi.min() >= -1e250:
            return chi
    return _numerov_rescaled(a_rev, b_rev, chi)


def _numerov_rescaled(a_rev, b_rev, chi: np.ndarray) -> np.ndarray:
    """`_numerov_inward`'s recurrence from the seeds again, with the
    reference's rescale: once |chi[i]| > 1e250, chi[i:] is multiplied by
    1e-250.  The test is two comparisons, which give abs()'s outcome for
    +-inf and NaN.  A zero a[i] gives numpy's x / 0: +-inf by the signs, NaN
    for x = 0 or NaN.  chi is overwritten in place."""
    chi[-1], chi[-2] = 1e-12, 2e-12
    out = memoryview(chi)
    c_out, c_in = 1e-12, 2e-12            # chi[i+2], chi[i+1]
    for i, a_out, b_i, a_next in zip(range(len(chi) - 3, -1, -1),
                                     a_rev[:-2], b_rev[1:-1], a_rev[2:]):
        x = b_i * c_in - a_out * c_out
        if a_next:
            c = x / a_next
        elif x == x and x:
            c = math.copysign(math.inf, x) * math.copysign(1.0, a_next)
        else:
            c = math.nan
        if c > 1e250 or c < -1e250:   # rescale long tails before they overflow
            chi[i + 1:] *= 1e-250
            c_in *= 1e-250
            c *= 1e-250
        out[i] = c
        c_out, c_in = c_in, c
    return chi


def _numerov_w(p: SpeciesParams, l: int, j: float, energy: float,
               grid: RadialGrid) -> np.ndarray:
    """W = 8 xi^2 (V(xi^2) - E) + (2l + 1/2)(2l + 3/2) / xi^2, built in place
    in the operation order of that formula from the grid's cached factors.
    Scaling by 8 is exact, so (V - E) 8 r rounds as (V - E) ((8 xi) xi)."""
    W = _potential(p, l, j, grid.r, *grid.r_factors)
    W -= energy
    W *= 8.0
    W *= grid.r                                         # 8 xi xi (V - E)
    W += np.divide((2 * l + 0.5) * (2 * l + 1.5), grid.r)
    return W


def solve_radial(p: SpeciesParams, n: int, l: int, j: float,
                 grid: RadialGrid | None = None,
                 energy: float | None = None) -> RydbergState:
    """Inward Numerov solve at the quantum-defect energy.

    Returns the normalized state with node count and diagnostic flags:
    'divergent-core' when the inner solution regrew under the barrier and was
    truncated, 'node-count' when the count disagrees with n - l - 1.
    """
    if grid is None:
        grid = default_grid(n)
    if energy is None:
        energy = qd_energy(p, n, l, j)
    xi = grid.xi
    h = grid.h
    # The N-point arrays are built in place: without scipy's import the heap is
    # small, and fresh temporaries took nscan from ~7k to ~37k page faults a pass.
    chi = _numerov_inward(_numerov_w(p, l, j, energy, grid), h)
    work = np.empty_like(chi)

    def crossings():
        return np.nonzero(np.multiply(chi[:-1], chi[1:], out=work[:-1]) < 0.0)[0]

    flags: list[str] = []
    # Truncate an inner blow-up.  Inside the innermost crossing the physical
    # solution decays toward r -> 0 (the Langer term keeps W > 0 at the
    # boundary), so |chi| growing monotonically INTO the boundary by over an
    # order of magnitude marks the spurious branch picked up because E is not
    # an exact eigenvalue; zero it through its minimum so a contamination
    # crossing is not counted as a node.
    sign_change = crossings()
    if sign_change.size and sign_change[0] < 3:
        # a crossing within a couple of samples of the cutoff is the
        # irregular branch leaking into the boundary value, not a node the
        # grid could resolve; blank it (amplitude there is ~1e-8 of the peak)
        chi[: int(sign_change[0]) + 1] = 0.0
        sign_change = crossings()
    seg_end = int(sign_change[0]) + 1 if sign_change.size else chi.size
    inner = np.abs(chi[:seg_end])
    imin = int(np.argmin(inner))
    if imin > 0 and inner[0] >= inner[: imin + 1].max() \
            and inner[0] > 10.0 * inner[imin]:
        chi[: imin + 1] = 0.0
        flags.append("divergent-core")
        sign_change = crossings()

    nodes = sign_change.size
    if nodes != n - l - 1:
        flags.append("node-count")

    np.multiply(chi, chi, out=work)
    work *= xi
    work *= xi
    norm2 = 2.0 * _simpson(work, h)
    chi /= math.sqrt(norm2)
    return RydbergState(n=n, l=l, j=j, energy=energy, grid=grid, chi=chi,
                        nodes=nodes, flags=tuple(flags))


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid of step h.  An even point count
    takes the same last-interval end correction as scipy.integrate.simpson."""
    if y.size % 2:
        return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                          + 2.0 * y[2:-1:2].sum())
    return _simpson(y[:-1], h) + h * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0


def _common_chi(f: RydbergState, i: RydbergState):
    """Overlay two states on one xi grid (grids share r_min and step here;
    only the outer cutoff differs between principal quantum numbers)."""
    gf, gi = f.grid, i.grid
    if gf == gi:
        return gf.xi, f.chi, i.chi
    if abs(gf.h - gi.h) > 1e-12 or abs(gf.r_min - gi.r_min) > 1e-15:
        raise ValueError("states live on incompatible grids (r_min/step differ)")
    nshort = min(f.chi.size, i.chi.size)
    longer = f if f.chi.size > i.chi.size else i
    # the longer state must carry no weight in the clipped tail
    tail = 2.0 * np.sum(longer.chi[nshort:] ** 2
                        * longer.grid.xi[nshort:] ** 2) * longer.grid.h
    if tail > 1e-8:
        raise ValueError(f"grid overlap clips {tail:.1e} of the norm; "
                         "resolve the states on a common grid")
    xi = (gf if f.chi.size <= i.chi.size else gi).xi
    return xi, f.chi[:nshort], i.chi[:nshort]


def radial_matrix_element(f: RydbergState, i: RydbergState,
                          alpha: int, w_r: float) -> float:
    """<f| r (r/w_r)^{alpha-1} |i> = w_r^{1-alpha} * 2 int chi_f chi_i xi^{2alpha+2} dxi."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    if w_r <= 0:
        raise ValueError("w_r must be positive")
    xi, cf, ci = _common_chi(f, i)
    val = 2.0 * _simpson(cf * ci * xi ** (2 * alpha + 2), f.grid.h)
    return val / w_r ** (alpha - 1)


def load_species(name_or_path: str) -> SpeciesParams:
    """Resolve a species argument: a path wins; otherwise the packaged data."""
    cand = Path(name_or_path)
    if cand.is_file():
        return SpeciesParams.from_file(cand)
    packaged = Path(__file__).parent / "data" / f"{name_or_path.lower()}.species"
    if packaged.is_file():
        return SpeciesParams.from_file(packaged)
    raise FileNotFoundError(
        f"species {name_or_path!r}: no such file and no packaged data entry")
