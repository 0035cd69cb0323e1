"""Rydberg electronic structure: model potential, quantum-defect energies,
Numerov radial wavefunctions and electronic radial matrix elements.

Quantum-defect energies are *inputs* to the radial solve, not eigenvalues to
converge: integration runs inward only, on a grid uniform in xi = sqrt(r),
from where the state's classically forbidden tail has died out
(`_tail_start`: WKB depth 300 beyond the outer turning point, or the grid's
last node if that comes first), with chi 0 beyond.  So a state of small n on
a larger n's grid does not overflow from the grid's far end.  With u = r*psi
and chi = u / sqrt(xi) the radial equation becomes

    chi'' = W chi,   W = 8 xi^2 (V(xi^2) - E) + (2l + 1/2)(2l + 3/2) / xi^2,

which Numerov handles at O(h^4).  Because E is not an exact eigenvalue of the
model potential, high-l solutions can blow up under the inner centrifugal
barrier; the blow-up is cut at the innermost |chi| minimum and flagged rather
than hidden.  At l >= 5 it crosses zero at the first grid point and the cut
misses it (docs/AUDIT.md, "Radial states at l >= 5").

The whole solve of a state runs in one call of the C kernel `_numerov.c`
(`_kernel_solve`), from a few constants: it builds each node, the powers of
r there and W, with libm's exp for the core and polarization exponentials,
finds the start node by `_tail_start`'s rule, refuses a zero divisor, runs
the recurrence, building its coefficients node by node, and then does
`_finish`'s work: the two blanks, the node count and the norm.  numpy then
only divides chi by the norm.  A matrix element is one call of the kernel
too, which builds each r^(alpha + 1) by multiplication and no temporary.
The first solve compiles it with `cc` into __pycache__/_numerov.so (rebuilt
over itself when the source changes) and later ones load it through
ctypes.  Where it cannot be built or loaded, the numpy `_numerov_w`,
`_tail_start` and `_finish`, the Python loop `_numerov_steps` and numpy's
`_simpson` run instead.  Both paths give the same states and moments bit
for bit, and the tests hold each against
tests/test_atom.py::_numerov_inward_reference.

Every exponential is libm's and every power a chain of IEEE products, on
either path (`model_potential`), so no state or moment depends on numpy's
SIMD loops.  The compiled path reads no grid array; the fallback builds the
grid's xi and r = xi^2 afresh at each solve and moment.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path

from . import _lazy_numpy
from .units import FINE_STRUCTURE

np = _lazy_numpy()

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
# the most nodes a grid may have: each N-point array of a solve then stays
# under 80 MB, and a step too small for that is refused before any is built
MAX_GRID_NODES = 10_000_000
# exp(-x) is exactly +0.0 for every x > _EXP_ZERO, and so is exp(-(r/rc)^6)
# for every r > rc _R_NEAR (model_potential, _numerov.c)
_EXP_ZERO = 746.0
_R_NEAR = _EXP_ZERO ** (1.0 / 6.0)
# the inward recurrence starts where the tail lies e^-TAIL_DEPTH (about
# 1e-130) below its value at the outer turning point (`_tail_start`): far
# past double precision, and chi grows from its 1e-12 seeds to about 1e118
# there
TAIL_DEPTH = 300.0


@dataclass(frozen=True)
class SpeciesParams:
    """Per-species inputs: nuclear charge, core-potential constants per l,
    Rydberg-Ritz defect series per (l, j)."""

    name: str
    Z: int
    alpha_c: float
    so_scale: float
    potential: dict                   # l -> (a1, a2, a3, a4, rc)
    defects: dict                     # (l, 2j) -> coefficient tuple

    def __post_init__(self):
        if self.Z < 1:
            raise ValueError(f"nuclear charge must be >= 1, got {self.Z}")
        if self.alpha_c < 0:
            raise ValueError("core polarizability must be non-negative")
        values = [self.alpha_c, self.so_scale]
        values += [v for block in self.potential.values() for v in block]
        values += [v for series in self.defects.values() for v in series]
        if not all(map(math.isfinite, values)):
            raise ValueError("every species value must be a finite number")
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
        """Parse the sectioned key=value species format (see data/rb.species).

        A file is parsed once per path and content: reading it again with
        the same bytes returns the object its first parse built, which every
        caller shares and none may edit.  A malformed file is parsed, and
        raises, on every call."""
        path = Path(path)
        return cls._parse(path, path.read_bytes())

    @classmethod
    @lru_cache(maxsize=8)
    def _parse(cls, path: Path, data: bytes) -> "SpeciesParams":
        atom: dict = {}
        potential: dict = {}
        defects: dict = {}
        section = None
        for lineno, raw in enumerate(data.decode().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                try:
                    kind, *parts = line[1:-1].split() if line.endswith("]") else ()
                    tags = dict(p.split("=", 1) for p in parts)
                    if kind == "potential":
                        section = ("potential", int(tags["l"]))
                        potential[section[1]] = {}
                    elif kind == "defect":
                        section = ("defect", int(tags["l"]), round(2 * float(tags["j"])))
                    else:
                        section = (kind,)
                except (KeyError, ValueError, OverflowError):
                    raise ValueError(f"{path}:{lineno}: malformed section header "
                                     f"{raw!r}") from None
                if kind not in ("atom", "potential", "defect"):
                    raise ValueError(f"{path}:{lineno}: unknown section {kind!r}")
                continue
            if section is None or "=" not in line:
                raise ValueError(f"{path}:{lineno}: stray line {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if section[0] == "atom":
                atom[key] = val
                continue
            if section[0] == "defect" and key != "d":
                raise ValueError(f"{path}:{lineno}: defect blocks take only 'd'")
            try:
                if section[0] == "potential":
                    potential[section[1]][key] = float(val)
                else:
                    series = tuple(float(t) for t in val.split())
                    if not series:
                        raise ValueError("empty series")
                    defects[section[1:]] = series
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: "
                                 f"{val!r}") from None
        pot = {}
        for l, kv in potential.items():
            try:
                pot[l] = tuple(kv[k] for k in ("a1", "a2", "a3", "a4", "rc"))
            except KeyError as e:
                raise ValueError(f"{path}: potential block l={l} missing {e}") from None
        try:
            params = cls(
                name=atom.get("name", path.stem),
                Z=int(atom["Z"]),
                alpha_c=float(atom["alpha_c"]),
                so_scale=float(atom.get("so_scale", "1.0")),
                potential=pot,
                defects=defects,
            )
        except (KeyError, ValueError) as e:
            raise ValueError(f"{path}: bad atom block ({e})") from None
        if not pot:               # potential_for needs at least one block
            raise ValueError(f"{path}: no [potential l=...] block")
        return params


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid in xi = sqrt(r) on [sqrt(r_min), sqrt(r_max)].

    A grid is its three numbers.  Each read of xi, or of r = xi xi, builds
    a fresh array, for the Python fallback, `RydbergState.u_of_r` and the
    verifier.  The compiled solve and matrix element read neither: they
    build each node xi = sqrt(r_min) + k step, bit for bit as xi holds it,
    and every power of it, as they step.
    """

    r_min: float
    r_max: float
    step: float = XI_STEP

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        span = (math.sqrt(self.r_max) - math.sqrt(self.r_min)) / self.step
        if span >= MAX_GRID_NODES:
            raise ValueError(f"step {self.step:g} leaves the grid on "
                             f"[{self.r_min:g}, {self.r_max:g}] more than "
                             f"{MAX_GRID_NODES} nodes")
        if self.size < 3:
            # Simpson's rule and the Numerov step each need three nodes
            raise ValueError(f"step {self.step:g} leaves the grid on "
                             f"[{self.r_min:g}, {self.r_max:g}] {self.size} "
                             "nodes; it needs at least 3")

    @property
    def size(self) -> int:
        # nodes at sqrt(r_min) + k*step, overshooting r_max by < one step:
        # grids sharing (r_min, step) then coincide exactly on their overlap
        lo, hi = math.sqrt(self.r_min), math.sqrt(self.r_max)
        return int(math.ceil((hi - lo) / self.step - 1e-9)) + 1

    @property
    def xi(self) -> np.ndarray:
        return math.sqrt(self.r_min) + np.arange(self.size) * self.step

    @property
    def r(self) -> np.ndarray:
        xi = self.xi
        return xi * xi


def default_grid(n: int, step: float = XI_STEP) -> RadialGrid:
    # outer cutoff 2n(n+15): comfortably past the turning point ~2n^2
    return RadialGrid(R_MIN, 2.0 * n * (n + 15.0), step)


@dataclass(frozen=True, eq=False)
class RydbergState:
    """One solved |n l j> level: energy, chi on the grid, diagnostics."""

    n: int
    l: int
    j: float
    energy: float
    grid: RadialGrid
    chi: np.ndarray                   # chi = r psi / xi^(1/2), normalized
    nodes: int
    flags: tuple = ()

    def __post_init__(self):
        if not 0 <= self.l < self.n:
            raise ValueError(f"need 0 <= l < n, got l={self.l}, n={self.n}")
        if abs(abs(self.j - self.l) - 0.5) > 1e-9:
            raise ValueError(f"|j - l| must be 1/2, got l={self.l}, j={self.j}")
        # the compiled matrix element reads chi by address
        if self.chi.dtype != float or self.chi.shape != (self.grid.size,) \
                or not self.chi.flags.c_contiguous:
            raise ValueError("chi must be a C-contiguous float64 array, one "
                             "value per grid node")
        self.chi.setflags(write=False)

    def u_of_r(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, u = r psi) for plotting/inspection."""
        return self.grid.r, self.chi * np.sqrt(self.grid.xi)


def model_potential(p: SpeciesParams, l: int, j: float, r) -> float | np.ndarray:
    """V(r) = V_core + V_polarization + V_spin-orbit, atomic units:

        V = -z/r - alpha_c/(2 r^4) (1 - exp(-(r/rc)^6)) + so_scale alpha^2/(2 r^3) L.S,
        z = 1 + (Z-1) exp(-a1 r) - r (a3 + a4 r) exp(-a2 r).

    `_potential` builds it from numpy expressions, each operator one IEEE
    operation of the formula, in the order written, as the compiled solve
    builds it node by node: r^3 = (r r) r, 2 r^4 = (r^3 r) 2,
    2 r^3 = r^3 2 and (r/rc)^6 = (u^2 u^2) u^2, and each exponential is
    libm's (`_exp`).  numpy's vector exp and power would round by the
    host's SIMD loops instead.  exp(x) rounds to exactly +0.0 below
    x = -745.14, so the exponentials are evaluated only where an argument
    is >= -746, on gathered copies of those points, and every other point
    is set to the value the full formula gives there, each cut exponential
    being +0.0.  The compiled solve makes the same tests at each node:
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
    v = _potential(p, l, j, r)
    return v.reshape(shape) if shape else float(v[0])


def _potential(p: SpeciesParams, l: int, j: float, r: np.ndarray) -> np.ndarray:
    """model_potential on a flat r > 0; a fresh array."""
    a1, a2, a3, a4, rc = p.potential_for(l)
    v = -1.0 / r                                        # -z/r at z = 1
    core = np.flatnonzero(min(a1, a2) * r <= _EXP_ZERO)
    rk = r[core]
    z = 1.0 + (p.Z - 1.0) * _exp(-a1 * rk) \
        - rk * (a3 + a4 * rk) * _exp(-a2 * rk)
    v[core] = -z / rk
    r3 = r * r * r
    if p.alpha_c:
        pol = p.alpha_c / (r3 * r * 2.0)
        near = np.flatnonzero(r <= rc * _R_NEAR)
        u2 = r[near] / rc
        u2 = u2 * u2
        pol[near] *= 1.0 - _exp(-(u2 * u2 * u2))
        v = v - pol
    if p.so_scale:
        v = v + p.so_scale * FINE_STRUCTURE**2 / (r3 * 2.0) * _ls(l, j)
    return v


def _exp(x: np.ndarray) -> np.ndarray:
    """libm's exp at each point of x, as the compiled solve takes it: +inf
    where it overflows, where math.exp raises."""
    out = x.tolist()
    for k, t in enumerate(out):
        try:
            out[k] = math.exp(t)
        except OverflowError:
            out[k] = math.inf
    return np.array(out, dtype=float)


def _ls(l: int, j: float) -> float:
    """L.S of the spin-orbit term."""
    return 0.5 * (j * (j + 1.0) - l * (l + 1.0) - 0.75)


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
    """Integrate chi'' = W chi inward from `_tail_start`'s node; seeds set the
    tail scale, and chi is 0 beyond the start.  This is the fallback that
    solve_radial runs where no C kernel is built, and the reference the
    compiled solve of `_kernel_solve` is tested against.

    W is a 1-D float64 array, which is only read; chi comes back as a new
    C-contiguous array of W's length.  The step
    chi[i-1] = (b[i] chi[i] - a[i+1] chi[i+1]) / a[i-1], with
    a = 1 - h^2 W / 12 and b = 12 - 10 a, is serial: numpy builds a and b up
    to the start node, `_numerov_steps` runs the steps on Python floats, and
    their values fill chi from the start node down to node 0.  It does each
    IEEE double operation the numpy-indexed loop does, in its order, as the
    C kernel does, so chi is bit-identical on either path.  Dividing by
    a[i-1] must stay a division, and the two products must stay separately
    rounded: multiplying by a precomputed 1/a, or regrouping or fusing the
    terms, changes the last bits of chi and of every output.

    The recurrence has no overflow test: a chi that leaves the float range
    comes back as it stands, +-inf or NaN, and solve_radial flags the state
    'non-finite'.  A zero among the divisors a[0..start-2], where numpy
    would give +-inf and then NaN, is refused, and chi comes back NaN on
    [0, start].
    """
    end = _tail_start(W, h) + 1
    a = 1.0 - h * h / 12.0 * W[:end]
    chi = np.zeros(W.size)
    if not a[:-2].all():
        chi[:end] = np.nan
        return chi
    b = 12.0 - 10.0 * a
    chi[end - 1::-1] = list(_numerov_steps(memoryview(a[::-1]),
                                           memoryview(b[::-1])))
    return chi


def _numerov_steps(a_rev, b_rev):
    """chi from the outer end inward: the two seeds, then one recurrence step
    per node, each taking b[i], a[i+1] and a[i-1] from the reversed a and b."""
    c_out, c_in = 1e-12, 2e-12            # chi[i+1], chi[i]
    yield c_out
    yield c_in
    for b_i, a_out, a_in in zip(b_rev[1:-1], a_rev[:-2], a_rev[2:]):
        c_out, c_in = c_in, (b_i * c_in - a_out * c_out) / a_in
        yield c_in


_KERNEL_SOURCE = Path(__file__).with_name("_numerov.c")
CC_TIMEOUT_S = 60


@cache
def _c_kernel():
    """The library of `_numerov.c`, built on first use into this package's
    __pycache__, or None where there is no compiler, the build fails or the
    library will not load; solve_radial then runs `_numerov_w`,
    `_numerov_inward` and `_finish`, and radial_matrix_element `_simpson`."""
    try:
        return _load_kernel(_KERNEL_SOURCE, _KERNEL_SOURCE.parent / "__pycache__")
    except (OSError, AttributeError):
        return None


def _load_kernel(src: Path, cache_dir: Path):
    """The library `cache_dir`/_numerov.so, its numerov_solve_model and
    simpson_product set up, built from `src` first unless that file's mtime
    is the source's: each build is stamped with the source's mtime, as a
    bytecode file's header records it, so an edited or touched source is
    built again over the one library.  Its arrays are passed as addresses
    (`ndarray.ctypes.data`) of C-contiguous float64 arrays: ctypes' checked
    ndpointer took 15 us of a 200 us solve."""
    lib = cache_dir / f"{src.stem}.so"
    if not lib.is_file() or lib.stat().st_mtime_ns != src.stat().st_mtime_ns:
        _build_kernel(src, lib)
    import ctypes
    kernel = ctypes.CDLL(str(lib))
    size, array, real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    kernel.numerov_solve_model.argtypes = (size, real, real, real, array, array)
    kernel.numerov_solve_model.restype = None
    kernel.simpson_product.argtypes = (size, array, array, real, ctypes.c_int,
                                       real)
    kernel.simpson_product.restype = real
    return kernel


def _build_kernel(src: Path, lib: Path) -> None:
    """Compile `src` into `lib`, stamped with the mtime `src` had before cc
    ran.  cc writes under a per-process name that is then moved into place,
    so concurrent builds leave one whole file.  A failed or timed-out build
    raises OSError and leaves no new file."""
    import subprocess
    st = src.stat()
    lib.parent.mkdir(exist_ok=True)
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        # no fused multiply-add: it would change the bits of chi; -Og keeps
        # cc's peak RSS below that of the CLI process that builds it
        subprocess.run(["cc", "-Og", "-ffp-contract=off", "-fno-math-errno",
                        "-shared", "-fPIC", "-o", str(tmp), str(src)],
                       check=True, capture_output=True, timeout=CC_TIMEOUT_S)
        os.utime(tmp, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(tmp, lib)
    except subprocess.SubprocessError as e:
        raise OSError(f"building {src.name} failed: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)


def _numerov_w(p: SpeciesParams, l: int, j: float, energy: float,
               grid: RadialGrid) -> np.ndarray:
    """W = 8 xi^2 (V(xi^2) - E) + (2l + 1/2)(2l + 3/2) / xi^2, in the
    operation order of that formula on the grid's r.  Scaling by 8 is
    exact, so (V - E) 8 r rounds as (V - E) ((8 xi) xi)."""
    r = grid.r
    return (_potential(p, l, j, r) - energy) * 8.0 * r \
        + (2 * l + 0.5) * (2 * l + 1.5) / r


def _kernel_solve(kernel, p: SpeciesParams, l: int, j: float, energy: float,
                  grid: RadialGrid) -> tuple:
    """(chi, nodes, divergent core?, norm^2) as the fallback's
    `_numerov_inward(_numerov_w(...), h)` and `_finish` give them, bit for
    bit, from one call of the compiled solve, which builds each node and W
    there and blanks, counts and integrates chi (`_numerov.c`); chi is not
    yet normalized.  The kernel writes its three results over the first
    three of `_model_constants`."""
    model = _model_constants(p, l, j, energy)
    chi = np.empty(grid.size)
    kernel.numerov_solve_model(chi.size, math.sqrt(grid.r_min), grid.step,
                               TAIL_DEPTH, model.ctypes.data, chi.ctypes.data)
    nodes, core, norm2 = model[:3].tolist()
    return chi, int(nodes), core != 0.0, norm2


def _model_constants(p: SpeciesParams, l: int, j: float,
                     energy: float) -> np.ndarray:
    """The constants the compiled solve builds W from at each node, in the
    order of `_numerov.c`'s unpack."""
    a1, a2, a3, a4, rc = p.potential_for(l)
    return np.array((energy, (2 * l + 0.5) * (2 * l + 1.5), p.Z - 1.0, a3, a4,
                     p.alpha_c, p.so_scale, FINE_STRUCTURE**2, _ls(l, j), a1,
                     a2, rc, rc * _R_NEAR))


def _tail_start(W: np.ndarray, h: float) -> int:
    """The node the inward recurrence starts at: the first node beyond the
    outer turning point (the last node with W < 0) where the WKB depth
    h sum sqrt(W), summed outward from the turning point, passes
    TAIL_DEPTH, or the grid's last node if the depth never gets there or no
    node has W < 0.  The C kernel finds the same node in its own scan, on
    the W it builds from the outer end; this numpy form serves the Python
    fallback and is the tests' reference."""
    below = W < 0.0
    turn = W.size - 1 - int(np.argmax(below[::-1]))
    if not below[turn]:
        return W.size - 1
    depth = np.cumsum(np.sqrt(W[turn + 1:]))
    return min(turn + 1 + int(np.searchsorted(depth, TAIL_DEPTH / h, "right")),
               W.size - 1)


def solve_radial(p: SpeciesParams, n: int, l: int, j: float,
                 grid: RadialGrid | None = None,
                 energy: float | None = None) -> RydbergState:
    """Inward Numerov solve at the quantum-defect energy, started at
    `_tail_start`'s node (the grid's last node unless the state's tail dies
    out before it), with chi 0 beyond (`_numerov_inward`), then blanked,
    counted and normalized (`_finish`).  Where the C kernel is built, all of
    it is one compiled call (`_kernel_solve`), which allocates only chi.

    Returns the normalized state with node count and diagnostic flags:
    'divergent-core' when the inner solution regrew under the barrier and was
    truncated, 'node-count' when the count disagrees with n - l - 1,
    'non-finite' when chi or its norm left the range of floats (chi is then
    NaN).
    """
    if grid is None:
        grid = default_grid(n)
    if energy is None:
        energy = qd_energy(p, n, l, j)
    # Species data that overflow the potential (say alpha_c = 1e300) give a
    # non-finite chi, which the flag below reports, so numpy need not warn.
    kernel = _c_kernel()
    if kernel is not None:
        chi, nodes, core, norm2 = _kernel_solve(kernel, p, l, j, energy, grid)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            W = _numerov_w(p, l, j, energy, grid)
        chi = _numerov_inward(W, grid.step)
        nodes, core, norm2 = _finish(chi, grid.xi, grid.step)

    flags: list[str] = []
    if core:
        flags.append("divergent-core")
    if nodes != n - l - 1:
        flags.append("node-count")
    if math.isfinite(norm2):
        chi /= math.sqrt(norm2)
    else:
        flags.append("non-finite")
        chi.fill(np.nan)
    return RydbergState(n=n, l=l, j=j, energy=energy, grid=grid, chi=chi,
                        nodes=nodes, flags=tuple(flags))


def _finish(chi: np.ndarray, xi: np.ndarray, h: float) -> tuple:
    """(nodes, divergent core?, norm^2) of an inward solution, blanked in
    place first.  The compiled solve does the same in its steps 6-9, and
    this is its reference."""
    # Truncate an inner blow-up.  Inside the innermost crossing the physical
    # solution decays toward r -> 0 (the Langer term keeps W > 0 at the
    # boundary), so |chi| growing monotonically INTO the boundary by over an
    # order of magnitude marks the spurious branch picked up because E is not
    # an exact eigenvalue; zero it through its minimum so a contamination
    # crossing is not counted as a node.  Blanking chi[:k+1] zeroes every
    # product chi[i] chi[i+1] with i <= k and leaves the rest, so the
    # crossings after it are the ones beyond k.  A chi past the float range
    # overflows these products and the norm's, which solve_radial flags.
    with np.errstate(over="ignore"):
        sign_change = np.flatnonzero(chi[:-1] * chi[1:] < 0.0)
    if sign_change.size and sign_change[0] < 3:
        # a crossing within a couple of samples of the cutoff is the
        # irregular branch leaking into the boundary value, not a node the
        # grid could resolve; blank it (amplitude there is ~1e-8 of the peak)
        chi[: int(sign_change[0]) + 1] = 0.0
        sign_change = sign_change[1:]
    seg_end = int(sign_change[0]) + 1 if sign_change.size else chi.size
    inner = np.abs(chi[:seg_end])
    imin = int(np.argmin(inner))
    core = bool(imin > 0 and inner[0] >= inner[: imin + 1].max()
                and inner[0] > 10.0 * inner[imin])
    if core:
        chi[: imin + 1] = 0.0
        sign_change = sign_change[sign_change > imin]

    with np.errstate(over="ignore"):
        norm2 = 2.0 * _simpson(chi * chi * xi * xi, h)
    return sign_change.size, core, float(norm2)


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid of step h.  An even point count
    takes the same last-interval end correction as scipy.integrate.simpson."""
    if y.size % 2:
        return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                          + 2.0 * y[2:-1:2].sum())
    return _simpson(y[:-1], h) + h * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0


def radial_matrix_element(f: RydbergState, i: RydbergState,
                          alpha: int, w_r: float) -> float:
    """<f| r (r/w_r)^{alpha-1} |i> = w_r^{1-alpha} * 2 int chi_f chi_i xi^{2alpha+2} dxi,
    with both states solved on one grid (as `compute_scenario` solves them)."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    if w_r <= 0:
        raise ValueError("w_r must be positive")
    if f.grid != i.grid:
        raise ValueError("states live on different grids; solve both on one grid")
    kernel = _c_kernel()
    if kernel is not None:
        val = kernel.simpson_product(f.chi.size, f.chi.ctypes.data,
                                     i.chi.ctypes.data,
                                     math.sqrt(f.grid.r_min), alpha,
                                     f.grid.step)
    else:
        r = y = f.grid.r
        for _ in range(alpha):                          # r^(alpha + 1)
            y = y * r
        val = 2.0 * _simpson(y * (f.chi * i.chi), f.grid.step)
    return float(val) / w_r ** (alpha - 1)


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
