"""Optical-vortex driving of trapped Rydberg atoms.

Computes the dipole transition channels and Rabi frequencies induced by a
Laguerre-Gaussian beam on a Rydberg atom held in a two-dimensional harmonic
trap.  The beam's orbital angular momentum and the gradient of its Gaussian
envelope are shared between the valence electron and the center of mass,
which is what the channel bookkeeping in :mod:`lgryd.coupling` tracks.

Module map
----------
specfun   angular-momentum algebra and special functions (log-space)
beam      LG beam parameters, solid-harmonic norm, expansion weights f and g
atom      model potential, quantum defects, Numerov radial solver
cm        2-D harmonic oscillator states of the center of mass
coupling  channel enumeration, selection rules, matrix-element assembly
config    flat dotted-key scenario configuration
cli       batch front-end (channels / rabi / sweep / wavefunction / verify)
verify    self-check suites and their oracles (LG series residual,
          spherical harmonics, translation theorem, sphere quadrature)

numpy loads on first array use: atom, cm, coupling and specfun bind ``np``
through `_lazy_numpy`, so ``import lgryd.cli``, config parsing, the
``Runtime`` setup, ``lgryd channels``, ``--help`` and config errors never
import it.  ``import numpy`` takes about 105 ms, a third of a ``lgryd
channels`` process on rb60 that loads it (2-vCPU Linux host, Python 3.11,
numpy 2.4).  Every lgryd module but ``verify``, which only ``lgryd verify``
imports, is still imported by ``import lgryd.cli``, so the benchmark tracer
finds every module it patches loaded.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_numpy():
    """numpy, imported at the first attribute access of the result, since
    the import is a third of a ``lgryd channels`` process (see above).  Python
    3.11's ``LazyLoader`` is not thread-safe; lgryd is single-threaded."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module
