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

A ``lgryd rabi`` or ``sweep`` process on the compiled path never imports numpy,
which took about 53 ms of each on rb60 (2-vCPU Linux host, Python 3.11,
numpy 2.4): the compiled kernel solves each state into a ctypes buffer and
takes its matrix elements there, and the CM moments and the lambda audit
are plain-Python sums over small quadrature rules.  numpy is imported only
where it runs: by the Python fallback of the radial solve, where no kernel
is built, by ``lgryd wavefunction`` and by ``lgryd verify``.  Every lgryd
module but ``verify``, which only ``lgryd verify`` imports, is imported by
``import lgryd.cli``, so the benchmark tracer finds every module it
patches loaded.
"""

__version__ = "0.1.0"
