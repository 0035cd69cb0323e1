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
verify    self-check suites and their oracles (LG field expansion,
          translation theorem, sphere quadrature)
"""

__version__ = "0.1.0"
