"""Radial harmonic analysis on the Heisenberg group H^n.

The package computes the group Fourier transform of radial functions
through Laguerre expansions, builds compactly supported functions whose
transform decays at a certified rate prescribed by a profile Theta, and
probes the norm-growth sequence ||L^m f||_2 of the sublaplacian that
controls quasi-analytic behavior.

Numerical claims are certified rather than assumed: envelope and bound
constants are frozen by calibration runs into JSON fixtures, every
certified check recomputes its inequality on a declared grid, and reports
are byte-identical across repeated runs.

The package re-exports nothing: import each name from the module that
defines it (``from heisharm.transform import box_coefficients``).
"""

__version__ = "0.1.0"
