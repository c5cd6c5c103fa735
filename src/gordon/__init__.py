"""Numerical library for the elliptic sinh-Gordon and sine-Gordon equations.

Provides closed-form solution catalogs, quartic-profile ODE integration,
the first-order transformation between the two equations by quadrature,
harmonic-map construction into the hyperbolic upper half-plane, and
finite-difference verification of every construction.
"""
