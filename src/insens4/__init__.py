"""Insensitizing controls for fourth-order semilinear parabolic problems.

The pipeline: build a validated problem (grid, subdomains, coefficients,
Carleman weights), solve the forward/adjoint cascade spectrally, minimize
the penalized HUM functional for a control supported on omega, and verify
the null condition q(0) = 0 together with the sentinel's tau-derivative.
A Picard loop around frozen linearizations extends the construction to
semilinear reaction terms.
"""
