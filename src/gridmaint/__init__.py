"""Jointly chance-constrained condition-based maintenance and operations scheduling.

The package plans daily predictive maintenance for generators and transmission
lines jointly with hourly unit-commitment operations.  Failure uncertainty is
driven by sensor-style degradation signals (inverse-Gaussian remaining-lifetime
distributions), risk is controlled by an exact Poisson-Binomial joint chance
constraint, and the two-stage stochastic program is solved by an integer
L-shaped decomposition with status-vector caching.
"""

__version__ = "0.1.0"
