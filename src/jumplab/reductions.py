"""Dense vector reductions that stay on the calling thread.

A BLAS call (``x @ y`` on float vectors, ``np.dot``, the LAPACK least squares
inside ``np.polyfit``) wakes the OpenBLAS thread pool, whose idle threads then
spin for a while; on the desk-scale vectors here that burns a second core and
saves no time.  ``dot`` sums the elementwise product with ``np.add.reduce``
(pairwise summation), so it never wakes the BLAS thread pool, and no thread
count has to be pinned.  Every dense vector reduction goes through it:

- ``fdm``: the rank-one solve, on node values and on mode coefficients, and
  its denominator (the no-jump mass that ``experiments.discrete_no_jump_mass``
  reads), the norms, inverse Rayleigh quotient and residuals of inverse
  iteration, which runs on mode coefficients, and the boundary term of the
  exit functional;
- ``theory``: the limit density's mass, the limit exit functional and the
  mu/V integral of the decay-rate prefactor;
- ``fields.validate_coefficients``: the redistribution mass check;
- ``fitting.fit_slope``, the closed-form least-squares line behind
  ``fit_power_law`` and ``mc.fit_survival_rate``.
"""
from __future__ import annotations

import numpy as np


def dot(x, y):
    """x . y as a float, the sum over every element of the elementwise product
    (arrays of any shape), by ``np.add.reduce`` rather than BLAS."""
    return float(np.add.reduce(x * y, axis=None))
