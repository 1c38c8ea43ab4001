"""First-order models of the operator around an anchor point.

``LinearModel`` is the Taylor linearization F(z) + J(z)(z'-z).
``RegularizedModel`` adds the radial term H * |z'-z|^power * (z'-z); with
power 0 the coefficient is constant (0^0 = 1, so the step-zero value is
still well defined).  ``jacobian_at`` is the model's exact Jacobian, which
the semismooth Newton inner solver needs.  A line search builds one
``LinearModel`` per outer iteration and regularizes it once per trial, so
the linear model caches what every trial's solve reads of J: the smallest
eigenvalue of its symmetric part (the monotonicity check) and its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import Array, Operator


@dataclass(frozen=True)
class LinearModel:
    anchor: Array
    value: Array
    jacobian: Array

    def __call__(self, z: Array) -> Array:
        return self.value + self.jacobian @ (z - self.anchor)

    @cached_property
    def sym_min_eig(self) -> Optional[float]:
        """Smallest eigenvalue of (J + J^T)/2; None above d=400, where the
        eigendecomposition is not worth its cost."""
        if self.jacobian.shape[0] > 400:
            return None
        return float(np.linalg.eigvalsh(0.5 * (self.jacobian + self.jacobian.T))[0])

    @cached_property
    def jacobian_norm(self) -> float:
        """Frobenius norm of J."""
        return float(np.linalg.norm(self.jacobian))


@dataclass(frozen=True)
class RegularizedModel:
    """Linear model plus an isotropic radial regularizer.

    ``power`` is the exponent on the step norm (the Holder exponent for
    the known-smoothness methods, 1 for the universal ones) and ``H`` the
    coefficient in front of the radial term.
    """

    base: LinearModel
    power: float
    H: float

    @property
    def anchor(self) -> Array:
        return self.base.anchor

    def __call__(self, z: Array) -> Array:
        base = self.base
        d = z - base.anchor
        nd = math.sqrt(d @ d)
        return base.value + base.jacobian @ d + (self.H * nd ** self.power) * d

    def jacobian_at(self, z: Array) -> Array:
        """J + H (|d|^power I + power |d|^(power-2) d d^T), with 0^0 = 1."""
        d = z - self.base.anchor
        nd = math.sqrt(d @ d)
        out = self.base.jacobian + (self.H * nd ** self.power) * np.eye(d.shape[0])
        if nd > 0.0 and self.power != 0.0:
            out += (self.H * self.power * nd ** (self.power - 2.0)) * np.outer(d, d)
        return out


def build_linear_model(op: Operator, z: Array) -> LinearModel:
    """Linearize ``op`` at ``z``; costs one value and one Jacobian call."""
    return LinearModel(anchor=np.asarray(z, dtype=np.float64),
                       value=op.value(z), jacobian=op.jacobian(z))


def remainder_bound(nu: float, H: float, step_norm: float) -> float:
    """Upper bound H/(1+nu) * t^(1+nu) on |F(z+d) - F(z) - J(z)d| at t=|d|."""
    if step_norm < 0:
        raise ValueError("step_norm must be nonnegative")
    return H / (1.0 + nu) * step_norm ** (1.0 + nu)
