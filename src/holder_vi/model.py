"""Taylor models of the operator around an anchor point.

``LinearModel`` is the linearization F(z) + J(z) d and ``QuadraticModel``
adds the second-order term D²F(z)[d, d] / 2, with d = z' - z the step
from the anchor.  ``RegularizedModel`` adds the radial term
H * |d|^power * d to either base; with power 0 the coefficient is
constant (0^0 = 1, so the step-zero value is still well defined).  Each
model's ``jacobian_at`` is its exact Jacobian, which the semismooth
Newton inner solver needs; a quadratic base gets its D²F[d, ·] part from
one D²F call on the identity matrix of directions.  A line search builds
one base per outer iteration and regularizes it once per trial, so the
base caches what every trial's solve reads of J: its norm, for linear
models the monotonicity check, and one d x d workspace that every
Newton matrix of every trial is written into.  That check is a Cholesky
factorization of (J + J^T)/2 + tau I with tau = 1e-8 (1 + |J|_F); only
when it fails does ``eigvalsh`` run, for the eigenvalue that the
fallback's warning reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .core import Array, Operator
from .errors import UnsupportedOrder


@dataclass(frozen=True)
class _TaylorBase:
    anchor: Array
    value: Array
    jacobian: Array

    def __call__(self, z: Array) -> Array:
        return self.taylor(z - self.anchor)

    @cached_property
    def jacobian_norm(self) -> float:
        """Frobenius norm of J."""
        return float(np.linalg.norm(self.jacobian))

    @cached_property
    def workspace(self) -> Array:
        """A d x d scratch buffer shared by the solves of every trial
        regularized on this base; its contents are never kept."""
        n = self.anchor.shape[0]
        return np.empty((n, n))


@dataclass(frozen=True)
class LinearModel(_TaylorBase):
    def taylor(self, d: Array) -> Array:
        """F + J d at the step d from the anchor."""
        return self.value + self.jacobian @ d

    def jacobian_at(self, z: Array) -> Array:
        return self.jacobian

    @cached_property
    def negative_sym_eig(self) -> Optional[float]:
        """Smallest eigenvalue of S = (J + J^T)/2 when it is below -tau, with
        tau = 1e-8 (1 + |J|_F); None when S + tau I has a Cholesky factor
        (so S is PSD up to tau), or above d=400, where the check is not
        worth its cost."""
        J = self.jacobian
        n = J.shape[0]
        if n > 400:
            return None
        tau = 1e-8 * (1.0 + self.jacobian_norm)
        shifted = np.add(J, J.T, out=self.workspace)
        shifted *= 0.5
        shifted.flat[::n + 1] += tau
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lam = float(np.linalg.eigvalsh(0.5 * (J + J.T))[0])
            return lam if lam < -tau else None
        return None


@dataclass(frozen=True)
class QuadraticModel(_TaylorBase):
    """Second-order Taylor expansion; ``deriv(2, anchor, (u, v))`` is D²F[u, v],
    and for a (dim, k) matrix v the (dim, k) columns D²F[u, v[:, j]]."""

    deriv: Callable[[int, Array, tuple], Array]

    def taylor(self, d: Array) -> Array:
        """F + J d + D²F[d, d] / 2 at the step d from the anchor."""
        return self.value + self.jacobian @ d + self.deriv(2, self.anchor, (d, d)) / 2.0

    def jacobian_at(self, z: Array) -> Array:
        """J + D²F[d, I]: the columns D²F[d, e_j] from one D²F call."""
        d = z - self.anchor
        return self.jacobian + self.deriv(2, self.anchor, (d, np.eye(d.shape[0])))


@dataclass(frozen=True)
class RegularizedModel:
    """Taylor model plus an isotropic radial regularizer.

    ``power`` is the exponent on the step norm (the Holder exponent for
    the known-smoothness methods, 1 for the universal ones, p-2+nu or p-1
    for the order-p ones) and ``H`` the coefficient in front of the radial
    term.
    """

    base: Union[LinearModel, QuadraticModel]
    power: float
    H: float

    @property
    def anchor(self) -> Array:
        return self.base.anchor

    def __call__(self, z: Array) -> Array:
        d = z - self.base.anchor
        nd = math.sqrt(d @ d)
        return self.base.taylor(d) + (self.H * nd ** self.power) * d

    def jacobian_at(self, z: Array) -> Array:
        """Base Jacobian + H (|d|^power I + power |d|^(power-2) d d^T), with
        0^0 = 1, built in the base's ``workspace`` and returned, so the
        next call on the same base overwrites it: the rank-1 term, J added
        into it, then the diagonal written as (J_ii + c) + beta d_i^2, so
        every entry rounds as in (J + c I) + beta d d^T.  The base
        Jacobian is never written to."""
        d = z - self.base.anchor
        nd = math.sqrt(d @ d)
        J = self.base.jacobian_at(z)
        c = self.H * nd ** self.power
        diag = J.diagonal() + c
        out = self.base.workspace
        if nd > 0.0 and self.power != 0.0:
            beta = self.H * self.power * nd ** (self.power - 2.0)
            np.multiply.outer(d, d, out=out)
            out *= beta
            out += J
            diag += beta * (d * d)
        else:
            out[...] = J
        out.flat[::d.shape[0] + 1] = diag
        return out


def build_linear_model(op: Operator, z: Array) -> LinearModel:
    """Linearize ``op`` at ``z``; costs one value and one Jacobian call."""
    return LinearModel(anchor=np.asarray(z, dtype=np.float64),
                       value=op.value(z), jacobian=op.jacobian(z))


def build_quadratic_model(op: Operator, z: Array) -> QuadraticModel:
    """Quadratic Taylor model of ``op`` at ``z``; one value and one Jacobian call."""
    return QuadraticModel(anchor=np.asarray(z, dtype=np.float64),
                          value=op.value(z), jacobian=op.jacobian(z),
                          deriv=op.deriv_apply)


def make_tensor_model(op: Operator, z: Array, p: int, power: float,
                      H: float) -> RegularizedModel:
    """Order-p regularized model at z: a linear base for p=2, a quadratic
    one for p=3; any other order raises UnsupportedOrder."""
    if p not in (2, 3):
        raise UnsupportedOrder(f"order {p} models are not supported")
    build = build_linear_model if p == 2 else build_quadratic_model
    return RegularizedModel(build(op, z), power, H)


def remainder_bound(nu: float, H: float, step_norm: float) -> float:
    """Upper bound H/(1+nu) * t^(1+nu) on |F(z+d) - F(z) - J(z)d| at t=|d|."""
    if step_norm < 0:
        raise ValueError("step_norm must be nonnegative")
    return H / (1.0 + nu) * step_norm ** (1.0 + nu)
