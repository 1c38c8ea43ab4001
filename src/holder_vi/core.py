"""Core types: operators, feasible sets, solver configuration.

Everything downstream works with plain float64 numpy arrays.  An
``Operator`` bundles the map F, its Jacobian and (optionally) higher
directional derivatives; a ``FeasibleSet`` exposes the geometric oracles
the solvers need: a Euclidean projection, a linear support maximizer and
the Newton matrix of the normal map built from the projection's
generalized Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, EvaluationError, UnboundedGapError, UnsupportedOrder

Array = np.ndarray

METHODS = ("nu-ren", "nu-aren", "uren", "nu-aret", "uret", "extragradient")

# Methods that run a doubling line search on the smoothness coefficient.
ADAPTIVE_METHODS = ("nu-aren", "uren", "nu-aret", "uret")


def as_point(z, dim: Optional[int] = None) -> Array:
    """Validate and coerce ``z`` to a finite float64 vector."""
    v = np.asarray(z, dtype=np.float64)
    if v.ndim != 1:
        raise EvaluationError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise EvaluationError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise EvaluationError(f"non-finite coordinates in point {v!r}")
    return v


@dataclass(frozen=True)
class Operator:
    """A monotone map F with derivative oracles.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    fn : callable
        z -> F(z), returning a vector of length ``dim``.
    jac_fn : callable
        z -> Jacobian of F at z, shape (dim, dim).
    deriv_fn : callable, optional
        (order, z, dirs) -> derivative tensor of F applied to the listed
        directions; order 2 with dirs (u, v) must return the vector
        D^2 F(z)[u, v], and with a (dim, k) matrix v the (dim, k) matrix of
        columns D^2 F(z)[u, v[:, j]].  Needed only by third-order methods.
    nu, holder_const : float, optional
        Declared Holder exponent / constant of the Jacobian over the set.
        No iteration reads them; every run's bound verdicts, ``solve``'s
        ``auto`` settings and ``verify`` do.
    holder_const_p3 : float, optional
        Declared Lipschitz constant of the second derivative, for maps
        that carry a third-order oracle; the order-3 runs' verdicts read it.
    """

    dim: int
    fn: Callable[[Array], Array]
    jac_fn: Callable[[Array], Array]
    deriv_fn: Optional[Callable[[int, Array, Sequence[Array]], Array]] = None
    nu: Optional[float] = None
    holder_const: Optional[float] = None
    holder_const_p3: Optional[float] = None

    def value(self, z: Array) -> Array:
        out = np.asarray(self.fn(z), dtype=np.float64)
        if out.shape != (self.dim,) or not np.all(np.isfinite(out)):
            raise EvaluationError(f"operator value not finite/valid at z={z!r}")
        return out

    def jacobian(self, z: Array) -> Array:
        out = np.asarray(self.jac_fn(z), dtype=np.float64)
        if out.shape != (self.dim, self.dim) or not np.all(np.isfinite(out)):
            raise EvaluationError(f"operator Jacobian not finite/valid at z={z!r}")
        return out

    def deriv_apply(self, order: int, z: Array, dirs: Sequence[Array]) -> Array:
        if order == 1:
            (u,) = dirs
            return self.jacobian(z) @ u
        if self.deriv_fn is None:
            raise UnsupportedOrder(f"operator has no derivative of order {order}")
        out = np.asarray(self.deriv_fn(order, z, dirs), dtype=np.float64)
        if out.shape != (self.dim, *np.shape(dirs[-1])[1:]) or not np.all(np.isfinite(out)):
            raise EvaluationError(f"derivative of order {order} not finite at z={z!r}")
        return out


class FeasibleSet:
    """Closed convex set given by projection and support oracles."""

    dim: int

    def project(self, z: Array) -> Array:
        raise NotImplementedError

    def support_argmax(self, g: Array) -> Array:
        """A maximizer of <g, z> over the set; raises if unbounded."""
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    def contains(self, z: Array, tol: float = 1e-9) -> bool:
        return bool(np.linalg.norm(z - self.project(z)) <= tol)

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        """n points from the set, rows of an (n, dim) array."""
        raise NotImplementedError

    def normal_map_jacobian(self, x: Array, JM: Array) -> Array:
        """JM JP + I - JP for an element JP of the generalized Jacobian of
        the projection at x: the Newton matrix of the normal map
        M(P(x)) + x - P(x), given the model Jacobian JM at P(x).  May
        return JM itself."""
        raise NotImplementedError


@dataclass(frozen=True)
class WholeSpace(FeasibleSet):
    dim: int

    def project(self, z: Array) -> Array:
        return np.asarray(z, dtype=np.float64)

    def support_argmax(self, g: Array) -> Array:
        if np.linalg.norm(g) == 0.0:
            return np.zeros(self.dim)
        raise UnboundedGapError("support of a nonzero direction over the whole space")

    @property
    def diameter(self) -> float:
        return np.inf

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        return rng.standard_normal((n, self.dim))

    def normal_map_jacobian(self, x: Array, JM: Array) -> Array:
        return JM


@dataclass(frozen=True)
class Ball(FeasibleSet):
    dim: int
    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center, self.dim))
        if not (self.radius > 0):
            raise ConfigError(f"ball radius must be positive, got {self.radius}")

    def project(self, z: Array) -> Array:
        w = np.asarray(z, dtype=np.float64) - self.center
        n = math.sqrt(w @ w)
        if n <= self.radius:
            return self.center + w
        return self.center + w * (self.radius / n)

    def support_argmax(self, g: Array) -> Array:
        n = math.sqrt(g @ g)
        if n == 0.0:
            return self.center.copy()
        return self.center + g * (self.radius / n)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        # uniform direction, radius^d-corrected length
        u = rng.standard_normal((n, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = self.radius * rng.random(n) ** (1.0 / self.dim)
        return self.center + u * r[:, None]

    def normal_map_jacobian(self, x: Array, JM: Array) -> Array:
        # outside: JP = s (I - w w^T) with s = r/|x - c| and unit w, so
        # JM JP + I - JP = s JM + (1 - s) I + s (w - JM w) w^T
        w = x - self.center
        n = math.sqrt(w @ w)
        if n <= self.radius:
            return JM
        s = self.radius / n
        w /= n
        out = s * JM + np.outer(s * (w - JM @ w), w)
        out[np.diag_indices(self.dim)] += 1.0 - s
        return out


@dataclass(frozen=True)
class Box(FeasibleSet):
    dim: int
    lower: Array
    upper: Array

    def __post_init__(self):
        object.__setattr__(self, "lower", as_point(self.lower, self.dim))
        object.__setattr__(self, "upper", as_point(self.upper, self.dim))
        if np.any(self.lower > self.upper):
            raise ConfigError("box lower bound exceeds upper bound")

    def project(self, z: Array) -> Array:
        return np.clip(np.asarray(z, dtype=np.float64), self.lower, self.upper)

    def support_argmax(self, g: Array) -> Array:
        # ties (g_i == 0) resolve to the upper corner
        return np.where(np.asarray(g) < 0.0, self.lower, self.upper)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        u = rng.random((n, self.dim))
        return self.lower + u * (self.upper - self.lower)

    def normal_map_jacobian(self, x: Array, JM: Array) -> Array:
        # JP is the 0/1 diagonal of the coordinates strictly inside
        inside = (x > self.lower) & (x < self.upper)
        out = JM * inside
        clamped = np.flatnonzero(~inside)
        out[clamped, clamped] += 1.0
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Validated run parameters: the one source of every value a run uses.

    ``inner_tol=None`` resolves to min(1e-10, eps * 1e-4).  ``H`` is the
    smoothness constant for fixed-coefficient runs, ``H0`` the starting
    coefficient for line-search runs, ``step`` the extragradient step
    (None: estimated).  ``report_radius`` substitutes a bounded reporting
    set when the feasible set is the whole space.  Frozen, so the checks
    below hold for the whole run.
    """

    method: str
    nu: float = 1.0
    H: Optional[float] = None
    H0: Optional[float] = None
    K: int = 100
    eps: float = 1e-6
    p: int = 2
    inner_tol: Optional[float] = None
    max_doublings: int = 60
    step: Optional[float] = None
    seed: int = 0
    gap_cadence: int = 1
    report_radius: Optional[float] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not (0.0 <= self.nu <= 1.0):
            raise ConfigError(f"nu must lie in [0, 1], got {self.nu}")
        if self.inner_tol is None:
            object.__setattr__(self, "inner_tol", min(1e-10, self.eps * 1e-4))
        for name in ("H", "H0", "eps", "inner_tol", "step", "report_radius"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not (isinstance(self.K, (int, np.integer)) and self.K >= 1):
            raise ConfigError(f"K must be a positive integer, got {self.K}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if not (isinstance(self.p, (int, np.integer)) and 2 <= self.p <= 3):
            raise ConfigError(f"p must be 2 or 3, got {self.p}")
        if self.p != 2 and self.method not in ("nu-aret", "uret"):
            raise ConfigError(f"{self.method} is a second-order method; p must be 2, "
                              f"got {self.p}")
        if self.max_doublings < 1:
            raise ConfigError("max_doublings must be at least 1")
        if self.gap_cadence < 1:
            raise ConfigError("gap_cadence must be at least 1")
        if self.method == "nu-ren" and self.H is None:
            raise ConfigError("nu-ren needs the smoothness constant H")
        if self.method in ADAPTIVE_METHODS and self.H0 is None:
            raise ConfigError(f"{self.method} needs a starting coefficient H0")


class MonotoneCheck(NamedTuple):
    passed: bool
    worst: float


def check_monotone(op: Operator, feasible: FeasibleSet, n_samples: int = 200,
                   seed: int = 0, tol: float = 1e-10) -> MonotoneCheck:
    """Sampled monotonicity check: min over pairs of <F(z)-F(z'), z-z'>.

    Returns the worst (most negative) inner product and whether it stays
    above ``-tol`` scaled by the pair magnitudes.
    """
    rng = np.random.default_rng(seed)
    zs = feasible.sample(rng, n_samples)
    zps = feasible.sample(rng, n_samples)
    worst = np.inf
    ok = True
    for z, zp in zip(zs, zps):
        dz = z - zp
        if np.linalg.norm(dz) == 0.0:
            continue
        val = float((op.value(z) - op.value(zp)) @ dz)
        worst = min(worst, val)
        if val < -tol * (1.0 + float(dz @ dz)):
            ok = False
    return MonotoneCheck(passed=ok, worst=float(worst))


def holder_ratio_max(op: Operator, pairs, nu: float) -> float:
    """Max of |J(z) - J(z')| / |z - z'|^nu over explicit point pairs.

    Spectral norms are taken batched over a stacked array of differences.
    Degenerate pairs (z == z') are skipped.
    """
    diffs = []
    dists = []
    for z, zp in pairs:
        dn = float(np.linalg.norm(z - zp))
        if dn == 0.0:
            continue
        diffs.append(op.jacobian(z) - op.jacobian(zp))
        dists.append(dn)
    if not diffs:
        return 0.0
    spec = np.linalg.svd(np.stack(diffs), compute_uv=False)[:, 0]
    return float(np.max(spec / np.asarray(dists) ** nu))


def estimate_holder_constant(op: Operator, feasible: FeasibleSet, nu: float,
                             n_samples: int = 500, seed: int = 0) -> float:
    """Sampled lower estimate of the Holder constant of the Jacobian."""
    rng = np.random.default_rng(seed)
    zs = feasible.sample(rng, n_samples)
    zps = feasible.sample(rng, n_samples)
    pairs = []
    for z, zp in zip(zs, zps):
        while np.linalg.norm(z - zp) == 0.0:
            zp = feasible.sample(rng, 1)[0]
        pairs.append((z, zp))
    return holder_ratio_max(op, pairs, nu)
