"""Flux models and closed-form reference solutions.

Every :class:`FluxModel` is separable, ``f(u) = phi(u) d``, so along a
normal ``n`` the flux is ``c phi(u)`` with ``c = d . n``.  Declaring the
finite zeros of ``phi'`` (critical points) and ``phi''`` (inflection points)
makes the solver-facing oracles exact: extrema of ``f . n`` over a state
interval (Godunov fluxes in Osher's min/max form) come from ``phi`` at the
endpoints and the critical points inside, the sharp wave-speed bound
``max |f' . n|`` from ``|phi'|`` at the endpoints and the inflection points
inside, and the monotone/antitone split of ``f' . n`` (flux splitting) from
``phi`` on the pieces between critical points where it rises.

Every oracle takes the normals ``n`` either as vectors or as an
:class:`Along`, the projections ``c = d . n`` computed once by
:meth:`FluxModel.along`, so callers that reuse one set of normals (the faces
of a mesh) do not recompute them.

Sign convention: ``sgn(0) = 0`` throughout, which ``np.sign`` honors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FluxModel",
    "Along",
    "ReferenceSolution",
    "make_flux",
    "reference",
]

FLUX_NAMES = ("burgers", "linear_advection", "buckley_leverett", "rotated_burgers_2d")
CONVEXITY_CLASSES = ("strictly-convex", "linear", "nonconvex")


@dataclass(frozen=True, eq=False)
class Along:
    """Normals projected on a flux direction, ``c = d . n``.

    Made by :meth:`FluxModel.along`; any flux with the same direction
    accepts it in place of the normals it was made from.
    """

    direction: tuple[float, ...]
    c: np.ndarray


@dataclass(frozen=True)
class FluxModel:
    """Separable scalar flux ``f(u) = phi(u) d`` with exact oracles.

    ``phi`` and ``dphi`` act elementwise on float arrays.  The declared
    points must list every finite zero of ``phi'`` and ``phi''``: the oracles
    rely on ``phi`` and ``phi'`` being monotone between them.  ``f`` and
    ``df`` map states of shape S to vectors of shape S + (dim,); normals of
    shape B + (dim,), B a prefix of S, broadcast over trailing state axes.
    """

    name: str
    convexity_class: str
    direction: tuple[float, ...]
    phi: Callable
    dphi: Callable
    critical_points: tuple[float, ...] = ()
    inflection_points: tuple[float, ...] = ()

    def __post_init__(self):
        # tuples of floats keep the frozen dataclass hashable
        object.__setattr__(self, "direction", tuple(map(float, self.direction)))
        for points in ("critical_points", "inflection_points"):
            object.__setattr__(self, points,
                               tuple(sorted(map(float, getattr(self, points)))))
        if self.dim < 1:
            raise ValueError("flux dimension must be at least 1")
        if self.convexity_class not in CONVEXITY_CLASSES:
            raise ValueError(f"unknown convexity class {self.convexity_class!r}")

    @property
    def dim(self) -> int:
        return len(self.direction)

    def f(self, u) -> np.ndarray:
        """Flux vectors ``phi(u) d``."""
        return np.multiply.outer(self.phi(np.asarray(u, dtype=float)), self.direction)

    def df(self, u) -> np.ndarray:
        """Componentwise derivative ``phi'(u) d``."""
        return np.multiply.outer(self.dphi(np.asarray(u, dtype=float)), self.direction)

    def along(self, n) -> Along:
        """The projections ``d . n`` of normals of shape B + (dim,)."""
        return Along(self.direction, self._along(n, 0.0))

    def _along(self, n, like) -> np.ndarray:
        """``c = d . n`` with trailing axes added to broadcast against ``like``.

        The products are added left to right onto 0.0, which is the order,
        and so the bits (signed zeros included), of ``(n * d).sum(-1)``
        without numpy's slow reduction over a short last axis.
        """
        if isinstance(n, Along):
            if n.direction != self.direction:
                raise ValueError("normals projected on another flux direction")
            c = n.c
        else:
            n = np.asarray(n, dtype=float)
            c = 0.0 + n[..., 0] * self.direction[0]
            for j in range(1, self.dim):
                c = c + n[..., j] * self.direction[j]
        return c.reshape(c.shape + (1,) * (np.ndim(like) - c.ndim))

    def fn(self, u, n) -> np.ndarray:
        """Directional flux ``f(u) . n``."""
        return self._along(n, u) * self.phi(np.asarray(u, dtype=float))

    def dfn(self, u, n) -> np.ndarray:
        """Directional wave speed ``f'(u) . n``."""
        return self._along(n, u) * self.dphi(np.asarray(u, dtype=float))

    def _hull_range(self, g, a, b, points):
        """Min and max of ``g`` over the hull of (a, b), elementwise.

        Exact when ``g`` is monotone between consecutive ``points``: the
        extrema sit at the ends or at the points inside.  A point outside
        a hull is clipped to one of its ends, which changes nothing.
        """
        lo, hi = np.minimum(a, b, dtype=float), np.maximum(a, b, dtype=float)
        low, high = g(lo), g(hi)
        low, high = np.minimum(low, high), np.maximum(low, high)
        for z in points:
            g_z = g(np.minimum(np.maximum(z, lo), hi))
            low, high = np.minimum(low, g_z), np.maximum(high, g_z)
        return low, high

    def interval_extremum(self, a, b, n) -> np.ndarray:
        """Godunov's flux in Osher's form: the min of ``f(.) . n`` over the
        hull of (a, b) where a <= b, else the max; ``c phi`` takes its min
        at the max of ``phi`` where c = d . n < 0."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        low, high = self._hull_range(self.phi, a, b, self.critical_points)
        c = self._along(n, low)
        return c * np.where((c >= 0.0) == (a <= b), low, high)

    def max_wave_speed(self, a, b, n) -> np.ndarray:
        """Sharp upper bound of ``|f'(.) . n|`` over the interval hull."""
        _, top = self._hull_range(lambda u: np.abs(self.dphi(u)), a, b,
                                  self.inflection_points)
        return np.abs(self._along(n, top)) * top

    def split_fluxes(self, u, n) -> tuple[np.ndarray, np.ndarray]:
        """Antiderivatives from 0 of the positive/negative parts of f'.n."""
        u = np.asarray(u, dtype=float)
        cuts = (-np.inf, *self.critical_points, np.inf)
        rising = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            # phi is monotone on the piece, so its change there counts
            # exactly when it has the sign of u
            rise = self.phi(np.clip(u, lo, hi)) - self.phi(np.clip(0.0, lo, hi))
            rising = rising + np.where(u >= 0.0, np.maximum(rise, 0.0),
                                       np.minimum(rise, 0.0))
        falling = self.phi(u) - self.phi(np.float64(0.0)) - rising
        c = self._along(n, u)
        cp, cm = np.maximum(c, 0.0), np.minimum(c, 0.0)
        return cp * rising + cm * falling, cm * rising + cp * falling


def _half_square(u):
    return 0.5 * u ** 2


def _identity(u):
    return u


def _fractional_flow(u):
    return u * u / (u * u + (1.0 - u) ** 2)


def _fractional_flow_slope(u):
    den = u * u + (1.0 - u) ** 2
    return 2.0 * u * (1.0 - u) / (den * den)


def make_flux(name: str, **params) -> FluxModel:
    """Construct a shipped flux model by name.

    * ``burgers``: f(u) = u^2 / 2 in one dimension.
    * ``linear_advection``: f(u) = a u; pass ``a`` as a scalar or sequence.
    * ``buckley_leverett``: the nonconvex two-phase fractional flow flux
      u^2 / (u^2 + (1 - u)^2).
    * ``rotated_burgers_2d``: f(u) = (cos angle, sin angle) u^2 / 2;
      pass ``angle`` in radians.
    """
    if name == "burgers":
        args = ("strictly-convex", (1.0,), _half_square, _identity, (0.0,))
    elif name == "linear_advection":
        a = np.atleast_1d(np.asarray(params.pop("a", 1.0), dtype=float))
        args = ("linear", a, _identity, np.ones_like)
    elif name == "buckley_leverett":
        args = ("nonconvex", (1.0,), _fractional_flow, _fractional_flow_slope,
                (0.0, 1.0), (0.5 - np.sqrt(0.75), 0.5, 0.5 + np.sqrt(0.75)))
    elif name == "rotated_burgers_2d":
        angle = float(params.pop("angle", np.pi / 6.0))
        args = ("strictly-convex", (np.cos(angle), np.sin(angle)),
                _half_square, _identity, (0.0,))
    else:
        raise ValueError(f"unknown flux {name!r}; shipped fluxes: {FLUX_NAMES}")
    _reject_params(name, params)
    return FluxModel(name, *args)


def _reject_params(name, params):
    if params:
        raise ValueError(f"flux {name!r} does not accept {sorted(params)}")


# ---------------------------------------------------------------------------
# reference solutions

@dataclass(frozen=True)
class ReferenceSolution:
    """Exact solution u(t, x) with an explicit validity horizon."""

    name: str
    flux: FluxModel
    t_max: float
    evaluate: Callable  # (t, x: (m, dim)) -> (m,)

    def covers(self, t: float) -> bool:
        """Whether ``t`` lies in the validity horizon [0, t_max]."""
        return 0.0 <= t <= self.t_max * (1.0 + 1e-12)

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        t = float(t)
        if not self.covers(t):
            raise ValueError(
                f"reference {self.name!r} is valid on [0, {self.t_max}], got t={t}")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        return self.evaluate(t, x)

    def initial(self, x: np.ndarray) -> np.ndarray:
        return self(0.0, x)


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def reference(name: str, flux: FluxModel) -> ReferenceSolution:
    """Closed-form references, validated against the flux they solve.

    * ``riemann_shock``: entropy shock for 1-D Burgers, states 1 -> 0 at x = 0.
    * ``riemann_rarefaction``: centered fan for 1-D Burgers, -1 -> 1 at x = 0.
    * ``smooth_sine_preshock``: 0.5 + 0.25 sin(2 pi x) under 1-D Burgers by
      characteristics, valid strictly before gradient blowup.
    * ``advected_profile``: sin(2 pi x) translated by a linear flux.
    """
    if name in ("riemann_shock", "riemann_rarefaction", "smooth_sine_preshock"):
        _require(flux.name == "burgers" and flux.dim == 1,
                 f"{name} needs the 1-D burgers flux")
    if name == "riemann_shock":
        ul, ur = 1.0, 0.0
        s = float(flux.fn(ul, np.ones(1)) - flux.fn(ur, np.ones(1))) / (ul - ur)

        def evaluate(t, x):
            return np.where(x[:, 0] < s * t, ul, ur)

        return ReferenceSolution(name, flux, np.inf, evaluate)

    if name == "riemann_rarefaction":
        ul, ur = -1.0, 1.0

        def evaluate(t, x):
            if t <= 0.0:
                return np.where(x[:, 0] < 0.0, ul, ur)
            return np.clip(x[:, 0] / t, ul, ur)

        return ReferenceSolution(name, flux, np.inf, evaluate)

    if name == "smooth_sine_preshock":
        t_star = 1.0 / (2.0 * np.pi * 0.25)

        def u0(y):
            return 0.5 + 0.25 * np.sin(2.0 * np.pi * y)

        def du0(y):
            return 2.0 * np.pi * 0.25 * np.cos(2.0 * np.pi * y)

        def evaluate(t, x):
            # solve u = u0(x - u t) by Newton; safe before blowup
            y = x[:, 0]
            u = u0(y)
            for _ in range(100):
                g = u - u0(y - u * t)
                dg = 1.0 + t * du0(y - u * t)
                du = g / dg
                u = u - du
                if np.abs(du).max() < 1e-15:
                    break
            return u

        return ReferenceSolution(name, flux, 0.95 * t_star, evaluate)

    if name == "advected_profile":
        _require(flux.convexity_class == "linear",
                 "advected_profile needs a linear flux")
        velocity = flux.df(np.zeros(()))

        def evaluate(t, x):
            return np.sin(2.0 * np.pi * (x - velocity * t)[..., 0])

        return ReferenceSolution(name, flux, np.inf, evaluate)

    raise ValueError(f"unknown reference {name!r}")
