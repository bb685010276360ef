"""Phase-space primitives: points on the 2-torus or plane, the concrete map
family (cat map, perturbed cat map, standard map, Henon), exact Jacobians,
wrapped metric, and orbit generation.

A point is a (2,) float row, like each row of an orbit, arc or cover array;
its space is the map's (system.space), never the point's own.  Point2 is
the check a point passes where it comes in from outside.

All maps are invertible in closed form; the perturbed cat map A o S, a cat
map A after a shear S, inverts as the cat inverse followed by the inverse
shear.  Space.fold stores torus coordinates canonically in [0, 1), and
Space.wrap takes displacement vectors to the symmetric representative in
(-1/2, 1/2].

Each map kind is defined once, as an entry of the table _KINDS: a walk each
way, whose formulas run on Python floats and on numpy arrays alike, and its
Jacobian.  walk is the one place a step is read from: step_xy and
step_array take a walk's first pair, forward or backward, and
SystemSpec.jac hands out the Jacobian.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NonFiniteError

TWO_PI = 2.0 * math.pi

# Growth/contraction eigendata of [[2,1],[1,1]] used in a few closed forms.
CAT_LAMBDA_U = (3.0 + math.sqrt(5.0)) / 2.0
CAT_LAMBDA_S = (3.0 - math.sqrt(5.0)) / 2.0
CAT_EXPONENT = math.log(CAT_LAMBDA_U)

# Coordinate magnitude beyond which a plane map is declared to have escaped.
PLANE_OVERFLOW = 1e50


class Space(enum.Enum):
    """A map's phase space.  It owns the geometry: every array fold,
    displacement wrap and distance in the library is one of its three
    methods (the per-step map formulas keep their own % 1.0)."""

    TORUS2 = "torus2"
    PLANE = "plane"

    def fold(self, a: np.ndarray) -> np.ndarray:
        """Fold a float array into [0, 1) in place and return it (on the
        plane, a as it is).  % 1.0 rounds a tiny negative coordinate up to
        1.0, which is the coordinate 0.0."""
        if self is Space.TORUS2:
            a %= 1.0
            a[a == 1.0] = 0.0
        return a

    def wrap(self, d: np.ndarray) -> np.ndarray:
        """Displacement array d wrapped to its representative in (-1/2, 1/2]
        (on the plane, d as it is).  d - rint(d) rounds nothing for
        |d| < 2^52, so the wrap is exact, and antisymmetric but at +-1/2."""
        if self is Space.TORUS2:
            d = d - np.rint(d)
            d[d == -0.5] = 0.5
        return d

    def dist(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise distances between two (..., 2) arrays."""
        d = self.wrap(a - b)
        return np.hypot(d[..., 0], d[..., 1])


class SystemKind(enum.Enum):
    CAT_MAP = "CatMap"
    PERTURBED_CAT_MAP = "PerturbedCatMap"
    STANDARD_MAP = "StandardMap"
    HENON = "Henon"


def Point2(x: float, y: float, space: Space = Space.TORUS2) -> np.ndarray:
    """A point from outside as a (2,) float row: NonFiniteError unless both
    coordinates are finite; torus coordinates are folded into [0, 1)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFiniteError(f"non-finite point ({x}, {y})")
    return space.fold(np.array([x, y], dtype=float))


@dataclass(frozen=True)
class SystemSpec:
    """One of the supported invertible surface maps.

    kinds and parameters:
      CatMap            -- v -> [[2,1],[1,1]] v  (mod 1), no parameters
      PerturbedCatMap   -- v -> [[2,1],[1,1]] (x, y + kappa sin(2 pi x))  (mod 1);
                           an area-preserving shear perturbation of the cat map
                           (det Df = 1 identically), Anosov for small kappa
      StandardMap       -- kicked rotor on the unit torus with strength K_s
      Henon             -- (x, y) -> (1 - a x^2 + y, b x) on the plane, b != 0
    """

    kind: SystemKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        required = set(_KINDS[self.kind].params)
        for what, names in (("unknown", set(self.params) - required), ("missing", required - set(self.params))):
            if names:
                msg = f"{what} system parameter(s) {sorted(names)} for kind {self.kind.value}"
                raise ConfigError(msg, field="system.params")
        try:
            params = {k: float(v) for k, v in self.params.items()}
        except (TypeError, ValueError):
            raise ConfigError("system parameters must be numbers", field="system.params") from None
        if not all(map(math.isfinite, params.values())):
            raise ConfigError(f"non-finite system parameter(s) in {params}", field="system.params")
        object.__setattr__(self, "params", params)
        # invertibility guard: det Df must not vanish on a grid (it is 1 for the
        # torus maps and -b for Henon; huge parameters cancel it to 0)
        g = np.linspace(0.0, 1.0, 33)
        a11, a12, a21, a22 = self.jac(np)(g, g)
        if not np.all(np.abs(a11 * a22 - a12 * a21) > 0.0):
            msg = f"{self.kind.value} parameters {params} fail the Jacobian determinant grid check (det Df = 0)"
            raise ConfigError(msg, field="system.params")

    @property
    def space(self) -> Space:
        return _KINDS[self.kind].space

    @property
    def log_det(self) -> float:
        """log|det Df|, the same at every point for every kind."""
        return _KINDS[self.kind].log_det(self.params)

    def jac(self, xp=math):
        """The kind's Jacobian (x, y) -> (a11, a12, a21, a22): on Python
        floats with xp = math, on numpy arrays (one point per element) with
        xp = numpy."""
        return _KINDS[self.kind].walks(self.params, xp)[2]

    @classmethod
    def cat_map(cls) -> "SystemSpec":
        return cls(SystemKind.CAT_MAP, {})

    @classmethod
    def perturbed_cat_map(cls, kappa: float) -> "SystemSpec":
        return cls(SystemKind.PERTURBED_CAT_MAP, {"kappa": float(kappa)})

    @classmethod
    def standard_map(cls, K_s: float) -> "SystemSpec":
        return cls(SystemKind.STANDARD_MAP, {"K_s": float(K_s)})

    @classmethod
    def henon(cls, a: float, b: float) -> "SystemSpec":
        return cls(SystemKind.HENON, {"a": float(a), "b": float(b)})

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "SystemSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError("system must be an object with a 'kind' field", field="system.kind")
        kind_name = obj["kind"]
        try:
            kind = SystemKind(kind_name)
        except ValueError:
            valid = ", ".join(k.value for k in SystemKind)
            raise ConfigError(f"unknown system kind {kind_name!r} (valid: {valid})", field="system.kind") from None
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("system.params must be an object", field="system.params")
        return cls(kind, params)


# ---------------------------------------------------------------------------
# the map table: per kind, a factory (params, xp) -> (forward, inverse, jac)
# on coordinates x, y, run on Python floats with xp = math and on arrays with
# xp = numpy; forward and inverse are walks, generators that step from (x, y)
# and yield x1, y1, x2, y2, ... without end, read only through walk; jac
# gives the flat (a11, a12, a21, a22), constants as scalars, read only
# through SystemSpec.jac; log_det gives the constant log|det Df| from the
# params


class MapKind(NamedTuple):
    space: Space
    params: tuple
    walks: Callable
    log_det: Callable


def _cat_inverse(x, y):
    while True:
        # inverse matrix [[1,-1],[-1,2]]
        x, y = (x - y) % 1.0, (-x + 2.0 * y) % 1.0
        yield x
        yield y


def _cat(p, xp):
    def forward(x, y):
        while True:
            x, y = (2.0 * x + y) % 1.0, (x + y) % 1.0
            yield x
            yield y

    def jac(x, y):
        return 2.0, 1.0, 1.0, 1.0

    return forward, _cat_inverse, jac


def _perturbed_cat(p, xp):
    kappa, sin = p["kappa"], xp.sin

    def forward(x, y):
        while True:
            yy = y + kappa * sin(TWO_PI * x)
            x, y = (2.0 * x + yy) % 1.0, (x + yy) % 1.0
            yield x
            yield y

    def jac(x, y):
        c = TWO_PI * kappa * xp.cos(TWO_PI * x)
        return 2.0 + c, 1.0, 1.0 + c, 1.0

    def inverse(x, y):
        while True:
            # the cat inverse, then the shear undone
            x, y = (x - y) % 1.0, (-x + 2.0 * y) % 1.0
            y = (y - kappa * sin(TWO_PI * x)) % 1.0
            yield x
            yield y

    return forward, inverse, jac


def _standard(p, xp):
    k, sin = p["K_s"] / TWO_PI, xp.sin

    def forward(x, y):
        while True:
            y = (y + k * sin(TWO_PI * x)) % 1.0
            x = (x + y) % 1.0
            yield x
            yield y

    def inverse(x, y):
        while True:
            x = (x - y) % 1.0
            y = (y - k * sin(TWO_PI * x)) % 1.0
            yield x
            yield y

    def jac(x, y):
        c = p["K_s"] * xp.cos(TWO_PI * x)
        return 1.0 + c, 1.0, c, 1.0

    return forward, inverse, jac


def _henon(p, xp):
    a, b = p["a"], p["b"]

    def forward(x, y):
        while True:
            x, y = _plane("orbit", 1.0 - a * x * x + y, b * x)
            yield x
            yield y

    def inverse(x, y):
        while True:
            px = y / b
            x, y = _plane("inverse", px, x - 1.0 + a * px * px)
            yield x
            yield y

    def jac(x, y):
        return -2.0 * a * x, 1.0, b, 0.0

    return forward, inverse, jac


def _plane(what, x, y):
    """(x, y), unless a point (of arrays, the first row) lies past PLANE_OVERFLOW."""
    over = (abs(x) > PLANE_OVERFLOW) | (abs(y) > PLANE_OVERFLOW)
    if over is not False and np.any(over):
        if np.ndim(over):
            i = np.argmax(over)
            x, y = x[i], y[i]
        raise NonFiniteError(f"Henon {what} escaped: ({x}, {y})")
    return x, y


_KINDS = {
    SystemKind.CAT_MAP: MapKind(Space.TORUS2, (), _cat, lambda p: 0.0),
    SystemKind.PERTURBED_CAT_MAP: MapKind(Space.TORUS2, ("kappa",), _perturbed_cat, lambda p: 0.0),
    SystemKind.STANDARD_MAP: MapKind(Space.TORUS2, ("K_s",), _standard, lambda p: 0.0),
    SystemKind.HENON: MapKind(Space.PLANE, ("a", "b"), _henon, lambda p: math.log(abs(p["b"]))),
}


# ---------------------------------------------------------------------------
# point and array evaluation


def walk(system: SystemSpec, x, y, forward: bool = True, xp=math):
    """The orbit of (x, y) one way, as x1, y1, x2, y2, ... without end: Python
    floats with xp = math, arrays (one point per element) with xp = numpy.
    np.fromiter(walk(...), float, 2 n) takes n steps, zip(w, w) pairs them,
    and the walk continues where its reader stopped."""
    forward_walk, inverse_walk, _ = _KINDS[system.kind].walks(system.params, xp)
    return (forward_walk if forward else inverse_walk)(x, y)


def walk_rows(w, count: int, size: int):
    """The next count rows of the walk w, as (n, 2) arrays of at most size
    rows.  The one walk goes on from array to array, so the rows are the
    floats of one orbit_array call."""
    for t in range(0, count, size):
        yield np.fromiter(w, float, 2 * min(size, count - t)).reshape(-1, 2)


def orbit_array(system: SystemSpec, x: float, y: float, n_fwd: int, n_bwd: int = 0) -> np.ndarray:
    """Orbit window as an (n_bwd + n_fwd + 1, 2) array; row i is f^(i - n_bwd)."""
    if n_fwd < 0 or n_bwd < 0:
        raise ValueError(f"orbit lengths must be >= 0, got n_fwd={n_fwd}, n_bwd={n_bwd}")
    start = system.space.fold(np.array([[x, y]], dtype=float))
    behind, ahead = (
        np.fromiter(walk(system, *start[0].tolist(), fwd), float, 2 * n).reshape(-1, 2)
        for fwd, n in ((False, n_bwd), (True, n_fwd))
    )
    return np.concatenate((behind[::-1], start, ahead))


def step_xy(system: SystemSpec, x: float, y: float, forward: bool = True):
    """One application of the map (or its inverse), on raw coordinates: the
    first pair of the walk."""
    w = walk(system, x, y, forward)
    return next(w), next(w)


def step_array(system: SystemSpec, pts: np.ndarray, forward: bool = True) -> np.ndarray:
    """Image of an (n, 2) array of points under the map (or its inverse),
    row for row equal to step_xy; an error names the first failing row as
    the scalar call on that row would."""
    w = walk(system, pts[:, 0], pts[:, 1], forward, np)
    return np.column_stack((next(w), next(w)))


def jac_array(system: SystemSpec, pts: np.ndarray) -> np.ndarray:
    """Jacobians at each row of an (n, 2) array, shape (n, 2, 2)."""
    out = np.empty((len(pts), 2, 2), dtype=float)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = system.jac(np)(pts[:, 0], pts[:, 1])
    return out
