"""Phase-space primitives: points on the 2-torus or plane, the concrete map
family (cat map, perturbed cat map, standard map, Henon), exact Jacobians,
wrapped metric, and orbit generation.

All maps are invertible; inverses are closed-form except the perturbed cat
map, which is inverted by Newton iteration on the forward map.  Torus
coordinates are always stored canonically in [0, 1) and displacement vectors
are wrapped to the symmetric representative in (-1/2, 1/2].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InversionError, NonFiniteError

TWO_PI = 2.0 * math.pi

# Growth/contraction eigendata of [[2,1],[1,1]] used in a few closed forms.
CAT_LAMBDA_U = (3.0 + math.sqrt(5.0)) / 2.0
CAT_LAMBDA_S = (3.0 - math.sqrt(5.0)) / 2.0
CAT_EXPONENT = math.log(CAT_LAMBDA_U)
_SQRT5 = math.sqrt(5.0)

# Coordinate magnitude beyond which a plane map is declared to have escaped.
PLANE_OVERFLOW = 1e50


class Space(enum.Enum):
    TORUS2 = "torus2"
    PLANE = "plane"


class SystemKind(enum.Enum):
    CAT_MAP = "CatMap"
    PERTURBED_CAT_MAP = "PerturbedCatMap"
    STANDARD_MAP = "StandardMap"
    HENON = "Henon"


@dataclass(frozen=True)
class Point2:
    """A phase-space point; torus coordinates are canonicalized to [0,1)."""

    x: float
    y: float
    space: Space = Space.TORUS2

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFiniteError(f"non-finite point ({self.x}, {self.y})")
        if self.space is Space.TORUS2:
            object.__setattr__(self, "x", self.x % 1.0)
            object.__setattr__(self, "y", self.y % 1.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


def wrap_half(d):
    """Wrap displacements (scalars or arrays) to the representative in (-1/2, 1/2]."""
    r = (np.asarray(d, dtype=float) + 0.5) % 1.0 - 0.5
    # % maps the +1/2 boundary to -1/2; fold it back so the interval is (-1/2, 1/2]
    if np.ndim(r) == 0:
        return 0.5 if r == -0.5 else float(r)
    r[r == -0.5] = 0.5
    return r


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
        if self.kind is SystemKind.HENON:
            if self.params.get("b", 0.0) == 0.0:
                raise ConfigError("Henon requires b != 0 (inverse exists)", field="b")
        if self.kind is SystemKind.PERTURBED_CAT_MAP:
            kappa = float(self.params.get("kappa", 0.0))
            # invertibility guard: sample det Df on a grid and require it
            # bounded away from zero (exactly 1 for the shear form, but the
            # check stays so bad parameterizations fail loudly at construction)
            g = np.linspace(0.0, 1.0, 33)
            dets = [abs(_det_jac_perturbed(kappa, gx)) for gx in g]
            if min(dets) < 0.1:
                raise ConfigError(
                    f"PerturbedCatMap kappa={kappa} fails the Jacobian determinant "
                    "grid check (|det| not bounded away from 0)",
                    field="kappa",
                )

    @property
    def space(self) -> Space:
        return Space.PLANE if self.kind is SystemKind.HENON else Space.TORUS2

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
            raise ConfigError(
                f"unknown system kind {kind_name!r} (valid: {valid})", field="system.kind"
            ) from None
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("system.params must be an object", field="system.params")
        required = {
            SystemKind.CAT_MAP: set(),
            SystemKind.PERTURBED_CAT_MAP: {"kappa"},
            SystemKind.STANDARD_MAP: {"K_s"},
            SystemKind.HENON: {"a", "b"},
        }[kind]
        unknown = set(params) - required
        if unknown:
            raise ConfigError(
                f"unknown system parameter(s) {sorted(unknown)} for kind {kind.value}",
                field="system.params",
            )
        missing = required - set(params)
        if missing:
            raise ConfigError(
                f"missing system parameter(s) {sorted(missing)} for kind {kind.value}",
                field="system.params",
            )
        return cls(kind, {k: float(v) for k, v in params.items()})


def _det_jac_perturbed(kappa, x):
    c = TWO_PI * kappa * math.cos(TWO_PI * x)
    return (2.0 + c) * 1.0 - 1.0 * (1.0 + c)


# ---------------------------------------------------------------------------
# scalar map evaluation


def step_xy(system: SystemSpec, x: float, y: float):
    """One forward application of the map, on raw coordinates."""
    kind = system.kind
    if kind is SystemKind.CAT_MAP:
        return (2.0 * x + y) % 1.0, (x + y) % 1.0
    if kind is SystemKind.PERTURBED_CAT_MAP:
        yy = y + system.params["kappa"] * math.sin(TWO_PI * x)
        return (2.0 * x + yy) % 1.0, (x + yy) % 1.0
    if kind is SystemKind.STANDARD_MAP:
        yy = (y + system.params["K_s"] / TWO_PI * math.sin(TWO_PI * x)) % 1.0
        return (x + yy) % 1.0, yy
    # Henon
    a = system.params["a"]
    b = system.params["b"]
    nx = 1.0 - a * x * x + y
    ny = b * x
    if abs(nx) > PLANE_OVERFLOW or abs(ny) > PLANE_OVERFLOW:
        raise NonFiniteError(f"Henon orbit escaped: ({nx}, {ny})")
    return nx, ny


def step_inverse_xy(system: SystemSpec, x: float, y: float):
    """One backward application of the map, on raw coordinates."""
    kind = system.kind
    if kind is SystemKind.CAT_MAP:
        # inverse matrix [[1,-1],[-1,2]]
        return (x - y) % 1.0, (-x + 2.0 * y) % 1.0
    if kind is SystemKind.PERTURBED_CAT_MAP:
        return _invert_perturbed(system, x, y)
    if kind is SystemKind.STANDARD_MAP:
        px = (x - y) % 1.0
        py = (y - system.params["K_s"] / TWO_PI * math.sin(TWO_PI * px)) % 1.0
        return px, py
    a = system.params["a"]
    b = system.params["b"]
    px = y / b
    py = x - 1.0 + a * px * px
    if abs(px) > PLANE_OVERFLOW or abs(py) > PLANE_OVERFLOW:
        raise NonFiniteError(f"Henon inverse escaped: ({px}, {py})")
    return px, py


def _invert_perturbed(system, x, y, tol=1e-13, max_iter=50):
    # Newton iteration on the forward map, seeded with the unperturbed inverse.
    kappa = system.params["kappa"]
    wx = (x - y) % 1.0
    wy = (-x + 2.0 * y) % 1.0
    zx, zy = wx, (wy - kappa * math.sin(TWO_PI * wx)) % 1.0
    for _ in range(max_iter):
        fx, fy = step_xy(system, zx, zy)
        rx = wrap_half(fx - x)
        ry = wrap_half(fy - y)
        if abs(rx) <= tol and abs(ry) <= tol:
            return zx, zy
        a11, a12, a21, a22 = jac_entries(system, zx, zy)
        det = a11 * a22 - a12 * a21
        dx = (a22 * rx - a12 * ry) / det
        dy = (-a21 * rx + a11 * ry) / det
        zx = (zx - dx) % 1.0
        zy = (zy - dy) % 1.0
    raise InversionError(
        f"PerturbedCatMap inverse: Newton failed to converge for ({x}, {y})"
    )


def jac_entries(system: SystemSpec, x: float, y: float):
    """Analytic Jacobian of the map at (x, y) as a flat (a11, a12, a21, a22)."""
    kind = system.kind
    if kind is SystemKind.CAT_MAP:
        return 2.0, 1.0, 1.0, 1.0
    if kind is SystemKind.PERTURBED_CAT_MAP:
        c = TWO_PI * system.params["kappa"] * math.cos(TWO_PI * x)
        return 2.0 + c, 1.0, 1.0 + c, 1.0
    if kind is SystemKind.STANDARD_MAP:
        c = system.params["K_s"] * math.cos(TWO_PI * x)
        return 1.0 + c, 1.0, c, 1.0
    a = system.params["a"]
    return -2.0 * a * x, 1.0, system.params["b"], 0.0


# ---------------------------------------------------------------------------
# public operations on Point2


def apply(system: SystemSpec, p: Point2) -> Point2:
    nx, ny = step_xy(system, p.x, p.y)
    return Point2(nx, ny, system.space)


def apply_inverse(system: SystemSpec, p: Point2) -> Point2:
    nx, ny = step_inverse_xy(system, p.x, p.y)
    return Point2(nx, ny, system.space)


def differential(system: SystemSpec, p: Point2) -> np.ndarray:
    a11, a12, a21, a22 = jac_entries(system, p.x, p.y)
    return np.array([[a11, a12], [a21, a22]], dtype=float)


def _arc(d):
    """Componentwise wrapped magnitude min(|d|, 1 - |d|); bit-exact symmetric."""
    a = abs(d)
    a = a - math.floor(a)
    return min(a, 1.0 - a)


def distance(space: Space, p: Point2, q: Point2) -> float:
    if space is Space.TORUS2:
        return math.hypot(_arc(p.x - q.x), _arc(p.y - q.y))
    return math.hypot(p.x - q.x, p.y - q.y)


def dist_rows(space: Space, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distances between two (n, 2) arrays."""
    d = a - b
    if space is Space.TORUS2:
        d = np.abs(d)
        d -= np.floor(d)
        d = np.minimum(d, 1.0 - d)
    return np.hypot(d[..., 0], d[..., 1])


def orbit(system: SystemSpec, x: Point2, m: int, n: int):
    """Orbit window f^k(x) for k = -m..n; element i of the result is f^(i-m)(x)."""
    if m < 0 or n < 0:
        raise ValueError("orbit window lengths must be nonnegative")
    arr = orbit_array(system, x.x, x.y, n_fwd=n, n_bwd=m)
    sp = system.space
    return [Point2(float(r[0]), float(r[1]), sp) for r in arr]


def orbit_array(system: SystemSpec, x: float, y: float, n_fwd: int, n_bwd: int = 0) -> np.ndarray:
    """Orbit window as an (n_bwd + n_fwd + 1, 2) array; row i is f^(i - n_bwd)."""
    out = np.empty((n_bwd + n_fwd + 1, 2), dtype=float)
    out[n_bwd, 0] = x % 1.0 if system.space is Space.TORUS2 else x
    out[n_bwd, 1] = y % 1.0 if system.space is Space.TORUS2 else y
    # the loops step on Python floats, which run faster than numpy scalars
    start = out[n_bwd].tolist()
    if system.kind is SystemKind.CAT_MAP:
        # inline hot loop for the most common kind
        cx, cy = start
        for i in range(n_bwd + 1, n_bwd + n_fwd + 1):
            cx, cy = (2.0 * cx + cy) % 1.0, (cx + cy) % 1.0
            out[i, 0] = cx
            out[i, 1] = cy
        cx, cy = start
        for i in range(n_bwd - 1, -1, -1):
            cx, cy = (cx - cy) % 1.0, (-cx + 2.0 * cy) % 1.0
            out[i, 0] = cx
            out[i, 1] = cy
        return out
    cx, cy = start
    for i in range(n_bwd + 1, n_bwd + n_fwd + 1):
        cx, cy = step_xy(system, cx, cy)
        out[i, 0] = cx
        out[i, 1] = cy
    cx, cy = start
    for i in range(n_bwd - 1, -1, -1):
        cx, cy = step_inverse_xy(system, cx, cy)
        out[i, 0] = cx
        out[i, 1] = cy
    return out


def step_array(system: SystemSpec, pts: np.ndarray) -> np.ndarray:
    """Forward image of an (n, 2) array of points (vectorized per kind)."""
    x = pts[:, 0]
    y = pts[:, 1]
    kind = system.kind
    if kind is SystemKind.CAT_MAP:
        return np.column_stack(((2.0 * x + y) % 1.0, (x + y) % 1.0))
    if kind is SystemKind.PERTURBED_CAT_MAP:
        yy = y + system.params["kappa"] * np.sin(TWO_PI * x)
        return np.column_stack(((2.0 * x + yy) % 1.0, (x + yy) % 1.0))
    if kind is SystemKind.STANDARD_MAP:
        yy = (y + system.params["K_s"] / TWO_PI * np.sin(TWO_PI * x)) % 1.0
        return np.column_stack(((x + yy) % 1.0, yy))
    a = system.params["a"]
    b = system.params["b"]
    nx = 1.0 - a * x * x + y
    ny = b * x
    if np.any(np.abs(nx) > PLANE_OVERFLOW) or np.any(np.abs(ny) > PLANE_OVERFLOW):
        raise NonFiniteError("Henon orbit escaped during vectorized stepping")
    return np.column_stack((nx, ny))


def step_inverse_array(system: SystemSpec, pts: np.ndarray) -> np.ndarray:
    """Backward image of an (n, 2) array of points, row for row equal to
    step_inverse_xy; an error names the first failing row as the scalar
    call on that row would."""
    x = pts[:, 0]
    y = pts[:, 1]
    kind = system.kind
    if kind is SystemKind.CAT_MAP:
        return np.column_stack(((x - y) % 1.0, (-x + 2.0 * y) % 1.0))
    if kind is SystemKind.PERTURBED_CAT_MAP:
        return _invert_perturbed_array(system, x, y)
    if kind is SystemKind.STANDARD_MAP:
        px = (x - y) % 1.0
        py = (y - system.params["K_s"] / TWO_PI * np.sin(TWO_PI * px)) % 1.0
        return np.column_stack((px, py))
    a = system.params["a"]
    b = system.params["b"]
    px = y / b
    py = x - 1.0 + a * px * px
    bad = np.flatnonzero((np.abs(px) > PLANE_OVERFLOW) | (np.abs(py) > PLANE_OVERFLOW))
    if len(bad):
        i = bad[0]
        raise NonFiniteError(f"Henon inverse escaped: ({px[i]}, {py[i]})")
    return np.column_stack((px, py))


def _invert_perturbed_array(system, x, y, tol=1e-13, max_iter=50):
    # _invert_perturbed on every row; a row leaves the iteration at the step
    # where the scalar loop would return it
    kappa = system.params["kappa"]
    wx = (x - y) % 1.0
    wy = (-x + 2.0 * y) % 1.0
    z = np.column_stack((wx, (wy - kappa * np.sin(TWO_PI * wx)) % 1.0))
    active = np.arange(len(z))
    for _ in range(max_iter):
        za = z[active]
        f = step_array(system, za)
        rx = wrap_half(f[:, 0] - x[active])
        ry = wrap_half(f[:, 1] - y[active])
        going = ~((np.abs(rx) <= tol) & (np.abs(ry) <= tol))  # NaN keeps going
        active, za, rx, ry = active[going], za[going], rx[going], ry[going]
        if not len(active):
            return z
        J = jac_array(system, za)
        a11, a12, a21, a22 = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
        det = a11 * a22 - a12 * a21
        dx = (a22 * rx - a12 * ry) / det
        dy = (-a21 * rx + a11 * ry) / det
        z[active, 0] = (za[:, 0] - dx) % 1.0
        z[active, 1] = (za[:, 1] - dy) % 1.0
    i = active[0]
    raise InversionError(
        f"PerturbedCatMap inverse: Newton failed to converge for ({x[i]}, {y[i]})"
    )


def jac_array(system: SystemSpec, pts: np.ndarray) -> np.ndarray:
    """Jacobians at each row of an (n, 2) array, shape (n, 2, 2)."""
    n = len(pts)
    out = np.empty((n, 2, 2), dtype=float)
    kind = system.kind
    x = pts[:, 0]
    if kind is SystemKind.CAT_MAP:
        out[:] = np.array([[2.0, 1.0], [1.0, 1.0]])
        return out
    if kind is SystemKind.PERTURBED_CAT_MAP:
        c = TWO_PI * system.params["kappa"] * np.cos(TWO_PI * x)
        out[:, 0, 0] = 2.0 + c
        out[:, 0, 1] = 1.0
        out[:, 1, 0] = 1.0 + c
        out[:, 1, 1] = 1.0
        return out
    if kind is SystemKind.STANDARD_MAP:
        c = system.params["K_s"] * np.cos(TWO_PI * x)
        out[:, 0, 0] = 1.0 + c
        out[:, 0, 1] = 1.0
        out[:, 1, 0] = c
        out[:, 1, 1] = 1.0
        return out
    out[:, 0, 0] = -2.0 * system.params["a"] * x
    out[:, 0, 1] = 1.0
    out[:, 1, 0] = system.params["b"]
    out[:, 1, 1] = 0.0
    return out
