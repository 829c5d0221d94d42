"""Coordinate instantiation of constructions and empirical fact checking.

A construction is realized with concrete plane coordinates: free points
sampled uniformly in [-1,1]^2, semi-free points sampled on their locus,
determined points computed from their defining steps.  Facts are then
evaluated within a relative tolerance, which lets the pipeline discard
conjectures that are false on generic figures and flag unsound rules.

Coordinates are computed in plain IEEE-754 double arithmetic on Python
floats, so a model is the same on every host; numpy supplies only each
seed's PCG64 stream (``default_rng(seed)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .construction import Construction
from .facts import Fact, make_fact

MIN_SPACING = 1e-3        # pairwise distance floor, relative to the diameter
MIN_SIN = 1e-3            # intersection-angle floor
DEFAULT_TOL = 1e-8
MAX_ATTEMPTS = 100


class DegenerateModelError(RuntimeError):
    """No non-degenerate model could be sampled for this seed."""

    def __init__(self, seed: int):
        super().__init__(f"degenerate construction under seed {seed}")
        self.seed = seed


@dataclass(frozen=True)
class CoordinateModel:
    """An assignment of plane coordinates to every construction point."""

    coords: Dict[str, Tuple[float, float]]
    seed: int
    scale: float  # squared diameter of the point set

    def xy(self, name: str) -> np.ndarray:
        return np.asarray(self.coords[name])


@dataclass(frozen=True)
class Verdict:
    kind: str  # holds | fails | degenerate
    seed: Optional[int] = None  # witnessing seed for fails

    def __str__(self) -> str:
        if self.kind == "fails":
            return f"fails(seed={self.seed})"
        return self.kind


HOLDS = Verdict("holds")
DEGENERATE = Verdict("degenerate")


def _vec(a, b):
    """The vector from point a to point b."""
    return (b[0] - a[0], b[1] - a[1])


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1]


def _cross(u, v) -> float:
    return u[0] * v[1] - u[1] * v[0]


def _line_intersection(a, b, c, d):
    """Intersection of lines AB and CD, or None if (nearly) parallel."""
    r = _vec(a, b)
    s = _vec(c, d)
    denom = _cross(r, s)
    nr = math.hypot(*r) * math.hypot(*s)
    if nr == 0 or abs(denom) / nr < MIN_SIN:
        return None
    t = _cross(_vec(a, c), s) / denom
    return (a[0] + t * r[0], a[1] + t * r[1])


def _circumcenter(a, b, c):
    """Circumcentre of triangle abc, or None if (nearly) collinear."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    diam2 = max(_pair_d2((a, b, c)))
    if diam2 == 0 or abs(d) / diam2 < MIN_SIN:
        return None
    aa, bb, cc = _dot(a, a), _dot(b, b), _dot(c, c)
    ux = (aa * (by - cy) + bb * (cy - ay) + cc * (ay - by)) / d
    uy = (aa * (cx - bx) + bb * (ax - cx) + cc * (bx - ax)) / d
    return (ux, uy)


def _sample_once(c: Construction, rng: np.random.Generator):
    """One sampling attempt; returns coords dict or None on degeneracy."""
    # low + (high - low) * rng.random() is rng.uniform(low, high) bit for bit
    pts: Dict[str, Tuple[float, float]] = {}
    for step in c.steps:
        a = step.args
        if step.kind == "free_point":
            pts[a[0]] = (-1.0 + 2.0 * rng.random(), -1.0 + 2.0 * rng.random())
        elif step.kind == "on_line":
            t = -1.0 + 3.0 * rng.random()
            p, q = pts[a[1]], pts[a[2]]
            pts[a[0]] = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        elif step.kind == "on_circle":
            theta = 2.0 * math.pi * rng.random()
            o = pts[a[1]]
            u = _vec(o, pts[a[2]])
            r = math.sqrt(_dot(u, u))
            pts[a[0]] = (o[0] + r * math.cos(theta), o[1] + r * math.sin(theta))
        elif step.kind == "midpoint":
            p, q = pts[a[1]], pts[a[2]]
            pts[a[0]] = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
        elif step.kind == "intersect":
            p = _line_intersection(pts[a[1]], pts[a[2]], pts[a[3]], pts[a[4]])
            if p is None:
                return None
            pts[a[0]] = p
        elif step.kind == "foot":
            o = pts[a[2]]
            u = _vec(o, pts[a[3]])
            nn = _dot(u, u)
            if nn == 0:
                return None
            t = _dot(_vec(o, pts[a[1]]), u) / nn
            pts[a[0]] = (o[0] + t * u[0], o[1] + t * u[1])
        elif step.kind == "circumcenter":
            o = _circumcenter(pts[a[1]], pts[a[2]], pts[a[3]])
            if o is None:
                return None
            pts[a[0]] = o
    return pts


def _pair_d2(points) -> List[float]:
    """Squared distance of every pair of points."""
    ps = list(points)
    return [(x - u) * (x - u) + (y - v) * (y - v)
            for i, (x, y) in enumerate(ps) for u, v in ps[i + 1:]]


def _nondegenerate(pts: Dict[str, Tuple[float, float]]) -> Optional[float]:
    """The squared diameter of the points, or None if two of them lie
    closer than MIN_SPACING of it (or there are fewer than two)."""
    d2 = _pair_d2(pts.values())
    scale = max(d2, default=0.0)
    if scale == 0 or min(d2) < MIN_SPACING * MIN_SPACING * scale:
        return None
    return scale


def instantiate(c: Construction, seed: int) -> CoordinateModel:
    """Sample a non-degenerate model; deterministic for a given seed.

    Raises DegenerateModelError after MAX_ATTEMPTS failed draws.
    """
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        pts = _sample_once(c, rng)
        scale = None if pts is None else _nondegenerate(pts)
        if scale is not None:
            return CoordinateModel(coords=pts, seed=seed, scale=scale)
    raise DegenerateModelError(seed)


def model_from_coords(coords: Dict[str, Tuple[float, float]], seed: int = 0) -> CoordinateModel:
    scale = max(_pair_d2(coords.values()), default=0.0)
    return CoordinateModel(coords=dict(coords), seed=seed, scale=scale)


def eval_fact(m: CoordinateModel, f: Fact, tol_rel: float = DEFAULT_TOL) -> bool:
    """Evaluate a fact on the model within a scale-relative tolerance."""
    p = [m.coords[name] for name in f.args]
    tol = tol_rel
    s = m.scale
    if f.pred in ("coll", "para", "perp"):
        u = _vec(p[0], p[1])
        v = _vec(p[0], p[2]) if f.pred == "coll" else _vec(p[2], p[3])
        x = _dot(u, v) if f.pred == "perp" else _cross(u, v)
        return x * x <= tol * s * s
    if f.pred == "midp":
        mid = (0.5 * (p[1][0] + p[2][0]), 0.5 * (p[1][1] + p[2][1]))
        u = _vec(mid, p[0])
        return _dot(u, u) <= tol * s
    if f.pred == "cong":
        u = _vec(p[0], p[1])
        v = _vec(p[2], p[3])
        return abs(_dot(u, u) - _dot(v, v)) <= tol * s
    if f.pred == "cyclic":
        o = _circumcenter(p[0], p[1], p[2])
        if o is None:
            return False
        u = _vec(o, p[0])
        v = _vec(o, p[3])
        return abs(_dot(v, v) - _dot(u, u)) <= tol * s
    if f.pred == "eqangle":
        t1 = _dirangle(p[0], p[1], p[2], p[3])
        t2 = _dirangle(p[4], p[5], p[6], p[7])
        if t1 is None or t2 is None:
            return False
        return abs(math.sin(t1 - t2)) <= tol
    raise ValueError(f.pred)


def _dirangle(a, b, c, d):
    """Directed angle between lines ab and cd, modulo pi."""
    u = _vec(a, b)
    v = _vec(c, d)
    if _dot(u, u) == 0 or _dot(v, v) == 0:
        return None
    return math.atan2(_cross(u, v), _dot(u, v))


def eval_condition(m: CoordinateModel, kind: str, args: Tuple[str, ...],
                   tol_rel: float = DEFAULT_TOL) -> bool:
    """Evaluate a nondegeneracy side condition on the model."""
    if kind == "distinct":
        u = _vec(*(m.coords[n] for n in args))
        return _dot(u, u) > tol_rel * m.scale
    if kind == "non_collinear":
        return not eval_fact(m, make_fact("coll", *args), tol_rel)
    if kind == "distinct_lines":
        x, y, u, v = args
        same = (eval_fact(m, make_fact("coll", x, y, u), tol_rel)
                and eval_fact(m, make_fact("coll", x, y, v), tol_rel))
        return not same
    raise ValueError(kind)


def sample_models(c: Construction, n_models: int, master_seed: int = 0):
    """Sample n models with seeds master_seed .. master_seed+n-1.

    Raises DegenerateModelError if any seed exhausts its attempts, and
    ValueError if n_models < 1.
    """
    if n_models < 1:
        raise ValueError(f"need at least one model, got {n_models}")
    return [instantiate(c, master_seed + i) for i in range(n_models)]


def verify(f: Fact, c: Construction, n_models: int = 5,
           tol_rel: float = DEFAULT_TOL, master_seed: int = 0) -> Verdict:
    """holds iff f is true in all n non-degenerate sampled models.

    Raises ValueError if f names a point the construction does not define.
    """
    undefined = sorted(set(f.args) - set(c.points()))
    if undefined:
        raise ValueError(f"{f} names undefined point(s) {', '.join(undefined)}")
    try:
        models = sample_models(c, n_models, master_seed)
    except DegenerateModelError:
        return DEGENERATE
    for m in models:
        if not eval_fact(m, f, tol_rel):
            return Verdict("fails", seed=m.seed)
    return HOLDS
