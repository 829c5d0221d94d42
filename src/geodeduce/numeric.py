"""Coordinate instantiation of constructions and empirical fact checking.

A construction is realized with concrete plane coordinates: free points
sampled uniformly in [-1,1]^2, semi-free points sampled on their locus,
determined points computed from their defining steps.  Each step's
arithmetic is written out in ``_sample_once``, in the operation order
that docs/predicates.md pins, and a model is a ``CoordinateModel``
NamedTuple of (coords, seed, scale).  Facts are then evaluated within a
relative tolerance, which lets the pipeline discard conjectures that are
false on generic figures and flag unsound rules.  Each predicate has one
test, its arithmetic written out inline; docs/predicates.md gives each
test and its tolerance form.

Coordinates are computed in plain IEEE-754 double arithmetic on Python
floats, so a model is the same on every host.  Each seed's stream of
doubles is numpy's ``default_rng(seed).random()``, reimplemented here in
pure Python and pinned bit for bit: ``_pcg_seed`` is numpy's
``SeedSequence(seed)`` entropy pool and PCG64 seeding, and each draw is a
128-bit LCG step, the XSL-RR output and ``(x >> 11) * 2**-53`` (O'Neill,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014).  numpy is not a run-time
dependency; the tests keep it as the stream's reference.

Every run samples the seeds ``master_seed .. master_seed+n-1``, so one
process draws the same streams again for every construction it samples.
``_prefix`` keeps, per seed, the first PREFIX_DRAWS doubles of its stream
as an immutable tuple, with the PCG64 state and increment after them, in
a bounded LRU memo of MEMO_SEEDS seeds (about 2 KB per seed, about 2 MB
when full).  A draw past the prefix continues from that state.  The memo
holds only immutable values, so threads can share it; each
``instantiate`` call restarts its seed's stream.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .construction import Construction
from .facts import Fact, check_fact, make_fact

MIN_SPACING = 1e-3        # pairwise distance floor, relative to the diameter
MIN_SIN = 1e-3            # intersection-angle floor
DEFAULT_TOL = 1e-8
MAX_ATTEMPTS = 100
PREFIX_DRAWS = 64         # memoized doubles per seed; few models draw more
MEMO_SEEDS = 1024         # seeds whose prefix is kept


class DegenerateModelError(RuntimeError):
    """No non-degenerate model could be sampled for this seed."""

    def __init__(self, seed: int):
        super().__init__(f"degenerate construction under seed {seed}")
        self.seed = seed


class CoordinateModel(NamedTuple):
    """An assignment of plane coordinates to every construction point."""

    coords: Dict[str, Tuple[float, float]]
    seed: int
    scale: float  # squared diameter of the point set


class Verdict(NamedTuple):
    kind: str  # holds | fails | degenerate
    seed: Optional[int] = None  # witnessing seed for fails

    def __str__(self) -> str:
        if self.kind == "fails":
            return f"fails(seed={self.seed})"
        return self.kind


def _line_intersection(a, b, c, d):
    """Intersection of lines AB and CD, or None if (nearly) parallel."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    denom = rx * sy - ry * sx
    nr = math.hypot(rx, ry) * math.hypot(sx, sy)
    if nr == 0 or abs(denom) / nr < MIN_SIN:
        return None
    t = ((cx - ax) * sy - (cy - ay) * sx) / denom
    return (ax + t * rx, ay + t * ry)


def _circumcenter(a, b, c):
    """Circumcentre of triangle abc, or None if (nearly) collinear."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    diam2 = max((ax - bx) * (ax - bx) + (ay - by) * (ay - by),
                (ax - cx) * (ax - cx) + (ay - cy) * (ay - cy),
                (bx - cx) * (bx - cx) + (by - cy) * (by - cy))
    if diam2 == 0 or abs(d) / diam2 < MIN_SIN:
        return None
    aa, bb, cc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (aa * (by - cy) + bb * (cy - ay) + cc * (ay - by)) / d
    uy = (aa * (cx - bx) + bb * (ax - cx) + cc * (bx - ax)) / d
    return (ux, uy)


def _sample_once(c: Construction, draw: Callable[[], float]):
    """One sampling attempt; returns coords dict or None on degeneracy.

    draw() returns the next double in [0, 1) of the seed's stream.
    """
    # low + (high - low) * draw() is rng.uniform(low, high) bit for bit
    pts: Dict[str, Tuple[float, float]] = {}
    for kind, a in c.steps:
        if kind == "point":
            pts[a[0]] = (-1.0 + 2.0 * draw(), -1.0 + 2.0 * draw())
        elif kind == "on_line":
            t = -1.0 + 3.0 * draw()
            (px, py), (qx, qy) = pts[a[1]], pts[a[2]]
            pts[a[0]] = (px + t * (qx - px), py + t * (qy - py))
        elif kind == "on_circle":
            theta = 2.0 * math.pi * draw()
            (ox, oy), (qx, qy) = pts[a[1]], pts[a[2]]
            ux, uy = qx - ox, qy - oy
            r = math.sqrt(ux * ux + uy * uy)
            pts[a[0]] = (ox + r * math.cos(theta), oy + r * math.sin(theta))
        elif kind == "midpoint":
            (px, py), (qx, qy) = pts[a[1]], pts[a[2]]
            pts[a[0]] = (0.5 * (px + qx), 0.5 * (py + qy))
        elif kind == "intersect":
            p = _line_intersection(pts[a[1]], pts[a[2]], pts[a[3]], pts[a[4]])
            if p is None:
                return None
            pts[a[0]] = p
        elif kind == "foot":
            (px, py), (ox, oy), (qx, qy) = pts[a[1]], pts[a[2]], pts[a[3]]
            ux, uy = qx - ox, qy - oy
            nn = ux * ux + uy * uy
            if nn == 0:
                return None
            t = ((px - ox) * ux + (py - oy) * uy) / nn
            pts[a[0]] = (ox + t * ux, oy + t * uy)
        elif kind == "circumcenter":
            o = _circumcenter(pts[a[1]], pts[a[2]], pts[a[3]])
            if o is None:
                return None
            pts[a[0]] = o
    return pts


def _pair_d2(points) -> List[float]:
    """Squared distance of every pair of points."""
    return [(x - u) * (x - u) + (y - v) * (y - v)
            for (x, y), (u, v) in itertools.combinations(points, 2)]


def _nondegenerate(pts: Dict[str, Tuple[float, float]]) -> Optional[float]:
    """The squared diameter of the points, or None if two of them lie
    closer than MIN_SPACING of it (or there are fewer than two)."""
    d2 = _pair_d2(pts.values())
    scale = max(d2, default=0.0)
    if scale == 0 or min(d2) < MIN_SPACING * MIN_SPACING * scale:
        return None
    return scale


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg_seed(seed: int) -> Tuple[int, int]:
    """The PCG64 (state, increment) of numpy's default_rng(seed)."""
    if seed < 0:  # >>= 32 would never reach zero
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed & _M32]  # SeedSequence's little-endian 32-bit words
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    h, out = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    u = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
    state = ((inc + (u[0] << 64 | u[1])) * _PCG_MULT + inc) & _M128
    return state, inc


def _double(state: int) -> float:
    """PCG64's XSL-RR output of state, as numpy's random() double."""
    x = (state >> 64 ^ state) & _M64
    r = state >> 122
    return ((x >> r | x << (64 - r) & _M64) >> 11) * 2.0 ** -53


def _states(state: int, inc: int) -> Iterator[int]:
    """The PCG64 states that follow state, one per draw."""
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        yield state


@functools.lru_cache(maxsize=MEMO_SEEDS)
def _prefix(seed: int) -> Tuple[Tuple[float, ...], int, int]:
    """The first PREFIX_DRAWS doubles of default_rng(seed).random(), with
    the PCG64 state after them and the increment."""
    state, inc = _pcg_seed(seed)
    states = list(itertools.islice(_states(state, inc), PREFIX_DRAWS))
    return tuple(map(_double, states)), states[-1], inc


def _draws(seed: int) -> Iterator[float]:
    """The seed's stream of doubles in [0, 1), from its first draw; past
    the memoized prefix it continues from the state kept with it."""
    prefix, state, inc = _prefix(seed)
    return itertools.chain(prefix, map(_double, _states(state, inc)))


def instantiate(c: Construction, seed: int) -> CoordinateModel:
    """Sample a non-degenerate model; deterministic for a given seed.

    Raises DegenerateModelError after MAX_ATTEMPTS failed draws, TypeError
    for a seed that is no integer and ValueError for a negative one.
    """
    seed = operator.index(seed)  # the memo key: np.int64(3) is seed 3
    draw = _draws(seed).__next__
    for _ in range(MAX_ATTEMPTS):
        pts = _sample_once(c, draw)
        scale = None if pts is None else _nondegenerate(pts)
        if scale is not None:
            return CoordinateModel(pts, seed, scale)
    raise DegenerateModelError(seed)


def model_from_coords(coords: Dict[str, Tuple[float, float]], seed: int = 0) -> CoordinateModel:
    scale = max(_pair_d2(coords.values()), default=0.0)
    return CoordinateModel(coords=dict(coords), seed=seed, scale=scale)


def _coll(tol, s, a, b, c) -> bool:
    x = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return x * x <= tol * s * s


def _para(tol, s, a, b, c, d) -> bool:
    x = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
    return x * x <= tol * s * s


def _perp(tol, s, a, b, c, d) -> bool:
    x = (b[0] - a[0]) * (d[0] - c[0]) + (b[1] - a[1]) * (d[1] - c[1])
    return x * x <= tol * s * s


def _midp(tol, s, m, b, c) -> bool:
    ux, uy = m[0] - 0.5 * (b[0] + c[0]), m[1] - 0.5 * (b[1] + c[1])
    return ux * ux + uy * uy <= tol * s


def _cong(tol, s, a, b, c, d) -> bool:
    ux, uy, vx, vy = b[0] - a[0], b[1] - a[1], d[0] - c[0], d[1] - c[1]
    return abs((ux * ux + uy * uy) - (vx * vx + vy * vy)) <= tol * s


def _cyclic(tol, s, a, b, c, d) -> bool:
    o = _circumcenter(a, b, c)
    if o is None:
        return False
    ux, uy, vx, vy = a[0] - o[0], a[1] - o[1], d[0] - o[0], d[1] - o[1]
    return abs((vx * vx + vy * vy) - (ux * ux + uy * uy)) <= tol * s


def _eqangle(tol, s, a, b, c, d, e, f, g, h) -> bool:
    t1, t2 = _dirangle(a, b, c, d), _dirangle(e, f, g, h)
    if t1 is None or t2 is None:
        return False
    return abs(math.sin(t1 - t2)) <= tol


def _dirangle(a, b, c, d):
    """Directed angle between lines ab and cd, modulo pi."""
    ux, uy, vx, vy = b[0] - a[0], b[1] - a[1], d[0] - c[0], d[1] - c[1]
    if ux * ux + uy * uy == 0 or vx * vx + vy * vy == 0:
        return None
    return math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)


# predicate -> its test (tol, scale, one point per argument); the tolerance
# forms are tol*s*s, tol*s and tol on |sin| (docs/predicates.md)
_TESTS = {"coll": _coll, "para": _para, "perp": _perp, "midp": _midp,
          "cong": _cong, "cyclic": _cyclic, "eqangle": _eqangle}


def eval_fact(m: CoordinateModel, f: Fact, tol_rel: float = DEFAULT_TOL) -> bool:
    """Evaluate a fact on the model within a scale-relative tolerance; a
    malformed fact raises MalformedFactError."""
    test = _TESTS.get(f.pred)
    if test is None:
        check_fact(f)  # an unknown predicate
    try:
        return test(tol_rel, m.scale, *map(m.coords.__getitem__, f.args))
    except TypeError:  # the test takes one point per argument of its predicate
        check_fact(f)
        raise


def eval_condition(m: CoordinateModel, kind: str, args: Tuple[str, ...],
                   tol_rel: float = DEFAULT_TOL) -> bool:
    """Evaluate a nondegeneracy side condition on the model."""
    if kind == "non_collinear":
        return not eval_fact(m, make_fact("coll", *args), tol_rel)
    if kind == "distinct_lines":
        x, y, u, v = args
        same = (eval_fact(m, make_fact("coll", x, y, u), tol_rel)
                and eval_fact(m, make_fact("coll", x, y, v), tol_rel))
        return not same
    raise ValueError(kind)


def check_tol(tol_rel: float) -> None:
    """Raise ValueError unless 0 < tol_rel < 1: at 1 or more every coll,
    para, perp, midp, cong and eqangle test holds on every model."""
    if not 0 < tol_rel < 1:  # also rejects nan
        raise ValueError(f"tol must be > 0 and < 1, got {tol_rel}")


def sample_models(c: Construction, n_models: int, master_seed: int = 0):
    """Sample n models with seeds master_seed .. master_seed+n-1.

    Raises DegenerateModelError if any seed exhausts its attempts, and
    ValueError if n_models < 1 or master_seed < 0.
    """
    if n_models < 1:
        raise ValueError(f"need at least one model, got {n_models}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    return [instantiate(c, master_seed + i) for i in range(n_models)]


def verify(f: Fact, c: Construction, n_models: int = 5,
           tol_rel: float = DEFAULT_TOL, master_seed: int = 0) -> Verdict:
    """holds iff f is true in all n non-degenerate sampled models.

    Raises ValueError for a malformed f (MalformedFactError), a point f
    names that c does not define, a bad tol_rel (see check_tol) or
    master_seed < 0.
    """
    check_fact(f)
    check_tol(tol_rel)
    undefined = sorted(set(f.args) - set(c.points()))
    if undefined:
        raise ValueError(f"{f} names undefined point(s) {', '.join(undefined)}")
    try:
        models = sample_models(c, n_models, master_seed)
    except DegenerateModelError:
        return Verdict("degenerate")
    for m in models:
        if not eval_fact(m, f, tol_rel):
            return Verdict("fails", seed=m.seed)
    return Verdict("holds")
