"""Coordinate sampling, fact evaluation, empirical verdicts."""

import hashlib
import itertools
import json
import math
import struct
import sys

import numpy as np
import pytest

from conftest import BUNDLED, ROOT, load_construction
from fuzzing import random_construction_text
from geodeduce import (CoordinateModel, initial_facts, instantiate, make_fact,
                       parse_construction, saturate, verify)
from geodeduce import numeric
from geodeduce.construction import STATEMENTS
from geodeduce.facts import PREDICATES, Fact, MalformedFactError
from geodeduce.numeric import (DegenerateModelError, eval_condition, eval_fact,
                               model_from_coords, sample_models)


def test_midpoint_is_exact():
    c = parse_construction("point A B\nmidpoint M A B\n")
    m = instantiate(c, seed=1)
    a, b, mid = (np.asarray(m.coords[n]) for n in "ABM")
    assert np.allclose(mid, 0.5 * (a + b), atol=0)


def test_pappus_intersections_on_their_lines(pappus):
    m = instantiate(pappus, seed=1)
    g, a, e = (np.asarray(m.coords[n]) for n in "GAE")
    cross = (g - a)[0] * (e - a)[1] - (g - a)[1] * (e - a)[0]
    assert abs(cross) ** 2 <= 1e-8 * m.scale ** 2
    assert eval_fact(m, make_fact("coll", "G", "B", "D"))


def test_forced_parallel_intersection_is_degenerate():
    # AC and BD are the same line, so the intersection never exists
    c = parse_construction("point A B\non_line C A B\non_line D A B\n"
                           "intersect X A C B D\n")
    with pytest.raises(DegenerateModelError) as err:
        instantiate(c, seed=3)
    assert err.value.seed == 3


def test_model_is_a_named_tuple(midline):
    m = instantiate(midline, seed=0)
    coords, seed, scale = m
    assert m == (m.coords, 0, m.scale) and (coords, seed, scale) == tuple(m)
    assert m._fields == ("coords", "seed", "scale")


def test_determinism_bit_for_bit(bundled):
    m1 = instantiate(bundled, seed=42)
    m2 = instantiate(bundled, seed=42)
    assert m1.coords == m2.coords and m1.scale == m2.scale


def test_eval_fact_midline_para(midline):
    m = instantiate(midline, seed=5)
    assert eval_fact(m, make_fact("para", "M", "N", "B", "C"))
    assert eval_fact(m, make_fact("cong", "A", "B", "A", "B"))
    assert not eval_fact(m, make_fact("coll", "A", "B", "C"))


def test_eval_fact_all_predicates():
    coords = {"A": (0.0, 0.0), "B": (2.0, 0.0), "C": (0.0, 2.0),
              "M": (1.0, 0.0), "N": (0.0, 1.0), "D": (2.0, 2.0)}
    m = model_from_coords(coords)
    assert eval_fact(m, make_fact("coll", "A", "B", "M"))
    assert eval_fact(m, make_fact("midp", "M", "A", "B"))
    assert eval_fact(m, make_fact("para", "M", "N", "B", "C"))
    assert eval_fact(m, make_fact("perp", "A", "B", "A", "C"))
    assert eval_fact(m, make_fact("cong", "A", "B", "A", "C"))
    assert eval_fact(m, make_fact("cyclic", "A", "B", "D", "C"))
    assert eval_fact(m, make_fact("eqangle", "A", "B", "A", "D", "A", "D", "A", "C"))
    assert not eval_fact(m, make_fact("perp", "A", "B", "M", "N"))
    assert not eval_fact(m, make_fact("cyclic", "A", "B", "C", "M"))
    assert not eval_fact(m, make_fact("eqangle", "A", "B", "A", "C", "A", "B", "A", "D"))


def test_eval_condition():
    coords = {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (0.0, 1.0), "D": (2.0, 0.0)}
    m = model_from_coords(coords)
    # a distinct side is a loop test of the join and never reaches the model
    with pytest.raises(ValueError):
        eval_condition(m, "distinct", ("A", "B"))
    assert eval_condition(m, "non_collinear", ("A", "B", "C"))
    assert not eval_condition(m, "non_collinear", ("A", "B", "D"))
    assert eval_condition(m, "distinct_lines", ("A", "B", "A", "C"))
    assert not eval_condition(m, "distinct_lines", ("A", "B", "B", "D"))


def test_verify_midline_holds(midline):
    assert verify(make_fact("para", "M", "N", "B", "C"), midline).kind == "holds"


def test_verify_generic_fact_fails(pappus):
    v = verify(make_fact("coll", "A", "B", "D"), pappus, n_models=5)
    assert v.kind == "fails" and v.seed is not None
    # the witnessing seed reproduces the refutation
    m = instantiate(pappus, seed=v.seed)
    assert not eval_fact(m, make_fact("coll", "A", "B", "D"))


def test_verify_pappus_theorem(pappus):
    v = verify(make_fact("coll", "G", "H", "I"), pappus, n_models=100)
    assert v.kind == "holds"


def test_verify_degenerate_construction():
    c = parse_construction("point A B\non_line C A B\non_line D A B\n"
                           "intersect X A C B D\n")
    assert verify(make_fact("coll", "A", "B", "C"), c).kind == "degenerate"


def test_hypothesis_exactness_100_models(bundled):
    d0 = initial_facts(bundled)
    for m in sample_models(bundled, 100):
        for f in d0:
            assert eval_fact(m, f)


def test_nondegeneracy_floors(bundled):
    for m in sample_models(bundled, 20, master_seed=11):
        pts = {n: np.array(p) for n, p in m.coords.items()}
        names = sorted(pts)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                d2 = float((pts[a] - pts[b]) @ (pts[a] - pts[b]))
                assert d2 >= 1e-6 * m.scale


def test_sample_models_needs_one_model(midline):
    for n in (0, -2):
        with pytest.raises(ValueError, match="at least one model"):
            sample_models(midline, n)
        with pytest.raises(ValueError, match="at least one model"):
            verify(make_fact("para", "M", "N", "B", "C"), midline, n_models=n)


def test_verify_rejects_undefined_point(pappus, monkeypatch):
    monkeypatch.setattr(numeric, "sample_models", None)  # must not be reached
    with pytest.raises(ValueError, match="undefined point.* Z"):
        verify(make_fact("coll", "A", "B", "Z"), pappus)
    # a malformed fact, even over defined points, is rejected before sampling,
    # and by eval_fact on a model
    model = instantiate(pappus, 0)
    for bad in [Fact("coll", ("A", "B")), Fact("coll", tuple("ABCD")),
                Fact("nosuch", ("A", "B")), Fact("eqangle", tuple("ABCDEFG"))]:
        with pytest.raises(MalformedFactError):
            verify(bad, pappus)
        with pytest.raises(MalformedFactError):
            eval_fact(model, bad)


# fuzz figures 8 and 14 put two points on one spot by construction
@pytest.mark.parametrize("fuzz_seed", [s for s in range(32) if s not in (8, 14)])
def test_hypothesis_exactness_100_models_fuzz(fuzz_seed):
    c = parse_construction(random_construction_text(fuzz_seed))
    d0 = initial_facts(c)
    for m in sample_models(c, 100):
        for f in d0:
            assert eval_fact(m, f)


# -- pinned coordinates ------------------------------------------------------

GOLDEN_COORDS = ROOT / "tests" / "golden" / "model_coords.json"


def _hex_model(m):
    return {"scale": m.scale.hex(),
            "coords": {n: [x.hex(), y.hex()] for n, (x, y) in m.coords.items()}}


# one step of every statement kind
ALL_KINDS = ("point A B C\non_line D A B\non_circle E A B\nmidpoint F B C\n"
             "intersect G A C B E\nfoot H C A B\ncircumcenter O A B C\n")


def test_all_kinds_figure_samples_every_kind():
    c = parse_construction(ALL_KINDS)
    assert {step.kind for step in c.steps} == set(STATEMENTS)
    d0 = initial_facts(c)
    assert len(d0) == 11
    for m in sample_models(c, 100):
        for f in d0:
            assert eval_fact(m, f)


def test_coordinates_match_golden():
    """Every coordinate and scale of the bundled examples and of the
    all-kinds figure at seeds 0-2, bit for bit.  Models are plain double
    arithmetic on the seed's PCG64 stream, so they must not change with the
    host, the CPU or the BLAS build.  The file was written with
    ``{name: {seed: _hex_model(instantiate(c, seed))}}``.
    """
    golden = json.loads(GOLDEN_COORDS.read_text())
    figures = {name: load_construction(name) for name in ("midline", "pappus", "inscribed")}
    figures["all_kinds"] = parse_construction(ALL_KINDS)
    got = {name: {str(seed): _hex_model(instantiate(c, seed)) for seed in range(3)}
           for name, c in figures.items()}
    assert got == golden


# fuzz figures 8, 14, 43 and 54 are degenerate under every seed
FUZZ_DEGENERATE = {(case, seed) for case in (8, 14, 43, 54) for seed in range(5)}
FUZZ_MODELS_SHA256 = "77405f283ce0600f0ae2b677fd87f22c5843af1138ad368bed2cc360a54b4490"


def test_fuzz_models_match_pinned_digest():
    """Every model of fuzz figures 0-63 at seeds 0-4, bit for bit: the
    sha256 of ``json.dumps([case, seed, _hex_model(m)], sort_keys=True)``
    in case and seed order, with "degenerate" in place of the model of a
    seed that exhausts its attempts.  Reordered arithmetic, or a model
    found on another attempt, changes it."""
    digest = hashlib.sha256()
    degenerate = set()
    for case in range(64):
        c = parse_construction(random_construction_text(case))
        for seed in range(5):
            try:
                got = _hex_model(instantiate(c, seed))
            except DegenerateModelError:
                got = "degenerate"
                degenerate.add((case, seed))
            digest.update(json.dumps([case, seed, got], sort_keys=True).encode())
    assert degenerate == FUZZ_DEGENERATE
    assert digest.hexdigest() == FUZZ_MODELS_SHA256


# -- the numpy sampler the plain-float one replaced, kept as the reference ---

def _ref_line_intersection(a, b, c, d):
    r = b - a
    s = d - c
    denom = r[0] * s[1] - r[1] * s[0]
    nr = math.hypot(*r) * math.hypot(*s)
    if nr == 0 or abs(denom) / nr < numeric.MIN_SIN:
        return None
    t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom
    return a + t * r


def _ref_circumcenter(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    diam = max(np.linalg.norm(b - a), np.linalg.norm(c - a), np.linalg.norm(c - b))
    if diam == 0 or abs(d) / (diam ** 2) < numeric.MIN_SIN:
        return None
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    return np.array([ux, uy])


def _ref_sample_once(c, rng):
    pts = {}
    for step in c.steps:
        a = step.args
        if step.kind == "point":
            pts[a[0]] = rng.uniform(-1.0, 1.0, size=2)
        elif step.kind == "on_line":
            t = rng.uniform(-1.0, 2.0)
            pts[a[0]] = pts[a[1]] + t * (pts[a[2]] - pts[a[1]])
        elif step.kind == "on_circle":
            theta = rng.uniform(0.0, 2.0 * math.pi)
            r = np.linalg.norm(pts[a[2]] - pts[a[1]])
            pts[a[0]] = pts[a[1]] + r * np.array([math.cos(theta), math.sin(theta)])
        elif step.kind == "midpoint":
            pts[a[0]] = 0.5 * (pts[a[1]] + pts[a[2]])
        elif step.kind == "intersect":
            p = _ref_line_intersection(pts[a[1]], pts[a[2]], pts[a[3]], pts[a[4]])
            if p is None:
                return None
            pts[a[0]] = p
        elif step.kind == "foot":
            u = pts[a[3]] - pts[a[2]]
            nn = u @ u
            if nn == 0:
                return None
            t = (pts[a[1]] - pts[a[2]]) @ u / nn
            pts[a[0]] = pts[a[2]] + t * u
        elif step.kind == "circumcenter":
            o = _ref_circumcenter(pts[a[1]], pts[a[2]], pts[a[3]])
            if o is None:
                return None
            pts[a[0]] = o
    return pts


def _ref_nondegenerate(c, pts):
    names = list(pts)
    arr = np.array([pts[n] for n in names])
    if len(names) < 2:
        return False
    diff = arr[:, None, :] - arr[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    scale = float(d2.max())
    if scale == 0:
        return False
    iu = np.triu_indices(len(names), k=1)
    if (d2[iu] < (numeric.MIN_SPACING ** 2) * scale).any():
        return False
    for step in c.steps:
        if step.kind == "intersect":
            a = step.args
            r = pts[a[2]] - pts[a[1]]
            s = pts[a[4]] - pts[a[3]]
            sin = abs(r[0] * s[1] - r[1] * s[0]) / (np.linalg.norm(r) * np.linalg.norm(s))
            if sin < numeric.MIN_SIN:
                return False
    return True


def _ref_instantiate(c, seed):
    """(model or None, number of _ref_sample_once attempts)."""
    rng = np.random.default_rng(seed)
    for attempt in range(1, numeric.MAX_ATTEMPTS + 1):
        pts = _ref_sample_once(c, rng)
        if pts is None or not _ref_nondegenerate(c, pts):
            continue
        arr = np.array(list(pts.values()))
        diff = arr[:, None, :] - arr[None, :, :]
        scale = float((diff ** 2).sum(axis=2).max())
        coords = {n: (float(p[0]), float(p[1])) for n, p in pts.items()}
        return CoordinateModel(coords=coords, seed=seed, scale=scale), attempt
    return None, numeric.MAX_ATTEMPTS


def _ref_cross(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def _ref_dirangle(a, b, c, d):
    u = b - a
    v = d - c
    if (u @ u) == 0 or (v @ v) == 0:
        return None
    return math.atan2(_ref_cross(u, v), float(u @ v))


def _ref_eval_fact(m, f, tol=numeric.DEFAULT_TOL):
    p = [np.asarray(m.coords[name]) for name in f.args]
    s = m.scale
    if f.pred == "coll":
        return _ref_cross(p[1] - p[0], p[2] - p[0]) ** 2 <= tol * s * s
    if f.pred == "para":
        return _ref_cross(p[1] - p[0], p[3] - p[2]) ** 2 <= tol * s * s
    if f.pred == "perp":
        return float((p[1] - p[0]) @ (p[3] - p[2])) ** 2 <= tol * s * s
    if f.pred == "midp":
        mid = 0.5 * (p[1] + p[2])
        return float((p[0] - mid) @ (p[0] - mid)) <= tol * s
    if f.pred == "cong":
        d1 = float((p[1] - p[0]) @ (p[1] - p[0]))
        d2 = float((p[3] - p[2]) @ (p[3] - p[2]))
        return abs(d1 - d2) <= tol * s
    if f.pred == "cyclic":
        o = _ref_circumcenter(p[0], p[1], p[2])
        if o is None:
            return False
        r2 = float((p[0] - o) @ (p[0] - o))
        d2 = float((p[3] - o) @ (p[3] - o))
        return abs(d2 - r2) <= tol * s
    if f.pred == "eqangle":
        t1 = _ref_dirangle(p[0], p[1], p[2], p[3])
        t2 = _ref_dirangle(p[4], p[5], p[6], p[7])
        if t1 is None or t2 is None:
            return False
        return abs(math.sin(t1 - t2)) <= tol
    raise ValueError(f.pred)


def _ref_eval_condition(m, kind, args, tol=numeric.DEFAULT_TOL):
    if kind == "non_collinear":
        return not _ref_eval_fact(m, make_fact("coll", *args), tol)
    if kind == "distinct_lines":
        x, y, u, v = args
        return not (_ref_eval_fact(m, make_fact("coll", x, y, u), tol)
                    and _ref_eval_fact(m, make_fact("coll", x, y, v), tol))
    raise ValueError(kind)


def _probe_facts(c, rules):
    """Two rounds of derived facts (hypotheses included, so every predicate
    the figure supports), each with a copy whose last point is swapped for
    the first point it does not name."""
    out = []
    for f in saturate(initial_facts(c), rules, max_rounds=2).dag:
        out.append(f)
        others = [p for p in c.points() if p not in f.args]
        if others:
            out.append(make_fact(f.pred, *f.args[:-1], others[0]))
    return out


_SIDES = (("non_collinear", 3), ("distinct_lines", 4))


@pytest.mark.parametrize("case", [*BUNDLED, *range(50)])
def test_plain_floats_match_numpy_reference(case, default_rules, monkeypatch):
    c = (load_construction(case) if case in BUNDLED
         else parse_construction(random_construction_text(case)))
    facts = _probe_facts(c, default_rules)
    attempts = []
    sample_once = numeric._sample_once
    monkeypatch.setattr(numeric, "_sample_once",
                        lambda *a: attempts.append(1) or sample_once(*a))
    for seed in range(20):
        ref, ref_attempts = _ref_instantiate(c, seed)
        attempts.clear()
        try:
            m = instantiate(c, seed)
        except DegenerateModelError:
            m = None
        assert (m is None) == (ref is None) and len(attempts) == ref_attempts
        if m is None:
            continue
        diam = math.sqrt(ref.scale)
        assert list(m.coords) == list(ref.coords)
        for n, (x, y) in m.coords.items():
            rx, ry = ref.coords[n]
            assert abs(x - rx) <= 1e-9 * diam and abs(y - ry) <= 1e-9 * diam
        for f in facts:
            assert eval_fact(m, f) == _ref_eval_fact(ref, f), (seed, f)
            for kind, arity in _SIDES:
                if len(set(f.args[:arity])) == arity:
                    args = f.args[:arity]
                    assert (eval_condition(m, kind, args)
                            == _ref_eval_condition(ref, kind, args)), (seed, kind, args)


# -- eval_fact in its _vec/_dot/_cross form, kept as the reference ----------

def _vec(a, b):
    return (b[0] - a[0], b[1] - a[1])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _vector_dirangle(a, b, c, d):
    u = _vec(a, b)
    v = _vec(c, d)
    if _dot(u, u) == 0 or _dot(v, v) == 0:
        return None
    return math.atan2(_cross(u, v), _dot(u, v))


def _vector_eval_fact(m, f, tol):
    p = [m.coords[name] for name in f.args]
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
        o = numeric._circumcenter(p[0], p[1], p[2])
        if o is None:
            return False
        u = _vec(o, p[0])
        v = _vec(o, p[3])
        return abs(_dot(v, v) - _dot(u, u)) <= tol * s
    if f.pred == "eqangle":
        t1 = _vector_dirangle(p[0], p[1], p[2], p[3])
        t2 = _vector_dirangle(p[4], p[5], p[6], p[7])
        if t1 is None or t2 is None:
            return False
        return abs(math.sin(t1 - t2)) <= tol
    raise ValueError(f.pred)


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _flip(holds):
    """The least double tol >= 0 at which holds(tol), a verdict that only
    turns true as tol grows, is true; None if it is false at the largest
    double.  Nonnegative doubles order as their bit patterns do."""
    lo, hi = -1, _bits(sys.float_info.max)
    if not holds(sys.float_info.max):
        return None
    while hi - lo > 1:  # holds at hi, fails at lo (or lo is below 0.0)
        mid = (lo + hi) // 2
        if holds(_double(mid)):
            hi = mid
        else:
            lo = mid
    return _double(hi)


def test_eval_fact_flips_where_the_vector_form_does(default_rules):
    # a reassociated expression moves the flip by a double or more, even
    # where no report would show it
    flipped = set()  # the predicates seen flipping above tol 0
    for case in range(12):
        c = parse_construction(random_construction_text(case))
        points = c.points()
        rng = np.random.default_rng(case)
        facts = _probe_facts(c, default_rules)
        for pred, record in PREDICATES.items():  # every predicate, over random points
            arity = record.arity
            facts += [make_fact(pred, *rng.choice(points, arity, replace=len(points) < arity))
                      for _ in range(4)]
        for seed in range(2):
            try:
                m = instantiate(c, seed)
            except DegenerateModelError:
                continue
            for f in facts:
                flip = _flip(lambda tol: _vector_eval_fact(m, f, tol))
                assert _flip(lambda tol: eval_fact(m, f, tol)) == flip, (case, seed, f, flip)
                if flip:
                    flipped.add(f.pred)
    assert flipped == set(PREDICATES)


@pytest.mark.parametrize("kwargs", [{"tol_rel": -1.0}, {"tol_rel": 1.0},
                                    {"tol_rel": float("inf")},
                                    {"tol_rel": float("nan")}, {"master_seed": -1}])
def test_verify_rejects_bad_tol_and_seed(pappus, kwargs):
    with pytest.raises(ValueError):
        verify(make_fact("coll", "G", "H", "I"), pappus, **kwargs)


def test_sample_models_rejects_negative_seed(midline):
    with pytest.raises(ValueError, match="master_seed"):
        sample_models(midline, 5, master_seed=-1)


# -- the memoized per-seed stream ---------------------------------------------

def test_memoized_stream_equals_scalar_draws():
    # 3 * PREFIX_DRAWS crosses from the memoized prefix into the tail
    n = 3 * numeric.PREFIX_DRAWS
    # wide seeds take SeedSequence's multi-word and fifth-word mixing paths
    wide = (2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**200 + 3)
    for seed in (*range(200), *wide):
        rng = np.random.default_rng(seed)
        expected = [rng.random() for _ in range(n)]
        for _ in range(2):  # cold, then warm
            assert list(itertools.islice(numeric._draws(seed), n)) == expected, seed


# 40 free points draw 80 doubles, past the prefix
_MANY_POINTS = parse_construction("point " + " ".join(f"P{i}" for i in range(40)) + "\n")


def test_each_model_restarts_its_seed_stream(midline, pappus):
    for seed in (0, 7, 41):
        numeric._prefix.cache_clear()
        cold = instantiate(midline, seed)
        for c in (pappus, _MANY_POINTS, midline):
            instantiate(c, seed)
        warm = instantiate(midline, seed)
        assert warm.coords == cold.coords and warm.scale == cold.scale
        numeric._prefix.cache_clear()
        many_cold = instantiate(_MANY_POINTS, seed)
        instantiate(midline, seed)
        assert instantiate(_MANY_POINTS, seed).coords == many_cold.coords


def test_degenerate_figure_takes_every_attempt_with_warm_memo(monkeypatch):
    c = parse_construction("point A B\non_line C A B\non_line D A B\n"
                           "intersect X A C B D\n")
    attempts = []
    sample_once = numeric._sample_once
    monkeypatch.setattr(numeric, "_sample_once",
                        lambda *a: attempts.append(1) or sample_once(*a))
    numeric._prefix.cache_clear()
    for _ in range(2):  # cold, then warm
        attempts.clear()
        with pytest.raises(DegenerateModelError):
            instantiate(c, 3)
        assert len(attempts) == numeric.MAX_ATTEMPTS


def test_memo_stays_at_its_bound(midline):
    numeric._prefix.cache_clear()
    first = instantiate(midline, 0)
    for seed in range(numeric.MEMO_SEEDS + 10):
        numeric._prefix(seed)
    assert numeric._prefix.cache_info().currsize == numeric.MEMO_SEEDS
    assert instantiate(midline, 0) == first  # seed 0 was evicted


@pytest.mark.parametrize("warm", [False, True])
def test_seed_must_be_a_nonnegative_integer(midline, warm):
    numeric._prefix.cache_clear()
    if warm:
        for seed in range(4):
            instantiate(midline, seed)
    for bad in (0.5, 1.0, "1", None):
        with pytest.raises(TypeError):
            instantiate(midline, bad)
    for _ in range(2):
        with pytest.raises(ValueError):
            instantiate(midline, -1)
    m = instantiate(midline, np.int64(3))
    assert m == instantiate(midline, 3) and type(m.seed) is int
