"""Private copy of the fuzz construction generator in tests/fuzzing.py.

The benchmark keeps its own copy so that an edit to the test helper cannot
change a workload.  The code below is the test helper's, verbatim.

The generator tracks which points are forced collinear so it never emits
steps that are degenerate by construction (circumcentre of a collinear
triple, foot of a point already on its line, intersections that land on
an existing point).  Random near-degeneracy is left to the sampler's
retry logic.
"""

import random

_DEP_KINDS = ("on_line", "on_circle", "midpoint", "intersect", "foot",
              "circumcenter")


class _Lines:
    """Symbolic record of forced-collinear point groups."""

    def __init__(self):
        self.groups = []  # list of sets

    def group_of(self, a, b):
        for g in self.groups:
            if a in g and b in g:
                return g
        return {a, b}

    def add_to_line(self, p, a, b):
        g = self.group_of(a, b)
        if g not in self.groups:
            self.groups.append(g)
        g.add(p)
        self._merge()

    def _merge(self):
        merged = True
        while merged:
            merged = False
            for i in range(len(self.groups)):
                for j in range(i + 1, len(self.groups)):
                    if len(self.groups[i] & self.groups[j]) >= 2:
                        self.groups[i] |= self.groups[j]
                        del self.groups[j]
                        merged = True
                        break
                if merged:
                    break

    def collinear(self, a, b, c):
        return c in self.group_of(a, b)

    def on_line(self, p, a, b):
        return p in self.group_of(a, b)


def random_construction_text(seed: int, max_points: int = 8) -> str:
    rng = random.Random(seed)
    names = [chr(ord("A") + i) for i in range(max_points)]
    n_free = rng.randint(2, 3)
    n_total = rng.randint(max(n_free, 4), max_points)
    lines = [f"point {' '.join(names[:n_free])}"]
    defined = names[:n_free]
    seen = set()
    reg = _Lines()

    def fresh(kind, *refs):
        key = (kind, frozenset(refs) if kind in ("midpoint", "circumcenter")
               else tuple(refs))
        if key in seen:
            return False
        seen.add(key)
        return True

    for i in range(n_free, n_total):
        p = names[i]
        for _ in range(30):
            kind = rng.choice(_DEP_KINDS)
            if kind in ("on_line", "on_circle", "midpoint") and len(defined) >= 2:
                a, b = rng.sample(defined, 2)
                if kind == "midpoint" and not fresh(kind, a, b):
                    continue
                lines.append(f"{kind} {p} {a} {b}")
                if kind in ("on_line", "midpoint"):
                    reg.add_to_line(p, a, b)
                break
            if kind == "foot" and len(defined) >= 3:
                q, a, b = rng.sample(defined, 3)
                if reg.on_line(q, a, b) or not fresh(kind, q, a, b):
                    continue
                lines.append(f"foot {p} {q} {a} {b}")
                reg.add_to_line(p, a, b)
                break
            if kind == "circumcenter" and len(defined) >= 3:
                a, b, c = rng.sample(defined, 3)
                if reg.collinear(a, b, c) or not fresh(kind, a, b, c):
                    continue
                lines.append(f"circumcenter {p} {a} {b} {c}")
                break
            if kind == "intersect" and len(defined) >= 4:
                a, b, c, d = rng.sample(defined, 4)
                g1, g2 = reg.group_of(a, b), reg.group_of(c, d)
                # same line, or the crossing already is a named point
                if g1 == g2 or (g1 & g2) or not fresh(kind, a, b, c, d):
                    continue
                lines.append(f"intersect {p} {a} {b} {c} {d}")
                reg.add_to_line(p, a, b)
                reg.add_to_line(p, c, d)
                break
        else:
            lines.append(f"point {p}")
        defined.append(p)
    return "\n".join(lines) + "\n"
