"""Independent references the workloads check the library's outputs against.

Nothing here imports bilorentz.  Matrices are rebuilt from a spec in
50-digit decimal arithmetic, causal classes come from the exact sign of
c1**2 - c2**2 in rational arithmetic, and diagram output is checked by
reparsing the SVG.

A failure is any disagreement with the reference.  Two kinds of failure are
explained by defects the project already lists as open, and are counted
under their own names (they still count as failed):

* ``abs_tol_class``: the absolute 1e-12 tolerance on s**2 gives a causal
  class that depends on the unit of length (lightlike at small scales,
  off the light cone at large ones);
* ``abs_tol_refit``: the absolute 1e-9 tolerance in ``refit`` rejects a
  product whose entries match the family form to 1e-9 relative.

Any other failure is unexplained and makes the run incorrect.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from decimal import Decimal, localcontext
from fractions import Fraction

from gen import Spec

EPS = 2.0 ** -52
ABS_TOL = 1e-12
TIMELIKE, LIGHTLIKE, SPACELIKE = "timelike", "lightlike", "spacelike"


def _dec_matrix(spec: Spec):
    with localcontext() as ctx:
        ctx.prec = 50
        tau, k = Decimal(spec.tau), Decimal(spec.k)
        if math.isinf(spec.vel):
            a = -tau / (-k).sqrt()
            return ((Decimal(0), a), (a, Decimal(0)))
        v = Decimal(spec.vel)
        if spec.branch == "lambda":
            g = tau / (1 - k * v * v).sqrt()
        else:
            g = tau * (1 if v > 0 else -1) / (k * v * v - 1).sqrt()
        return ((g, -g * v), (-g * v, g))


def matrix(spec: Spec) -> tuple[tuple[float, float], tuple[float, float]]:
    """The family matrix of the spec, correctly rounded to floats."""
    (a, b), (c, d) = _dec_matrix(spec)
    return (float(a), float(b)), (float(c), float(d))


def apply(m, x: tuple[float, float]) -> tuple[tuple[float, float], float]:
    """Image of x under m, and the scale |a*c1| + |b*c2| (row-wise max) that
    bounds its rounding error."""
    (a, b), (c, d) = m
    c1, c2 = x
    with localcontext() as ctx:
        ctx.prec = 50
        y1 = Decimal(a) * Decimal(c1) + Decimal(b) * Decimal(c2)
        y2 = Decimal(c) * Decimal(c1) + Decimal(d) * Decimal(c2)
    scale = max(abs(a * c1) + abs(b * c2), abs(c * c1) + abs(d * c2))
    return (float(y1), float(y2)), scale


def apply_spec(spec: Spec, x):
    return apply(matrix(spec), x)[0]


def close(got: float, want: float, scale: float, rel: float) -> bool:
    return abs(got - want) <= rel * scale


def exact_class(c1: float, c2: float, swapped: bool = False) -> str:
    """Causal class from the exact sign of c1**2 - c2**2 (or its negative)."""
    s = Fraction(c1) ** 2 - Fraction(c2) ** 2
    if swapped:
        s = -s
    return TIMELIKE if s > 0 else SPACELIKE if s < 0 else LIGHTLIKE


def exact_interval(c1: float, c2: float, swapped: bool = False) -> float:
    s = float(Fraction(c1) ** 2 - Fraction(c2) ** 2)
    return -s if swapped else s


def class_failure(got: str, want: str, s2: float, scale_sq: float) -> str | None:
    """None when the class is right, else the failure kind.

    ``s2`` is the library's own interval and ``scale_sq`` bounds the size
    of the terms it was summed from, so 1e-12 * scale_sq is a tolerance
    relative to the unit of length.
    """
    if got == want:
        return None
    if got == LIGHTLIKE and abs(s2) <= ABS_TOL:
        return "abs_tol_class"
    if want == LIGHTLIKE and abs(s2) > ABS_TOL and abs(s2) <= ABS_TOL * scale_sq:
        return "abs_tol_class"
    return "class"


def mat_norm(m) -> float:
    return max(abs(m[0][0]) + abs(m[0][1]), abs(m[1][0]) + abs(m[1][1]))


def inv_norm(m) -> float:
    (a, b), (c, d) = m
    det = a * d - b * c
    return max(abs(d) + abs(b), abs(c) + abs(a)) / abs(det)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

class ComposeRef:
    """Closed-form expectation for compose(make(a), make(b)) at k = 1.

    Composing k = 1 family transforms adds rapidities, so the fitted
    velocity is (v_a + v_b) / (1 + v_a * v_b) for either family; the result
    is symmetric when both or neither are antisymmetric, with tau_a * tau_b.
    """

    __slots__ = ("branch", "tau", "vel", "m", "inv", "scale")

    def __init__(self, a: Spec, b: Spec):
        with localcontext() as ctx:
            ctx.prec = 50
            va, vb = Decimal(a.vel), Decimal(b.vel)
            self.vel = float((va + vb) / (1 + va * vb))
            ma, mb = _dec_matrix(a), _dec_matrix(b)
            m = tuple(tuple(ma[i][0] * mb[0][j] + ma[i][1] * mb[1][j] for j in (0, 1))
                      for i in (0, 1))
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            inv = ((m[1][1] / det, -m[0][1] / det), (-m[1][0] / det, m[0][0] / det))
        self.branch = "lambda" if (a.branch == "l") == (b.branch == "l") else "l"
        self.tau = a.tau * b.tau
        self.m = tuple(tuple(float(x) for x in row) for row in m)
        self.inv = tuple(tuple(float(x) for x in row) for row in inv)
        self.scale = max(abs(x) for row in self.m for x in row)

    def product_matches(self, got, rel: float) -> bool:
        return all(close(got[i][j], self.m[i][j], self.scale, rel)
                   for i in (0, 1) for j in (0, 1))

    def inverse_matches(self, got) -> bool:
        # inverting squares the condition number: allow scale**2 * 1e-12
        scale = max(abs(x) for row in self.inv for x in row)
        tol = 1e-12 * self.scale * self.scale
        return all(close(got[i][j], self.inv[i][j], scale, tol)
                   for i in (0, 1) for j in (0, 1))

    def vel_matches(self, got: float) -> bool:
        return abs(got - self.vel) <= 1e-9 * abs(self.vel)

    def fit_failure(self, fitted, product) -> str | None:
        """Failure kind for a refit result (None = fitted correctly).

        ``fitted`` is (branch, tau, k, vel) or None when refit found no fit.
        """
        if fitted is None:
            return "abs_tol_refit" if self.product_matches(product, 1e-9) else "refit"
        branch, tau, k, vel = fitted
        if branch != self.branch or tau != self.tau or k != 1.0 or not self.vel_matches(vel):
            return "refit"
        return None


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

SVG_NS = "{http://www.w3.org/2000/svg}"
MARGIN = 40.0


class ScenarioRef:
    """What the two diagrams of a scenario dict must show.

    The window is square and so is the canvas, so a light ray must be drawn
    at exactly 45 degrees in pixels.  A worldline is drawn when the line
    meets the window; lines that pass within rounding distance of a corner
    may go either way, so the drawn count is checked against a range.
    """

    def __init__(self, data: dict, spec: Spec, size_px: int = 480):
        self.lo = tuple(data["window"]["min"])
        self.hi = tuple(data["window"]["max"])
        self.size_px = size_px
        m = matrix(spec)
        lines = [(tuple(w["anchor"]), tuple(w["direction"])) for w in data["worldlines"]]
        moved = [(apply(m, a)[0], apply(m, d)[0]) for a, d in lines]
        self.drawn = (self._count(lines), self._count(moved))
        events = [tuple(e["at"]) for e in data.get("events", [])]
        self.events = (events, [apply(m, e)[0] for e in events])

    def _count(self, lines) -> tuple[int, int]:
        side = self.hi[0] - self.lo[0]
        corners = [(x, y) for x in (self.lo[0], self.hi[0]) for y in (self.lo[1], self.hi[1])]
        sure = maybe = 0
        for (a1, a2), (d1, d2) in lines:
            norm = math.hypot(d1, d2)
            dist = [(d1 * (y - a2) - d2 * (x - a1)) / norm for x, y in corners]
            slack = 1e-9 * (side + abs(a1) + abs(a2))
            if min(dist) < -slack and max(dist) > slack:
                sure += 1
            elif min(dist) <= slack and max(dist) >= -slack:
                maybe += 1
        return sure, sure + maybe

    def pixel(self, p) -> tuple[float, float]:
        plot = self.size_px - 2 * MARGIN
        return (MARGIN + (p[1] - self.lo[1]) / (self.hi[1] - self.lo[1]) * plot,
                MARGIN + (self.hi[0] - p[0]) / (self.hi[0] - self.lo[0]) * plot)

    def check(self, svgs: tuple[str, str]) -> str | None:
        """None when both documents agree with the reference, else a reason."""
        for side, svg in enumerate(svgs):
            try:
                root = ET.fromstring(svg)
            except ET.ParseError as exc:
                return f"svg parse error: {exc}"
            lines = [e for e in root.iter(SVG_NS + "line")
                     if e.get("class", "").startswith("worldline")]
            lo, hi = self.drawn[side]
            if not lo <= len(lines) <= hi:
                return f"drew {len(lines)} worldlines, expected {lo}..{hi}"
            for e in lines:
                if e.get("class") == "worldline lightray":
                    dx = abs(float(e.get("x2")) - float(e.get("x1")))
                    dy = abs(float(e.get("y2")) - float(e.get("y1")))
                    if abs(dx - dy) > 1e-4:
                        return f"light ray off 45 degrees: dx={dx} dy={dy}"
            marks = [e for e in root.iter(SVG_NS + "circle") if e.get("class") == "event"]
            want = self.events[side]
            if len(marks) != len(want):
                return f"{len(marks)} event markers, expected {len(want)}"
            for e, at in zip(marks, want):
                px, py = self.pixel(at)
                if abs(float(e.get("cx")) - px) > 1e-4 or abs(float(e.get("cy")) - py) > 1e-4:
                    return f"event marker at ({e.get('cx')}, {e.get('cy')}), expected ({px}, {py})"
        return None


_WROTE = re.compile(r"^wrote (\S+) and (\S+)$")


def parse_wrote(stdout: str) -> tuple[str, str] | None:
    match = _WROTE.match(stdout.strip())
    return match.groups() if match else None
