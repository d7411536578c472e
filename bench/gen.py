"""Seeded input generators shared by every workload.

Everything here is plain data (floats, ints, strings, dicts), so the
subprocess workloads can build command lines and scenario files without
importing the library under test.  The same seed always gives the same
inputs.

Velocities are drawn uniformly in rapidity, |eta| <= MAX_RAPIDITY, for both
families, so they reach toward v -> 1 and w -> 1.  Every k is a power of 4,
which keeps sqrt(|k|) exact and the drawn velocities free of extra rounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MAX_RAPIDITY = 4.0
LAMBDA_K = (1.0, 1.0, 1.0, 0.25, 4.0, -1.0, -0.25, -4.0)
L_K = (1.0, 1.0, 0.25, 4.0)
INF_K = (-1.0, -0.25, -4.0)
#: Decimal exponents of displacement scales: log-uniform over 18 decades.
SCALE_EXP = (-9.0, 9.0)
#: Share of displacements drawn exactly on the light cone.
LIGHTLIKE_SHARE = 0.1


@dataclass(frozen=True)
class Spec:
    """Parameters of one family transform: branch "lambda" or "l"; vel is
    math.inf for the infinite-velocity limit of the symmetric family."""

    branch: str
    tau: int
    k: float
    vel: float
    eta: float = 0.0

    def cli_text(self) -> str:
        vel = "infinity" if math.isinf(self.vel) else repr(self.vel)
        return f"{self.branch},{self.tau},{self.k!r},{vel}"


def draw_spec(rng: random.Random, kind: str | None = None, k1: bool = False) -> Spec:
    """Draw an in-domain transform spec; kind is "lambda", "l" or "inf"."""
    if kind is None:
        r = rng.random()
        kind = "lambda" if r < 0.55 else ("l" if r < 0.95 else "inf")
    tau = rng.choice((1, -1))
    if kind == "inf":
        return Spec("lambda", tau, rng.choice(INF_K), math.inf)
    eta = rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY)
    if kind == "lambda":
        k = 1.0 if k1 else rng.choice(LAMBDA_K)
        v = math.tanh(eta) / math.sqrt(k) if k > 0 else math.sinh(eta) / math.sqrt(-k)
        return Spec("lambda", tau, k, v, eta)
    while abs(eta) < 1e-3:
        eta = rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY)
    k = 1.0 if k1 else rng.choice(L_K)
    return Spec("l", tau, k, 1.0 / (math.tanh(eta) * math.sqrt(k)), eta)


def draw_reject(rng: random.Random) -> Spec:
    """Draw a spec outside its family's domain: construction must raise."""
    tau = rng.choice((1, -1))
    sign = rng.choice((1.0, -1.0))
    r = rng.random()
    if r < 0.4:
        k = rng.choice((1.0, 0.25, 4.0))
        return Spec("lambda", tau, k, sign * rng.uniform(1.0, 3.0) / math.sqrt(k))
    if r < 0.7:
        k = rng.choice((1.0, 0.25, 4.0))
        return Spec("l", tau, k, sign * rng.uniform(0.01, 1.0) / math.sqrt(k))
    if r < 0.85:
        return Spec("l", tau, rng.choice(INF_K), sign * rng.uniform(0.5, 10.0))
    return Spec("lambda", tau, rng.choice((1.0, 0.25, 4.0)), math.inf)


def draw_displacement(rng: random.Random) -> tuple[float, float]:
    """A non-zero displacement at a log-uniform scale; some exactly lightlike."""
    scale = 10.0 ** rng.uniform(*SCALE_EXP)
    if rng.random() < LIGHTLIKE_SHARE:
        a = scale * rng.choice((1.0, -1.0))
        return a, a * rng.choice((1.0, -1.0))
    while True:
        u1, u2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if u1 or u2:
            return scale * u1, scale * u2


def draw_compose_pair(rng: random.Random, pool: list[Spec] | None = None) -> tuple[Spec, Spec]:
    """Two k = 1 specs whose rapidities do not nearly cancel.

    Near-cancelling pairs give a composite velocity near 0 (or near
    infinity for mixed families), where the relative error of the fitted
    velocity is legitimately large; |eta_a + eta_b| >= 0.01 avoids them.
    """
    pick = (lambda: rng.choice(pool)) if pool else (
        lambda: draw_spec(rng, rng.choice(("lambda", "l")), k1=True))
    a = pick()
    b = pick()
    while abs(a.eta + b.eta) < 0.01:
        b = pick()
    return a, b


# ---------------------------------------------------------------------------
# kinematics stream items
# ---------------------------------------------------------------------------

CHAIN, COMPOSE, REJECT = "chain", "compose", "reject"
POOL_SIZE = 16


@dataclass(frozen=True)
class Item:
    """One stream item.  kind CHAIN uses specs[0], d and metric; COMPOSE
    uses specs[0] @ specs[1]; REJECT expects specs[0] to be refused."""

    kind: str
    specs: tuple[Spec, ...]
    pooled: bool
    d: tuple[float, float] = (0.0, 0.0)
    swapped_metric: bool = False


def kinematics_items(seed: int, count: int) -> list[Item]:
    """About 78% chains, 20% compose pairs, 2% domain rejects; half of the
    chains and pairs reuse a spec from a small pool, half draw a fresh one."""
    rng = random.Random(f"kin-{seed}")
    pool = [draw_spec(rng) for _ in range(POOL_SIZE)]
    pair_pool = [draw_spec(rng, rng.choice(("lambda", "l")), k1=True)
                 for _ in range(POOL_SIZE)]
    items = []
    for _ in range(count):
        r = rng.random()
        pooled = rng.random() < 0.5
        if r < 0.02:
            items.append(Item(REJECT, (draw_reject(rng),), False))
        elif r < 0.22:
            items.append(Item(COMPOSE, draw_compose_pair(rng, pair_pool if pooled else None),
                              pooled))
        else:
            spec = rng.choice(pool) if pooled else draw_spec(rng)
            items.append(Item(CHAIN, (spec,), pooled, draw_displacement(rng),
                              rng.random() < 0.2))
    return items


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _label(rng: random.Random, stem: str, i: int) -> str:
    # an occasional label that needs XML escaping
    return f"{stem}{i} <&>" if rng.random() < 0.1 else f"{stem}{i}"


#: Transform kinds of consecutive scenarios, so every seed has the same mix.
SCENARIO_KINDS = ("lambda", "l") * 9 + ("lambda", "inf")


def scenario_dict(rng: random.Random, name: str, ref_apply, index: int) -> dict:
    """A scenario in the JSON schema of bilorentz.scenario_io.

    The transform kind, the worldline count (2 to 36) and whether there are
    events follow from ``index`` alone, so the cost of a set of scenarios
    hardly depends on the seed.  The window is square and contains the
    origin, and the first worldline is a light ray through the origin, so
    both diagrams always draw it.  Events are kept only when their reference
    image lies inside the window with a margin, so annotating the
    transformed diagram never fails.
    ``ref_apply(spec, (c1, c2))`` maps an event with the reference matrix.
    """
    spec = draw_spec(rng, SCENARIO_KINDS[index % len(SCENARIO_KINDS)])
    side = 10.0 ** rng.uniform(-1.0, 2.0)
    lo = (-side * rng.uniform(0.1, 0.9), -side * rng.uniform(0.1, 0.9))
    hi = (lo[0] + side, lo[1] + side)
    s = rng.choice((1.0, -1.0)) * side * rng.uniform(0.1, 2.0)
    lines = [{"anchor": [0.0, 0.0], "direction": [s, s * rng.choice((1.0, -1.0))],
              "kind": "lightray", "label": "light 0"}]
    for i in range(1, 2 + index * 13 % 35):
        anchor = [rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])]
        if rng.random() < 0.2:
            a = side * rng.uniform(0.1, 1.0)
            lines.append({"anchor": anchor, "direction": [a, a * rng.choice((1.0, -1.0))],
                          "kind": "lightray", "label": _label(rng, "light ", i)})
        else:
            lines.append({"anchor": anchor,
                          "direction": [1.0, rng.uniform(-1.5, 1.5)],
                          "kind": "particle", "label": _label(rng, "p", i)})
    out = {"name": name,
           "transform": {"branch": spec.branch, "tau": spec.tau, "k": spec.k,
                         "vel": "infinity" if math.isinf(spec.vel) else spec.vel},
           "worldlines": lines,
           "window": {"min": list(lo), "max": list(hi)}}
    if index % 2:
        margin = 1e-6 * side
        events = [{"at": [0.0, 0.0], "label": "O"}]
        for i in range(rng.randint(0, 6)):
            at = (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]))
            image = ref_apply(spec, at)
            if all(lo[j] + margin <= p[j] <= hi[j] - margin
                   for p in (at, image) for j in (0, 1)):
                events.append({"at": list(at), "label": _label(rng, "E", i)})
        out["events"] = events
    return out


def scenario_dicts(seed: int, count: int, ref_apply) -> list[dict]:
    rng = random.Random(f"scenario-{seed}")
    return [scenario_dict(rng, f"s{seed}-{i}", ref_apply, i) for i in range(count)]


BUILTINS = ("fig2", "fig3", "fig4")
