"""The four workloads.  Each one generates its inputs and references in
``setup``, and ``run_pass`` runs every input once, either straight against
the library or with spans around each call into it.  A pass is always the
whole input set, and a run counts each input op once (``Tally.repeat``), so
failure counts repeat exactly for a seed.

kinematics_stream and scenario_render run in this process; cli_oneshot
and verify_fuzz start one child per invocation, and never import the
library here.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import gen
import reference as ref
from tracing import Tracer, aggregate, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
SHIM = Path(__file__).resolve().parent / "shim.py"

#: Failure kinds explained by defects already listed as open (see reference.py).
EXPLAINED = frozenset({"abs_tol_class", "abs_tol_refit"})


class Tally:
    """Attempted and failed operations, with the kinds of failure seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.examples: list[str] = []
        self.disagreeing = 0    # later passes that failed differently from the first

    def record(self, kinds: list[str], what) -> None:
        """Count one operation; ``what()`` describes it if it failed."""
        self.attempted += 1
        if kinds:
            self.failed += 1
            self.kinds.update(kinds)
            if len(self.examples) < 5 and not EXPLAINED.issuperset(kinds):
                self.examples.append(f"{what()}: {kinds}")

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.kinds.update(other.kinds)
        self.examples.extend(other.examples[:5 - len(self.examples)])
        self.disagreeing += other.disagreeing

    def repeat(self, other: "Tally") -> None:
        """Check a later pass over the same inputs against this one.

        A run counts each input op once, whatever the number of passes, so
        ``attempted`` and ``failed`` repeat exactly for a seed.  Every later
        pass is still checked against the reference, and must fail the same
        number of ops in the same ways; a pass that does not is counted in
        ``disagreeing``, which no open defect explains.
        """
        if (other.attempted, other.failed, other.kinds) != (
                self.attempted, self.failed, self.kinds):
            self.disagreeing += 1
            if len(self.examples) < 5:
                self.examples.append(f"a later pass failed {other.failed} of {other.attempted} "
                                     f"ops, the first {self.failed}: {dict(other.kinds)}")

    @property
    def unexplained(self) -> int:
        return (self.disagreeing
                + sum(n for kind, n in self.kinds.items() if kind not in EXPLAINED))


class PassResult:
    """Per-op durations of one pass, its tally, and traced per-layer data."""

    def __init__(self):
        self.ns: list[int] = []
        self.tally = Tally()
        self.layers: dict[str, float] = {}
        self.extra_ns: list[int] = []    # bare-interpreter samples (subprocess workloads)
        self.tracer: Tracer | None = None    # spans of a traced in-process pass


def library():
    """Import the package under test from the checkout's src directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bilorentz
    return bilorentz


def per_call_metrics(stats, names: dict[str, str]) -> dict[str, float]:
    """``<metric>.calls`` and mean self ``<metric>.us`` for each span name."""
    out = {}
    for span, metric in names.items():
        calls, total = stats.get(span, (0, 0))
        out[f"{metric}.calls"] = calls
        out[f"{metric}.us"] = total / calls / 1e3 if calls else 0.0
    return out


# ---------------------------------------------------------------------------
# kinematics_stream
# ---------------------------------------------------------------------------

CORE_FNS = ("make_lambda", "make_l", "make_lambda_infinite_limit", "apply", "compose",
            "inverse", "transform_metric", "interval_squared", "classify_geometric",
            "measured_displacement", "refit")


class ChainRef:
    """Reference outputs of one chain item."""

    __slots__ = ("out", "out_scale", "cls", "s2", "scale_sq", "kappa")

    def __init__(self, item: gen.Item, matrices: dict):
        m = matrices.get(item.specs[0])
        if m is None:
            m = matrices[item.specs[0]] = ref.matrix(item.specs[0])
        c1, c2 = item.d
        self.out, self.out_scale = ref.apply(m, item.d)
        self.cls = ref.exact_class(c1, c2, item.swapped_metric)
        self.s2 = ref.exact_interval(c1, c2, item.swapped_metric)
        self.scale_sq = c1 * c1 + c2 * c2
        self.kappa = (ref.mat_norm(m) * ref.inv_norm(m)) ** 2


class Kinematics:
    SIZE = 4_000

    def __init__(self, seed: int, size: int):
        self.seed, self.size = seed, size

    def setup(self) -> None:
        lib = library()
        self.lib = lib
        self.metrics = {False: lib.STANDARD_METRIC, True: lib.SWAPPED_METRIC}
        self.items = gen.kinematics_items(self.seed, self.size)
        matrices: dict = {}
        self.refs = []
        for item in self.items:
            if item.kind == gen.CHAIN:
                self.refs.append(ChainRef(item, matrices))
            elif item.kind == gen.COMPOSE:
                self.refs.append(ref.ComposeRef(*item.specs))
            else:
                self.refs.append(None)
        f = self._fns(None)
        with contextlib.suppress(Exception):    # the passes count what fails
            for item in self.items[:500]:
                self._op(f, item)

    def _fns(self, tracer: Tracer | None):
        core = self.lib.core
        if tracer is None:
            return types.SimpleNamespace(**{n: getattr(core, n) for n in CORE_FNS})
        return types.SimpleNamespace(**{n: tracer.wrap(f"core.{n}", getattr(core, n))
                                        for n in CORE_FNS})

    def _op(self, f, item: gen.Item):
        lib = self.lib
        spec = item.specs[0]
        if item.kind == gen.CHAIN:
            t = construct(f, spec)
            d = lib.TwoVector(*item.d)
            g = self.metrics[item.swapped_metric]
            d2 = f.apply(t, d)
            g2 = f.transform_metric(t, g)
            return (d2, f.interval_squared(d, g), f.interval_squared(d2, g2),
                    f.classify_geometric(d, g), f.classify_geometric(d2, g2),
                    f.measured_displacement(d2))
        if item.kind == gen.COMPOSE:
            p = f.compose(construct(f, spec), construct(f, item.specs[1]))
            try:
                fit = f.refit(p, 1.0)
            except lib.NotDecomposableError:
                fit = None
            return p, fit, f.inverse(p)
        try:
            construct(f, spec)
        except lib.DomainError:
            return True
        return False

    def _check(self, item: gen.Item, r, out) -> list[str]:
        if item.kind == gen.CHAIN:
            return check_chain(item, r, out)
        if item.kind == gen.COMPOSE:
            p, fit, inv = out
            kinds = []
            if not r.product_matches(p.m, 1e-12):
                kinds.append("compose")
            fitted = None if fit is None else (fit.branch.value, fit.tau, fit.k, fit.vel)
            failure = r.fit_failure(fitted, p.m)
            if failure:
                kinds.append(failure)
            if not r.inverse_matches(inv.m):
                kinds.append("inverse")
            return kinds
        return [] if out else ["domain_accepted"]

    def run_pass(self, traced: bool) -> PassResult:
        res = PassResult()
        tracer = Tracer() if traced else None
        f = self._fns(tracer)
        op, check, ns = self._op, self._check, res.ns
        refit_none = 0
        for i, (item, r) in enumerate(zip(self.items, self.refs)):
            if tracer is not None:
                tracer.op = i
                tracer.begin("op")
            t0 = perf_counter_ns()
            try:
                out = op(f, item)
            except Exception as exc:    # counted as a failed op, not a crash
                out = exc
            ns.append(perf_counter_ns() - t0)
            if tracer is not None:
                tracer.end()
            if isinstance(out, Exception):
                res.tally.record([f"raised {type(out).__name__}"],
                                 lambda: f"item {i} {item}: {out}")
                continue
            res.tally.record(check(item, r, out), lambda: f"item {i} {item}")
            if item.kind == gen.COMPOSE and out[1] is None:
                refit_none += 1
        if tracer is not None:
            res.tracer = tracer
            res.layers = self._layers(tracer, res.tally)
            res.layers["core.refit_none"] = refit_none
        return res

    def _layers(self, tracer: Tracer, tally: Tally) -> dict[str, float]:
        stats = aggregate(tracer.spans)
        out = per_call_metrics(stats, {f"core.{n}": f"core.{n}" for n in CORE_FNS})
        out["core.class_mismatch"] = tally.kinds["abs_tol_class"] + tally.kinds["class"]
        out["core.domain_rejects"] = sum(1 for it in self.items if it.kind == gen.REJECT) \
            - tally.kinds["domain_accepted"]
        # constructor self time split by whether the spec came from the pool
        split = {True: [0, 0], False: [0, 0]}
        for span, own in zip(tracer.spans, self_times(tracer.spans)):
            if span[0].startswith("core.make_"):
                acc = split[self.items[span[4]].pooled]
                acc[0] += 1
                acc[1] += own
        for pooled, key in ((True, "pool"), (False, "fresh")):
            calls, total = split[pooled]
            out[f"core.construct.{key}_us"] = total / calls / 1e3 if calls else 0.0
        return out


def construct(f, spec: gen.Spec):
    if math.isinf(spec.vel):
        return f.make_lambda_infinite_limit(spec.tau, spec.k)
    if spec.branch == "lambda":
        return f.make_lambda(spec.tau, spec.k, spec.vel)
    return f.make_l(spec.tau, spec.k, spec.vel)


def check_chain(item: gen.Item, r: ChainRef, out) -> list[str]:
    d2, s_before, s_after, before, after, measured = out
    kinds = []
    if not (ref.close(d2.c1, r.out[0], r.out_scale, 1e-11)
            and ref.close(d2.c2, r.out[1], r.out_scale, 1e-11)):
        kinds.append("apply")
    if abs(s_before - r.s2) > 4 * ref.EPS * r.scale_sq:
        kinds.append("interval")
    if abs(s_after - r.s2) > 1e-12 * r.kappa * r.scale_sq:
        kinds.append("interval_invariance")
    for report, s2, scale_sq in ((before, s_before, r.scale_sq),
                                 (after, s_after, r.kappa * r.scale_sq)):
        failure = ref.class_failure(report.causal_class.value, r.cls, s2, scale_sq)
        if failure:
            kinds.append(failure)
        if report.coord_superluminal != (report.coord_speed.value > 1.0):
            kinds.append("coord_speed")
    c1, c2 = item.d
    if before.coord_speed.value != (math.inf if c1 == 0.0 else abs(c2 / c1)):
        kinds.append("coord_speed")
    if (measured.c1, measured.c2) != (d2.c2, d2.c1):
        kinds.append("measured_displacement")
    return kinds


# ---------------------------------------------------------------------------
# scenario_render
# ---------------------------------------------------------------------------

IO_FNS = ("scenario_from_dict", "scenario_to_dict", "save_scenario", "load_scenario")
DIAGRAM_FNS = ("render_pair", "annotate_events")


class ScenarioRender:
    SIZE, TRACE_SIZE = 60, 20

    def __init__(self, seed: int, size: int, tmp: Path):
        self.seed, self.size, self.tmp = seed, size, tmp

    def setup(self) -> None:
        lib = library()
        self.lib = lib
        self.inputs = gen.scenario_dicts(self.seed, self.size, ref.apply_spec)
        self.refs = [ref.ScenarioRef(data, spec_of(data)) for data in self.inputs]
        for name in gen.BUILTINS:
            build = getattr(lib, f"build_{name}_scenario")
            self.inputs.append(lib.scenario_to_dict(build()))
            self.refs.append(tuple((GOLDEN / f"{name}-{side}.svg").read_text(encoding="utf-8")
                                   for side in ("original", "transformed")))
        self.style = lib.DiagramStyle()
        with contextlib.suppress(Exception):    # the passes count what fails
            for i, data in enumerate(self.inputs[:5]):
                self._op(self._fns(None), i, data)

    def _fns(self, tracer: Tracer | None):
        lib = self.lib
        fns = {n: getattr(lib.scenario_io, n) for n in IO_FNS}
        fns.update({n: getattr(lib.diagram, n) for n in DIAGRAM_FNS})
        fns["to_svg"] = lib.diagram.SvgDocument.to_svg
        fns["apply"] = lib.core.apply
        if tracer is None:
            return types.SimpleNamespace(**fns)
        layer = {n: "scenario_io" for n in IO_FNS}
        layer.update({n: "diagram" for n in DIAGRAM_FNS}, to_svg="diagram", apply="core")
        return types.SimpleNamespace(**{n: tracer.wrap(f"{layer[n]}.{n}", fn)
                                        for n, fn in fns.items()})

    def _op(self, f, i: int, data: dict):
        s = f.scenario_from_dict(data)
        doc = f.scenario_to_dict(s)
        path = self.tmp / f"scenario-{i}.json"
        f.save_scenario(s, path)
        loaded = f.load_scenario(path)
        original, moved = f.render_pair(loaded, self.style)
        if loaded.events:
            original = f.annotate_events(original, loaded.events)
            moved = f.annotate_events(moved, tuple((f.apply(loaded.transform, at), label)
                                                   for at, label in loaded.events))
        return s, doc, loaded, (f.to_svg(original), f.to_svg(moved))

    def run_pass(self, traced: bool) -> PassResult:
        res = PassResult()
        tracer = Tracer() if traced else None
        f = self._fns(tracer)
        diagram = self.lib.diagram
        if tracer is not None:
            # render_pair calls transform_worldline through diagram's namespace
            plain = diagram.transform_worldline
            diagram.transform_worldline = tracer.wrap("worldlines.transform_worldline", plain)
        svg_bytes = drawn = golden_mismatch = 0
        try:
            for i, (data, r) in enumerate(zip(self.inputs, self.refs)):
                if tracer is not None:
                    tracer.op = i
                    tracer.begin("op")
                t0 = perf_counter_ns()
                try:
                    out = self._op(f, i, data)
                except Exception as exc:    # counted as a failed op, not a crash
                    out = exc
                res.ns.append(perf_counter_ns() - t0)
                if tracer is not None:
                    tracer.end()
                if isinstance(out, Exception):
                    res.tally.record([f"raised {type(out).__name__}"],
                                     lambda: f"scenario {data['name']}: {out}")
                    continue
                s, doc, loaded, svgs = out
                kinds, reason = [], None
                if doc != data or loaded != s:
                    kinds.append("round_trip")
                if isinstance(r, tuple):
                    if svgs != r:
                        kinds.append("golden")
                        golden_mismatch += 1
                else:
                    reason = r.check(svgs)
                    if reason:
                        kinds.append("diagram")
                res.tally.record(kinds, lambda: f"scenario {data['name']}: {reason}")
                svg_bytes += sum(len(svg.encode("utf-8")) for svg in svgs)
                drawn += sum(svg.count('class="worldline ') for svg in svgs)
        finally:
            if tracer is not None:
                diagram.transform_worldline = plain
        if tracer is not None:
            res.tracer = tracer
            stats = aggregate(tracer.spans)
            names = {f"scenario_io.{n}": f"scenario_io.{n}" for n in IO_FNS}
            names.update({f"diagram.{n}": f"diagram.{n}" for n in DIAGRAM_FNS + ("to_svg",)})
            names["worldlines.transform_worldline"] = "worldlines.transform_worldline"
            res.layers = per_call_metrics(stats, names)
            res.layers.update({"diagram.svg_bytes": svg_bytes, "diagram.worldlines_drawn": drawn,
                               "diagram.golden_mismatch": golden_mismatch})
        return res


def spec_of(data: dict) -> gen.Spec:
    t = data["transform"]
    vel = math.inf if t["vel"] == "infinity" else t["vel"]
    return gen.Spec(t["branch"], t["tau"], t["k"], vel)


# ---------------------------------------------------------------------------
# subprocess workloads
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Invocation:
    """One command line, the exit code it must give, and how to check stdout."""

    def __init__(self, kind: str, argv: list[str], exit_code: int = 0, check=None):
        self.kind, self.argv, self.exit_code, self.check = kind, argv, exit_code, check


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float = 120.0):
    t0 = perf_counter_ns()
    p = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd,
                       timeout=timeout)
    return p.returncode, p.stdout, p.stderr, perf_counter_ns() - t0


class Subprocess:
    """Shared loop for workloads made of one-shot command-line invocations.

    Untraced, each invocation is ``python -m bilorentz.cli ARGS``; traced,
    it is ``python -X importtime bench/shim.py SPANS ARGS``.  Bare
    ``python -c pass`` runs are interleaved with them.
    """

    def __init__(self, seed: int, tmp: Path, trace_size: bool):
        self.seed, self.tmp, self.trace_size = seed, tmp, trace_size
        self.env = child_env()

    def run_pass(self, traced: bool) -> PassResult:
        res = PassResult()
        self.layer_samples: dict[str, list[float]] = {}
        for i, inv in enumerate(self.plan):
            if inv.kind == "bare":
                code, _, _, ns = run_child([sys.executable, "-c", "pass"], self.env, self.tmp)
                res.extra_ns.append(ns)
                if code != 0:
                    res.tally.record(["bare_exit"], lambda: "python -c pass")
                continue
            if traced:
                spans_path = self.tmp / f"spans-{i}.json"
                argv = [sys.executable, "-X", "importtime", str(SHIM), str(spans_path)]
            else:
                argv = [sys.executable, "-m", "bilorentz.cli"]
            code, out, err, ns = run_child(argv + inv.argv, self.env, self.tmp)
            kinds = []
            if code != inv.exit_code:
                kinds.append("exit_unexpected")
            elif inv.check is not None:
                reason = inv.check(out)
                if reason:
                    kinds.append(reason)
            if traced:
                ns -= self._record_trace(inv, spans_path, err, kinds)
            res.ns.append(ns)
            res.tally.record(kinds, lambda: f"{' '.join(inv.argv)} -> exit {code}: "
                                            f"{err.strip()[-300:]}")
        if traced:
            res.layers = self._layers(res)
        return res

    def _sample(self, name: str, value: float) -> None:
        self.layer_samples.setdefault(name, []).append(value)

    def _record_trace(self, inv: Invocation, spans_path: Path, err: str, kinds) -> int:
        """Fold one shim run into the layer samples; returns the ns the shim
        spent re-running ``args.func`` to check its verify report."""
        try:
            with open(spans_path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError):
            kinds.append("shim_output")
            return 0
        by_name = {}
        for name, start, end, _, _ in data["spans"]:
            by_name[name] = (end - start) / 1e6
        self._sample("cli.parse_ms", by_name.get("cli.parse", 0.0))
        command = inv.argv[0]
        if f"cli.{command}" in by_name and inv.exit_code == 0 and command != "verify":
            self._sample(f"cli.{command}_ms", by_name[f"cli.{command}"])
        for name, value in data["counts"].items():
            self._sample(name, value)
        for line in err.splitlines():
            parsed = parse_importtime(line)
            if parsed:
                self._sample(*parsed)
        if command == "verify":
            trials = "1e6" if inv.argv[inv.argv.index("--trials") + 1] == "1000000" else "1e5"
            for name, value in by_name.items():
                if name.startswith(("verify.fuzz.", "verify.grid.")):
                    check = name.rsplit(".", 1)[-1]
                    self._sample(f"verify.{check}.{trials}_ms", value)
            if trials == "1e6":
                self._sample("cli.verify_ms", by_name.get("cli.verify", 0.0))
                self._sample("verify.format_report_ms", by_name.get("verify.format_report", 0.0))
                fuzz = sum(v for n, v in by_name.items() if n.startswith("verify.fuzz."))
                grid = sum(v for n, v in by_name.items() if n.startswith("verify.grid."))
                self._sample("verify.fuzz_ms", fuzz)
                self._sample("verify.grid_ms", grid)
            return int(by_name.get("cli.verify", 0.0) * 1e6)
        return 0


IMPORT_SELF = {"bilorentz.cli": "import.cli_ms", "bilorentz.core": "import.core_ms",
               "bilorentz.verify": "import.verify_ms", "bilorentz.diagram": "import.diagram_ms"}
IMPORT_CUMULATIVE = {"bilorentz": "import.bilorentz_ms", "numpy": "import.numpy_ms"}


def parse_importtime(line: str) -> tuple[str, float] | None:
    """(metric, ms) from one ``-X importtime`` line about the package or numpy."""
    if not line.startswith("import time:"):
        return None
    parts = line[len("import time:"):].split("|")
    if len(parts) != 3 or not parts[0].strip().isdigit():
        return None
    name = parts[2].strip()
    if name in IMPORT_SELF:
        return IMPORT_SELF[name], int(parts[0]) / 1e3
    if name in IMPORT_CUMULATIVE:
        return IMPORT_CUMULATIVE[name], int(parts[1]) / 1e3
    return None


class CliOneshot(Subprocess):

    def setup(self) -> None:
        rng = random.Random(f"cli-{self.seed}")
        n_transform, n_classify, n_compose, n_builtin, n_scenario, n_bad = \
            (2, 2, 1, 1, 1, 2) if self.trace_size else (5, 5, 3, 1, 2, 2)
        plan = [self._transform(rng) for _ in range(n_transform)]
        plan += [self._classify(rng) for _ in range(n_classify)]
        plan += [self._compose(rng) for _ in range(n_compose)]
        plan += [self._builtin(rng.choice(gen.BUILTINS), i) for i in range(n_builtin)]
        plan += [self._scenario(rng, i) for i in range(n_scenario)]
        plan += [self._malformed(rng, i) for i in range(n_bad)]
        rng.shuffle(plan)
        # a bare interpreter before every second command
        self.plan = []
        for i, inv in enumerate(plan):
            if i % 2 == 0:
                self.plan.append(Invocation("bare", []))
            self.plan.append(inv)
        # warm-up; the passes count whatever fails
        for argv in ([sys.executable, "-c", "pass"],
                     [sys.executable, "-m", "bilorentz.cli", "classify", "--vec=2,1"]):
            run_child(argv, self.env, self.tmp)

    def _transform(self, rng) -> Invocation:
        spec = gen.draw_spec(rng)
        d = gen.draw_displacement(rng)
        vel = "infinity" if math.isinf(spec.vel) else repr(spec.vel)
        want, scale = ref.apply(ref.matrix(spec), d)

        def check(out: str) -> str | None:
            try:
                got = [float(x) for x in out.strip().split(",")]
            except ValueError:
                return "stdout"
            if len(got) != 2 or not all(ref.close(g, w, scale, 1e-11) for g, w in zip(got, want)):
                return "apply"
            return None
        return Invocation("transform", ["transform", "--branch", spec.branch,
                                        f"--tau={spec.tau}", f"--k={spec.k!r}", f"--vel={vel}",
                                        f"--vec={d[0]!r},{d[1]!r}"], check=check)

    def _classify(self, rng) -> Invocation:
        c1, c2 = gen.draw_displacement(rng)
        swapped = rng.random() < 0.3
        want = ref.exact_class(c1, c2, swapped)
        s2 = ref.exact_interval(c1, c2, swapped)
        speed = math.inf if c1 == 0.0 else abs(c2 / c1)

        def check(out: str) -> str | None:
            fields = dict(line.split(": ", 1) for line in out.strip().splitlines()
                          if ": " in line)
            try:
                got_speed = float(fields["coord_speed"])
                got_s2 = float(fields["interval_sq"])
                superluminal = fields["coord_superluminal"]
                got = fields["causal_class"]
            except (KeyError, ValueError):
                return "stdout"
            if got_speed != speed or superluminal != ("true" if speed > 1.0 else "false"):
                return "coord_speed"
            if abs(got_s2 - s2) > 4 * ref.EPS * (c1 * c1 + c2 * c2):
                return "interval"
            return ref.class_failure(got, want, got_s2, c1 * c1 + c2 * c2)
        return Invocation("classify", ["classify", f"--vec={c1!r},{c2!r}", "--metric",
                                       "swapped" if swapped else "standard"], check=check)

    def _compose(self, rng) -> Invocation:
        a, b = gen.draw_compose_pair(rng)
        r = ref.ComposeRef(a, b)

        def check(out: str) -> str | None:
            lines = out.strip().splitlines()
            try:
                rows = [tuple(float(x) for x in lines[i].split(": ")[1].split()) for i in (0, 1)]
            except (IndexError, ValueError):
                return "stdout"
            if not r.product_matches(rows, 1e-12):
                return "compose"
            fit = lines[2] if len(lines) > 2 else ""
            if fit.startswith("fit: none"):
                return r.fit_failure(None, rows)
            try:
                fields = dict(kv.split("=") for kv in fit[len("fit: "):].split())
                fitted = (fields["branch"], int(fields["tau"]), float(fields["k"]),
                          float(fields["vel"]))
            except (KeyError, ValueError):
                return "stdout"
            return r.fit_failure(fitted, rows)
        return Invocation("compose", ["compose", a.cli_text(), b.cli_text()], check=check)

    def _builtin(self, name: str, i: int) -> Invocation:
        golden = tuple((GOLDEN / f"{name}-{side}.svg").read_bytes()
                       for side in ("original", "transformed"))
        prefix = self.tmp / f"builtin-{i}"

        def check(out: str) -> str | None:
            paths = ref.parse_wrote(out)
            if paths is None:
                return "stdout"
            if tuple(Path(p).read_bytes() for p in paths) != golden:
                return "golden"
            return None
        return Invocation("diagram", ["diagram", "--builtin", name, "--out", str(prefix)],
                          check=check)

    def _scenario(self, rng, i: int) -> Invocation:
        data = gen.scenario_dict(rng, f"cli-{i}", ref.apply_spec, self.seed + i)
        path = self.tmp / f"cli-scenario-{i}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        r = ref.ScenarioRef(data, spec_of(data))
        prefix = self.tmp / f"cli-scenario-{i}"

        def check(out: str) -> str | None:
            paths = ref.parse_wrote(out)
            if paths is None:
                return "stdout"
            return "diagram" if r.check(tuple(Path(p).read_text(encoding="utf-8")
                                              for p in paths)) else None
        return Invocation("diagram", ["diagram", "--scenario", str(path), "--out", str(prefix)],
                          check=check)

    def _malformed(self, rng, i: int) -> Invocation:
        """An input the CLI must refuse with exit code 2."""
        bad = self.tmp / f"bad-scenario-{i}.json"
        bad.write_text('{"name": "x", "colour": 1}', encoding="utf-8")
        spec = gen.draw_reject(rng)
        vel = "infinity" if math.isinf(spec.vel) else repr(spec.vel)
        choices = (
            ["transform", "--branch", spec.branch, f"--tau={spec.tau}", f"--k={spec.k!r}",
             f"--vel={vel}", "--vec=1,0"],
            ["classify", "--vec=1,2,3"],
            ["classify", "--vec=nan,1"],
            ["compose", "x,1,1,0.5", "lambda,1,1,0.5"],
            ["transform", "--branch", "lambda", "--tau", "2", "--k", "1", "--vel", "0.5",
             "--vec=1,0"],
            ["diagram", "--scenario", str(bad), "--out", str(self.tmp / "never")],
            ["diagram", "--scenario", str(self.tmp / "missing.json"), "--out",
             str(self.tmp / "never")],
        )
        argv = choices[rng.randrange(len(choices))]
        return Invocation(argv[0], argv, exit_code=2, check=lambda out: "stdout" if out else None)

    def _layers(self, res: PassResult) -> dict[str, float]:
        tally = res.tally
        out = {name: statistics.median(xs) for name, xs in self.layer_samples.items()
               if name.startswith(("import.", "cli."))}
        out["import.interp_ms"] = statistics.median(res.extra_ns) / 1e6
        out["cli.exit_unexpected"] = tally.kinds["exit_unexpected"]
        out["cli.stdout_mismatch"] = tally.failed - tally.kinds["exit_unexpected"]
        return out


class VerifyFuzz(Subprocess):
    TRIALS = 1_000_000

    def setup(self) -> None:
        seeds = [1000 * self.seed + j for j in range(3)]
        if self.trace_size:
            plan = [(100_000, s) for s in seeds] + [(self.TRIALS, s) for s in seeds[:2]]
        else:
            plan = [(self.TRIALS, s) for s in seeds]
        self.plan = []
        for i, (trials, s) in enumerate(plan):
            if i % 2 == 0:
                self.plan.append(Invocation("bare", []))
            self.plan.append(Invocation("verify", ["verify", "--trials", str(trials),
                                                   "--seed", str(s)], check=check_verify))
        # warm-up; the passes count whatever fails
        run_child([sys.executable, "-m", "bilorentz.cli", "verify", "--trials", "100000"],
                  self.env, self.tmp)

    def _layers(self, res: PassResult) -> dict[str, float]:
        out = {name: statistics.median(xs) for name, xs in self.layer_samples.items()
               if name.startswith("verify.") or name == "cli.verify_ms"}
        out["verify.array_bytes_computed"] = array_bytes_computed(self.TRIALS)
        out["verify.checks_failed"] = res.tally.kinds["verify_fail"]
        return out


VERIFY_CHECKS = 13


def check_verify(out: str) -> str | None:
    lines = out.strip().splitlines()
    passed = sum(line.endswith(" PASS") for line in lines)
    if passed != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS + 2:
        return "verify_fail"
    return None


def array_bytes_computed(trials: int) -> int:
    """Bytes of float64 arrays the four fuzz checks allocate at this trial
    count, counted from their source rather than measured: per sample,
    interval_invariance 3 + 10 * 4 values, light_cone_preservation 3 + 5 * 2,
    causal_class_absoluteness 4 + 5 * 4 and measured_speed_bound 1 + 5 * 2."""
    return 8 * trials * ((3 + 10 * 4) + (3 + 5 * 2) + (4 + 5 * 4) + (1 + 5 * 2))
