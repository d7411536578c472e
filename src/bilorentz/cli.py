"""Command-line interface: transform, classify, compose, verify, diagram.

Exit codes: 0 success, 1 identity verification failure, 2 input error (and
``verify`` without numpy, the ``verify`` extra), 3 degenerate rendering (empty
window / out-of-window event).  Every error path prints a single ``error: ...``
line to stderr.

``run()`` is the entry point of a ``bilorentz`` process: the installed script
and ``python -m bilorentz.cli``.  ``main()`` returns the exit code, for callers
that go on afterwards.  ``run()`` sets OPENBLAS_NUM_THREADS to 1, since no
command calls BLAS, so that numpy's import in ``verify`` starts no thread and
the peer is forked from a single-threaded process.  Once the output is flushed
it ends the process by ``os._exit``: the interpreter's teardown would only free
memory the process is about to give back.  It leaves by ``sys.exit`` instead
when a flush fails, so that the interpreter reports the failure as before, and
under a tracer or profiler, so that it can report.
"""

import argparse
import os
import sys

from .core import (
    STANDARD_METRIC,
    SWAPPED_METRIC,
    NotDecomposableError,
    Transform,
    TwoVector,
    apply,
    classify_geometric,
    compose,
    make_transform,
    refit,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RENDER_DEGENERATE = 3

#: Each name has a ``worldlines.build_<name>_scenario``.
_BUILTIN_SCENARIOS = ("fig2", "fig3", "fig4")


def _parse_vec(text: str) -> TwoVector:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return TwoVector(float(parts[0]), float(parts[1]))


def _parse_transform_spec(spec: str) -> Transform:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(f"transform spec must be branch,tau,k,vel, got {spec!r}")
    return make_transform(parts[0].strip(), int(parts[1]), float(parts[2]), float(parts[3]))


def _cmd_transform(args) -> int:
    t = make_transform(args.branch, args.tau, args.k, float(args.vel))
    r = apply(t, _parse_vec(args.vec))
    print(f"{r.c1!r},{r.c2!r}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    metric = STANDARD_METRIC if args.metric == "standard" else SWAPPED_METRIC
    report = classify_geometric(_parse_vec(args.vec), metric)
    print(f"coord_speed: {report.coord_speed.value!r}")
    print(f"coord_superluminal: {'true' if report.coord_superluminal else 'false'}")
    print(f"interval_sq: {report.interval_sq!r}")
    print(f"causal_class: {report.causal_class.value}")
    return EXIT_OK


def _cmd_compose(args) -> int:
    product = compose(_parse_transform_spec(args.first),
                      _parse_transform_spec(args.second))
    (a, b), (c, d) = product.m
    print(f"row1: {a!r} {b!r}")
    print(f"row2: {c!r} {d!r}")
    try:
        fitted = refit(product, k=1.0)
        print(f"fit: branch={fitted.branch.value} tau={fitted.tau} "
              f"k={fitted.k!r} vel={fitted.vel!r}")
    except NotDecomposableError:
        print("fit: none (no k=1 family form matches)")
    return EXIT_OK


def __getattr__(name):
    # ``verify`` imports numpy and ``diagram`` the renderer, so only the command
    # that uses each loads it.  ``cli.verify`` and the two render errors stay
    # reachable here, through the package, for callers that read or patch them.
    if name in ("verify", "EmptyWindowError", "OutOfWindowError"):
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_verify(args) -> int:
    try:
        from . import verify
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print("error: verify needs numpy: pip install 'bilorentz[verify]'", file=sys.stderr)
        return EXIT_INPUT_ERROR

    report = verify.run_verification(trials=args.trials, seed=args.seed)
    print(verify.format_report(report))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_diagram(args) -> int:
    from pathlib import Path

    from . import worldlines
    from .diagram import (DiagramStyle, EmptyWindowError, OutOfWindowError, annotate_events,
                          render_pair)
    from .scenario_io import load_scenario

    if args.builtin is not None:
        scenario = getattr(worldlines, f"build_{args.builtin}_scenario")()
    else:
        scenario = load_scenario(args.scenario)
    # DiagramStyle owns the defaults: pass on only the sizes that were given.
    given = (("width_px", args.width), ("height_px", args.height),
             ("decimal_places", args.decimals))
    style = DiagramStyle(**{field: value for field, value in given if value is not None})
    try:
        original, transformed = render_pair(scenario, style)
        if scenario.events:
            original = annotate_events(original, scenario.events)
            moved = tuple((apply(scenario.transform, at), label)
                          for at, label in scenario.events)
            transformed = annotate_events(transformed, moved)
    except (EmptyWindowError, OutOfWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RENDER_DEGENERATE
    # Both documents are encoded before either file is opened: a label that cannot be
    # encoded (a lone surrogate) leaves both targets as they were.
    texts = original.to_svg().encode("utf-8"), transformed.to_svg().encode("utf-8")
    out_original = Path(f"{args.out}-original.svg")
    out_transformed = Path(f"{args.out}-transformed.svg")
    out_original.write_bytes(texts[0])
    out_transformed.write_bytes(texts[1])
    print(f"wrote {out_original} and {out_transformed}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilorentz",
        description="Generalized 1+1D boost transformations: apply, classify, "
                    "verify identities, and draw Minkowski diagram pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a family transform to a vector")
    p.add_argument("--branch", choices=("lambda", "l"), required=True)
    p.add_argument("--tau", type=int, choices=(1, -1), required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--vel", required=True,
                   help='velocity in units of c, or "infinity" (lambda, k<0 only); '
                        'accepted spellings: see bilorentz.make_transform')
    p.add_argument("--vec", required=True, help="vector as c1,c2 (use --vec=-1,2 for negatives)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("classify", help="classify a displacement")
    p.add_argument("--vec", required=True, help="displacement as c1,c2")
    p.add_argument("--metric", choices=("standard", "swapped"), default="standard",
                   help="standard = diag(1,-1), swapped = diag(-1,1)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compose", help="multiply two family transforms")
    p.add_argument("first", help="transform spec branch,tau,k,vel")
    p.add_argument("second", help="transform spec branch,tau,k,vel")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("verify", help="check all transformation identities")
    p.add_argument("--trials", type=int, default=100_000,
                   help="fuzz population size (default 100000)")
    p.add_argument("--seed", type=int, default=0, help="fuzz seed (default 0)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("diagram", help="render a scenario to an SVG pair")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", choices=_BUILTIN_SCENARIOS)
    source.add_argument("--scenario", help="path to a scenario JSON file")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--decimals", type=int)
    p.set_defaults(func=_cmd_diagram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        # An input too large for this machine (verify --trials) is an input
        # error, not a failed identity.
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run():
    """Run main() on sys.argv and end the process with its exit code (see the
    module docstring)."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"     # before verify imports numpy
    code = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:
            pass        # the teardown flushes again and reports the failure as before
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
