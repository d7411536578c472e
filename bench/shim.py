"""Traced stand-in for ``python -m bilorentz.cli``, used by the traced runs.

Usage: python [-X importtime] bench/shim.py SPANS_PATH CLI_ARG...

Does what ``bilorentz.cli.main`` does, with a span around the package
import, ``build_parser``/``parse_args`` and ``args.func``.  For ``verify``
it first runs every ``verify.check_*`` in ``run_verification``'s order
with the same rng, one span each, then ``args.func``, and exits with
WRONG_REPORT unless its own report equals the one ``run_verification``
returned inside ``args.func``.  Spans and counts go to SPANS_PATH as JSON.
"""

import sys
from time import perf_counter_ns

WRONG_REPORT = 97
_spans = []
_counts = {}


def _span(name, start, parent=-1):
    _spans.append([name, start, perf_counter_ns(), parent, 0])
    return len(_spans) - 1


def _own_report(verify, trials, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    grid = (verify.check_gamma_parity, verify.check_k_recovery,
            verify.check_determinant_law, verify.check_swap_decomposition,
            verify.check_inverse_law, verify.check_parity_forcing,
            verify.check_parity_violation_antisymmetric,
            verify.check_composition_closure)
    fuzz = (verify.check_interval_invariance, verify.check_light_cone_preservation,
            verify.check_causal_class_absoluteness, verify.check_measured_speed_bound)
    results = []
    for check in grid + fuzz + (verify.check_divergence_witness,):
        t = perf_counter_ns()
        result = check(rng, trials) if check in fuzz else check()
        kind = "fuzz" if check in fuzz else "grid"
        _spans.append([f"verify.{kind}.{result.name}", t, perf_counter_ns(), -1, 0])
        results.append(result)
    report = verify.VerificationReport(seed=seed, trials=trials, checks=tuple(results))
    t = perf_counter_ns()
    verify.format_report(report)
    _span("verify.format_report", t)
    return report


def main(argv):
    before = len(sys.modules)
    t = perf_counter_ns()
    import bilorentz.cli as cli
    _span("import", t)
    _counts["import.modules"] = len(sys.modules) - before

    t = perf_counter_ns()
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        _span("cli.parse", t)
        return exc.code
    _span("cli.parse", t)

    captured = []
    if args.command == "verify":
        own = _own_report(cli.verify, args.trials, args.seed)
        run = cli.verify.run_verification

        def capture(*a, **kw):
            captured.append(run(*a, **kw))
            return captured[-1]
        cli.verify.run_verification = capture

    t = perf_counter_ns()
    try:
        code = args.func(args)
    except (cli.EmptyWindowError, cli.OutOfWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = cli.EXIT_RENDER_DEGENERATE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = cli.EXIT_INPUT_ERROR
    _span(f"cli.{args.command}", t)

    if args.command == "verify" and captured != [own]:
        print("error: shim report differs from run_verification's", file=sys.stderr)
        code = WRONG_REPORT
    return code


if __name__ == "__main__":
    code = main(sys.argv[2:])
    sys.stdout.flush()
    import json

    with open(sys.argv[1], "w", encoding="utf-8") as f:
        json.dump({"spans": _spans, "counts": _counts}, f)
    sys.exit(code)
