"""One sha256 per ``src`` folder over the bytes the scenario path writes.

For each folder a fresh ``python`` imports the package from that folder.  Its
inputs are the ``scenario_render`` benchmark's: ``bench/gen.py``'s
``scenario_dicts`` of seeds 9001 to 9006, ``ScenarioRender.SIZE`` each, plus
the three built-in scenarios.  Each input is parsed, saved with
``save_scenario`` and loaded back; then ``render_pair`` draws it at 2, 6 and 9
decimals and annotates its events as the benchmark's op does, the transformed
document's events mapped through ``core.apply``.  The hash runs over the saved
bytes and both documents' SVG text.  An input the library refuses adds its
exception's type and message instead, so the refusals are compared too.  Two
folders that print one hash wrote the same bytes for every input.

Run with ``python tools/digest.py [SRC ...]``; SRC defaults to this checkout's
``src``.  It prints ``<sha256>  <src>`` per folder.  It reads ``bench/`` and
changes nothing there; the scenario files go to a temporary folder.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import ab

BENCH = Path(__file__).resolve().parent.parent / "bench"
TOOLS = Path(__file__).resolve().parent
SEEDS = range(9001, 9007)
DECIMALS = (2, 6, 9)
CHILD = """\
import sys
from pathlib import Path
import bilorentz
import digest
from workloads import ScenarioRender
print(digest.digest(bilorentz, digest.SEEDS, ScenarioRender.SIZE, Path(sys.argv[1])))
"""


def _refusal(exc: Exception) -> bytes:
    return f"{type(exc).__name__}: {exc}".encode()


def digest(lib, seeds, size: int, tmp: Path) -> str:
    """The sha256 of ``size`` inputs per seed plus the built-ins, drawn by ``lib``."""
    import gen          # bench/ is on the path of the child and of the tests only
    import reference

    inputs = [data for seed in seeds
              for data in gen.scenario_dicts(seed, size, reference.apply_spec)]
    inputs += [lib.scenario_to_dict(getattr(lib, f"build_{name}_scenario")())
               for name in gen.BUILTINS]
    styles = [lib.DiagramStyle(decimal_places=places) for places in DECIMALS]
    path = tmp / "scenario.json"
    h = hashlib.sha256()
    for data in inputs:
        try:
            lib.save_scenario(lib.scenario_from_dict(data), path)
            h.update(path.read_bytes())
            s = lib.load_scenario(path)
        except Exception as exc:        # a refusal is part of what is compared
            h.update(_refusal(exc))
            continue
        moved_events = tuple((lib.apply(s.transform, at), label) for at, label in s.events)
        for style in styles:
            try:
                original, moved = lib.render_pair(s, style)
                if s.events:
                    original = lib.annotate_events(original, s.events)
                    moved = lib.annotate_events(moved, moved_events)
                h.update(original.to_svg().encode())
                h.update(moved.to_svg().encode())
            except Exception as exc:
                h.update(_refusal(exc))
    return h.hexdigest()


def folder_digest(src, tmp) -> str:
    """``digest`` of the full inputs, from a fresh process that imports from ``src``."""
    done = subprocess.run([sys.executable, "-c", CHILD, tmp], env=ab.env(src, BENCH, TOOLS),
                          cwd=tmp, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(ab.SRC)])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for src in args.src:
            print(f"{folder_digest(src, tmp)}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
