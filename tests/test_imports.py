"""Import cost: each command loads only what it uses.

Most CLI calls do microseconds of scalar 2x2 arithmetic, so the package
import is nearly all of their run time. ``import bilorentz`` loads ``core``
alone; every other public name is served on first use from one table in
``__init__`` (``_LAZY``, submodule to names), and ``cli`` imports the
renderer inside the ``diagram`` command. So ``transform``, ``classify`` and
``compose`` load ``bilorentz``, ``bilorentz.core`` and ``bilorentz.cli`` and
nothing else of the package, and ``verify`` adds ``bilorentz.verify``.

These modules must stay out of ``import bilorentz.cli`` in any case:

* ``numpy`` and ``bilorentz.verify``: only the ``verify`` command needs the
  array maths, and numpy alone costs more than the rest of the package.
* ``xml.sax.saxutils`` and ``urllib.request``: ``saxutils`` imports
  ``urllib.request``, which pulls in ``http.client``, ``email`` and ``ssl``,
  only to escape three characters; ``diagram.escape`` does that itself.
* ``dataclasses``, ``inspect`` and ``__future__``: ``dataclasses`` imports
  ``inspect``, which pulls in ``ast``, ``dis`` and ``tokenize``, and each
  decorated class ``exec``s generated methods; together that was over half
  of ``import bilorentz.cli``.  ``core`` and ``cli``, on every command's path,
  evaluate their annotations without ``from __future__ import annotations``.

No module of the package imports ``dataclasses``: every value type, in
``core``, ``worldlines``, ``diagram`` and ``verify`` alike, is a plain slotted
class on ``core._Value``.  So the ``diagram`` command loads neither
``dataclasses`` nor ``inspect``, and ``verify`` loads no more of them than
``import numpy`` does.
"""

import json
import os
import subprocess
import sys
import xml.sax.saxutils
from pathlib import Path

import pytest

import bilorentz
from bilorentz import diagram
from bilorentz.scenario_io import save_scenario
from bilorentz.worldlines import build_fig4_scenario

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("numpy", "bilorentz.verify", "xml.sax.saxutils", "urllib.request",
             "dataclasses", "inspect", "__future__")

_PROBE = f"""
import json, sys
import bilorentz.cli
public = bilorentz.__all__
leaked = [m for m in {FORBIDDEN!r} if m in sys.modules]
namespace = {{}}
exec("from bilorentz import *", namespace)
print(json.dumps({{
    "leaked": leaked,
    "root": bilorentz.run_verification is bilorentz.verify.run_verification
            and bilorentz.CheckResult is bilorentz.verify.CheckResult,
    "cli": bilorentz.cli.verify is bilorentz.verify,
    "star": sorted(set(namespace) - {{"__builtins__"}}) == public,
}}))
"""


def _run(code, *argv):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_leaves_out_numpy_and_xml_sax():
    # Reading __all__ happens before the leak test: it must load nothing either.
    assert _run(_PROBE) == {"leaked": [], "root": True, "cli": True, "star": True}


_RUN_MAIN = """
import contextlib, io, json, sys
from bilorentz.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "bilorentz")]))
"""

CORE_ONLY = {"bilorentz", "bilorentz.cli", "bilorentz.core"}


@pytest.mark.parametrize("argv, loaded", [
    pytest.param(["transform", "--branch", "l", "--tau", "-1", "--k", "1", "--vel", "2",
                  "--vec=2,1"], CORE_ONLY, id="transform"),
    pytest.param(["classify", "--vec=2,1"], CORE_ONLY, id="classify"),
    pytest.param(["compose", "l,-1,1,2", "lambda,1,1,0.5"], CORE_ONLY, id="compose"),
    pytest.param(["verify", "--trials", "1000"], CORE_ONLY | {"bilorentz.verify"}, id="verify"),
])
def test_each_command_loads_only_what_it_uses(argv, loaded):
    assert _run(_RUN_MAIN, *argv) == [0, sorted(loaded)]


HEAVY = ("dataclasses", "inspect")

#: Runs ``cli.main`` on its arguments, or with none only imports numpy, and prints
#: the exit code and which modules of HEAVY are loaded.
_HEAVY_LOADED = f"""
import contextlib, io, json, sys
code = 0
if sys.argv[1:]:
    from bilorentz.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
else:
    import numpy
print(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


@pytest.mark.parametrize("command", ["diagram --builtin", "diagram --scenario", "verify"])
def test_diagram_and_verify_load_no_dataclasses(command, tmp_path):
    scenario = tmp_path / "fig4.json"
    save_scenario(build_fig4_scenario(), scenario)
    argv = {
        "diagram --builtin": ["diagram", "--builtin", "fig2", "--out", str(tmp_path / "a")],
        "diagram --scenario": ["diagram", "--scenario", str(scenario),
                               "--out", str(tmp_path / "b")],
        "verify": ["verify", "--trials", "1000"],
    }[command]
    # numpy 2 imports inspect itself; verify may load only what numpy does.
    allowed = _run(_HEAVY_LOADED)[1] if command == "verify" else []
    assert "dataclasses" not in allowed
    assert _run(_HEAVY_LOADED, *argv) == [0, allowed]


_FIRST_ACCESS = """
import json, sys
import bilorentz
first = sys.argv[1]
order = [first] + sorted(set(bilorentz._LAZY) - {first})
modules = [getattr(bilorentz, name) is sys.modules["bilorentz." + name] for name in order]
# A lazily served name is the module's own object, and afterwards a plain global.
names = [getattr(bilorentz, name) is getattr(sys.modules["bilorentz." + module], name)
         and name in vars(bilorentz)
         for module in order for name in bilorentz._LAZY[module]]
print(json.dumps([all(modules), all(names)]))
"""


@pytest.mark.parametrize("first", sorted(bilorentz._LAZY))
def test_lazy_submodules_resolve_whichever_comes_first(first):
    assert _run(_FIRST_ACCESS, first) == [True, True]


def test_all_is_sorted_without_duplicates():
    assert bilorentz.__all__ == sorted(set(bilorentz.__all__))


def test_every_public_name_is_an_object_of_its_module():
    # __all__ is read off the globals of __init__, so a stray import there would be public.
    owner = {name: module for module, names in bilorentz._LAZY.items() for name in names}
    for name in bilorentz.__all__:
        value = getattr(bilorentz, name)
        assert vars(getattr(bilorentz, owner.get(name, "core"))).get(name) is value, name
        assert getattr(value, "__module__", "bilorentz.").startswith("bilorentz."), name


@pytest.mark.parametrize("text", [
    "", "plain", "a & b", "<title>", "x > y < z", "&amp; stays escaped once",
    "\"quoted\" and 'single'", "ξ₁ → η₂ & <ü>", "&<>&<>",
])
def test_escape_matches_saxutils(text):
    assert diagram.escape(text) == xml.sax.saxutils.escape(text)
