"""Import cost: each command loads only what it uses.

Most CLI calls do microseconds of scalar 2x2 arithmetic, so the package
import is nearly all of their run time. These modules must therefore stay
out of ``import bilorentz.cli``:

* ``numpy`` and ``bilorentz.verify``: only the ``verify`` command needs the
  array maths, and numpy alone costs more than the rest of the package. The
  package root and ``cli`` load ``verify`` on first use instead.
* ``xml.sax.saxutils`` and ``urllib.request``: ``saxutils`` imports
  ``urllib.request``, which pulls in ``http.client``, ``email`` and ``ssl``,
  only to escape three characters; ``diagram.escape`` does that itself.
"""

import json
import os
import subprocess
import sys
import xml.sax.saxutils
from pathlib import Path

import pytest

import bilorentz
from bilorentz import core, diagram, scenario_io, worldlines

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("numpy", "bilorentz.verify", "xml.sax.saxutils", "urllib.request")

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


def test_cli_import_leaves_out_numpy_and_xml_sax():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    # Reading __all__ happens before the leak test: it must load nothing either.
    assert json.loads(out) == {"leaked": [], "root": True, "cli": True, "star": True}


def test_all_is_sorted_without_duplicates():
    assert bilorentz.__all__ == sorted(set(bilorentz.__all__))


def test_every_eager_name_is_an_object_of_the_package():
    # __all__ is read off the globals of __init__, so a stray import there would be public.
    modules = (core, diagram, scenario_io, worldlines)
    for name in set(bilorentz.__all__) - bilorentz._VERIFY_NAMES:
        value = getattr(bilorentz, name)
        assert any(vars(module).get(name) is value for module in modules), name
        assert getattr(value, "__module__", "bilorentz.").startswith("bilorentz."), name


@pytest.mark.parametrize("text", [
    "", "plain", "a & b", "<title>", "x > y < z", "&amp; stays escaped once",
    "\"quoted\" and 'single'", "ξ₁ → η₂ & <ü>", "&<>&<>",
])
def test_escape_matches_saxutils(text):
    assert diagram.escape(text) == xml.sax.saxutils.escape(text)
