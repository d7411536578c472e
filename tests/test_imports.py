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

import inspect
import json
import os
import subprocess
import sys
import xml.sax.saxutils
from pathlib import Path

import pytest

import bilorentz
from bilorentz import diagram

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("numpy", "bilorentz.verify", "xml.sax.saxutils", "urllib.request")

_PROBE = f"""
import json, sys
import bilorentz.cli
leaked = [m for m in {FORBIDDEN!r} if m in sys.modules]
import bilorentz
namespace = {{}}
exec("from bilorentz import *", namespace)
print(json.dumps({{
    "leaked": leaked,
    "root": bilorentz.run_verification is bilorentz.verify.run_verification
            and bilorentz.CheckResult is bilorentz.verify.CheckResult,
    "cli": bilorentz.cli.verify is bilorentz.verify,
    "star": sorted(set(bilorentz.__all__) - set(namespace)),
}}))
"""


def test_cli_import_leaves_out_numpy_and_xml_sax():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert json.loads(out) == {"leaked": [], "root": True, "cli": True, "star": []}


def test_all_lists_exactly_the_public_names():
    # __init__ keeps the name list twice, in its imports and in __all__; they must agree.
    public = {name for name, value in vars(bilorentz).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    lazy = {"CheckResult", "VerificationReport", "format_report", "run_verification"}
    assert len(bilorentz.__all__) == len(set(bilorentz.__all__))
    assert set(bilorentz.__all__) == public | lazy


@pytest.mark.parametrize("text", [
    "", "plain", "a & b", "<title>", "x > y < z", "&amp; stays escaped once",
    "\"quoted\" and 'single'", "ξ₁ → η₂ & <ü>", "&<>&<>",
])
def test_escape_matches_saxutils(text):
    assert diagram.escape(text) == xml.sax.saxutils.escape(text)
