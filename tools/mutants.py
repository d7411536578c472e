"""Mutation score of src/bilorentz/core.py against ``bilorentz verify``.

Every single operator site of core.py becomes one mutant:

* ``+`` <-> ``-`` and ``*`` <-> ``/`` in a binary operation, and ``+=`` <-> ``-=``
  and ``*=`` <-> ``/=`` in an augmented assignment,
* ``<`` <-> ``<=``, ``>`` <-> ``>=`` and ``==`` <-> ``!=`` in a comparison,
* a unary minus dropped.

Each mutant is written into a temporary copy of ``src/`` (the working tree is
never touched) and run as ``python -m bilorentz.cli verify --trials 100000
--seed 0`` in a fresh process.  That is seven blocks per fuzz check, so on 2
or more CPUs the run forks its peer process and goes through the two-process
fold of ``verify._map_blocks``.  A mutant is killed when that run exits
non-zero.  The script prints the count per exit code, killed/total, and then
every surviving site as ``line function: before -> after``.

Run with ``python tools/mutants.py``.  It uses only the standard library plus
what ``bilorentz verify`` itself needs, and took 35-48 s for the 127 mutants
of core.py on a shared 2-core host.  It starts one process at a time,
because each ``verify`` run already spreads its fuzz blocks over up to two
CPUs.  It is not part of the test suite.
"""

from __future__ import annotations

import ast
import collections
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import ab

TARGET = Path("bilorentz") / "core.py"
VERIFY = ("-m", "bilorentz.cli", "verify", "--trials", "100000", "--seed", "0")
TIMEOUT_S = 300

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}


def _sites(tree: ast.AST) -> list:
    """(node, slot) per mutation site in a fixed walk order; slot is the index of
    the operator in a comparison chain, or None for a binary, augmented or unary
    operation."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, None))
        elif isinstance(node, ast.Compare):
            found.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append((node, None))
    return found


def _functions(tree: ast.AST) -> dict:
    """Name of the innermost def or class around each node, by node id."""
    owner = {}

    def visit(node, name):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        owner[id(node)] = name
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(tree, "<module>")
    return owner


class _DropUnary(ast.NodeTransformer):
    """Replace one unary-minus node by its operand."""

    def __init__(self, node: ast.UnaryOp):
        self.node = node

    def visit_UnaryOp(self, node):
        return node.operand if node is self.node else self.generic_visit(node)


def mutant(source: str, index: int) -> tuple[str, str]:
    """Source with site ``index`` mutated, and a ``line function: before -> after`` label."""
    tree = ast.parse(source)
    node, slot = _sites(tree)[index]
    where = f"{node.lineno} {_functions(tree)[id(node)]}"
    before = ast.unparse(node)
    if isinstance(node, ast.UnaryOp):
        after = ast.unparse(node.operand)
        tree = _DropUnary(node).visit(tree)
    else:
        if slot is None:
            node.op = SWAPS[type(node.op)]()
        else:
            node.ops[slot] = SWAPS[type(node.ops[slot])]()
        after = ast.unparse(node)
    return ast.unparse(tree), f"{where}: {before} -> {after}"


def run() -> int:
    source = (ab.SRC / TARGET).read_text(encoding="utf-8")
    total = len(_sites(ast.parse(source)))
    by_exit = collections.Counter()
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ab.SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        env = ab.env(copy)

        def verify() -> int | str:
            try:
                return subprocess.run([sys.executable, *VERIFY], cwd=tmp, env=env,
                                      capture_output=True, timeout=TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                return "timeout"

        if verify() != 0:
            print("verify fails on the unmutated source; no score", file=sys.stderr)
            return 1
        for i in range(total):
            text, label = mutant(source, i)
            (copy / TARGET).write_text(text, encoding="utf-8")
            code = verify()
            by_exit[code] += 1
            if code == 0:
                survivors.append(label)
    print(f"{total} mutants of {TARGET.as_posix()}, verify {' '.join(VERIFY[4:])}")
    for code in sorted(by_exit, key=str):
        print(f"exit {code}: {by_exit[code]}")
    print(f"killed: {total - len(survivors)}/{total}")
    print("surviving:")
    for label in sorted(survivors, key=lambda s: int(s.split()[0])):
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
