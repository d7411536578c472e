"""Rules the package source must keep."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bilorentz").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_runtime_check_uses_assert(path):
    # python -O strips assert statements, so a check written as one vanishes.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}; raise an exception instead"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_a_tol_parameter(path):
    # Tolerances are module constants in core, not per-call knobs.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.arg)
             and node.arg == "tol"]
    assert found == [], f"{path.name}: parameter tol at lines {found}"


def test_verify_folds_residuals_only_with_worst():
    # The builtin max and min drop a NaN that follows a number; _worst keeps it.
    path = next(p for p in SOURCES if p.name == "verify.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in ("max", "min")]
    assert found == [], f"verify.py: builtin max/min at lines {found}"


def test_verify_slices_fuzz_populations_only_in_map_blocks():
    # _map_blocks shares the blocks with the peer process and folds their results in
    # block order; a check that slices by _BLOCK itself would run serially, and one
    # with its own pool could fold in another order.  _blocks is the one block plan:
    # _map_blocks maps over it, _with_peer forks by it and run_verification refuses by it.
    path = next(p for p in SOURCES if p.name == "verify.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {node: top.name for top in tree.body if isinstance(top, ast.FunctionDef)
             for node in ast.walk(top)}

    def readers(name):
        return [(owner.get(node), node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)]

    assert {name for name, _ in readers("_BLOCK")} == {"_blocks"}, \
        f"verify.py: _BLOCK read outside _blocks: {readers('_BLOCK')}"
    assert {name for name, _ in readers("_blocks")} == \
        {"_map_blocks", "_with_peer", "run_verification"}, \
        f"verify.py: _blocks used by {readers('_blocks')}"


def _is_os_call(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and getattr(node.func.value, "id", None) == "os")


def test_verify_forks_in_one_place_and_the_peer_leaves_by_os_exit():
    # A peer that returned into its caller's stack would run the rest of the caller's
    # program a second time; one that raised would print its traceback and run the
    # atexit handlers.  Its whole branch is one try whose finally ends in os._exit.
    path = next(p for p in SOURCES if p.name == "verify.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    forks = [node for node in ast.walk(tree) if _is_os_call(node, "fork")]
    assert len(forks) == 1, f"verify.py: os.fork at lines {[n.lineno for n in forks]}"
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    assign = parent[forks[0]]
    assert isinstance(assign, ast.Assign) and len(assign.targets) == 1, "os.fork() not assigned"
    pid = assign.targets[0].id
    body = parent[assign].body
    branch = body[body.index(assign) + 1]
    assert (isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare)
            and getattr(branch.test.left, "id", None) == pid
            and isinstance(branch.test.ops[0], ast.Eq)
            and getattr(branch.test.comparators[0], "value", None) == 0), \
        f"verify.py:{branch.lineno}: the statement after os.fork() is not `if {pid} == 0:`"
    peer = branch.body
    assert (len(peer) == 1 and isinstance(peer[0], ast.Try) and peer[0].finalbody
            and isinstance(peer[0].finalbody[-1], ast.Expr)
            and _is_os_call(peer[0].finalbody[-1].value, "_exit")), \
        f"verify.py:{branch.lineno}: the peer's branch is not one try ending in finally: os._exit"


def _ends_the_process(node):
    if _is_os_call(node, "_exit") or _is_os_call(node, "abort"):
        return True
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "exit" \
            and getattr(node.func.value, "id", None) == "sys":
        return True
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exit", "quit"):
        return True
    return isinstance(node, ast.Raise) and node.exc is not None and "SystemExit" in {
        getattr(n, "id", None) for n in ast.walk(node.exc)}


def test_only_cli_run_ends_the_process_or_writes_the_environment():
    # main() returns its exit code, so that a caller in its own process goes on after
    # it; run() alone ends the process, by os._exit once the output is flushed, and
    # alone sets OPENBLAS_NUM_THREADS, before verify imports numpy.
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    inside = set(ast.walk(run))
    exits = [node for node in ast.walk(tree) if _ends_the_process(node)]
    environ = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr in ("environ", "environb", "putenv", "unsetenv")]
    assert any(_is_os_call(node, "_exit") for node in inside), "run() has no os._exit"
    assert environ and set(environ) <= inside, \
        f"cli.py: the environment outside run() at lines {[n.lineno for n in environ]}"
    outside = [node.lineno for node in exits if node not in inside]
    assert outside == [], f"cli.py: ends the process outside run() at lines {outside}"


def test_verify_reads_no_environment():
    # The worker count comes from the CPU affinity, not from a variable a run inherits.
    path = next(p for p in SOURCES if p.name == "verify.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.Name) and node.id in names)
             or (isinstance(node, ast.alias) and node.name in names)]
    assert found == [], f"verify.py: reads the environment at lines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_default_tol_is_always_scaled(path):
    # The one zero test is relative: DEFAULT_TOL times the size of the operands.
    # A bare DEFAULT_TOL in a comparison would make an answer depend on the unit.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def scaled_or_shown(node):
        up = parent.get(node)
        if isinstance(up, ast.BinOp) and isinstance(up.op, ast.Mult):
            return True
        while up is not None and not isinstance(up, ast.JoinedStr):
            up = parent.get(up)
        return up is not None

    loads = [node for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)
             and getattr(node, "id", getattr(node, "attr", None)) == "DEFAULT_TOL"]
    bare = [node.lineno for node in loads if not scaled_or_shown(node)]
    assert bare == [], f"{path.name}: unscaled DEFAULT_TOL at lines {bare}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_core_raises_domain_error(path):
    # The family domains are decided in core; a module that raises DomainError itself
    # restates one, and the copy can drift from the family it describes.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
             and node.exc is not None
             and "DomainError" in {getattr(n, "id", getattr(n, "attr", None))
                                   for n in ast.walk(node.exc)}]
    assert found == [], f"{path.name}: raises DomainError at lines {found}"


def _init_tree():
    path = next(p for p in SOURCES if p.name == "__init__.py")
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_init_computes_all_instead_of_listing_it():
    # The imports of __init__ are the one list of public names; a literal __all__
    # would be a second copy, free to drift from the first.
    literal = [node.lineno for node in ast.walk(_init_tree())
               if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
               and isinstance(node.value, (ast.List, ast.Tuple))
               and any(getattr(target, "id", None) == "__all__" for target in
                       (node.targets if isinstance(node, ast.Assign) else [node.target]))]
    assert literal == [], f"__init__.py: literal __all__ at lines {literal}"


def test_init_binds_stdlib_imports_to_private_names():
    # __all__ takes every public global of __init__, so a public stdlib import would leak.
    public = [(node.lineno, alias.asname or alias.name) for node in ast.walk(_init_tree())
              if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0)
              for alias in node.names if not (alias.asname or alias.name).startswith("_")]
    assert public == [], f"__init__.py: public non-relative imports {public}"


def test_cli_imports_only_core_of_the_package_at_module_level():
    # transform, classify and compose need core alone.  The other modules load inside
    # the command that uses them; a module-level import of one would put it back on
    # the start-up path of every command.
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    in_functions = {node for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(fn)}
    imported = []
    for node in ast.walk(tree):
        if node in in_functions:
            continue
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported += [base] if node.module else [base + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    package = [name for name in imported if name.startswith(".")
               or name.split(".")[0] == "bilorentz"]
    assert package == [".core"], f"cli.py: module-level package imports {package}"


def test_verify_places_the_rng_only_in_inputs():
    # Every fuzz input follows _inputs's one layout, column j of trial i from rng
    # output j * trials + i; a check that placed the rng itself, or drew integers or a
    # choice, would lay out its draws by a rule of its own.
    path = next(p for p in SOURCES if p.name == "verify.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_inputs")
    inside = set(ast.walk(helper))
    placed = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and node.attr == "bit_generator" and node not in inside]
    assert placed == [], f"verify.py: bit_generator outside _inputs at lines {placed}"
    drawn = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr in ("integers", "choice")]
    assert drawn == [], f"verify.py: integers or choice drawn at lines {drawn}"
