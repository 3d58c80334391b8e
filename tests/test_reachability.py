"""The library holds only what the CLI and the benchmark run.

Every public top-level name in src/ginfield must be reachable from the CLI
entry point or from a name the benchmark uses, through the references in
the code of reachable definitions.  Independent reference routes that only
tests need belong in tests/oracles.py.  No module imports a name it never
uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ginfield"
# the console script of pyproject.toml
ENTRY_POINTS = {"main"}
# public API with no caller in the CLI or the benchmark: the reader of the
# file the roots experiment writes, and the algebra of the coefficient layout
ALLOWED = {"load_root_table", "evaluate", "pairing"}


def _identifiers(node):
    """Every name and attribute name used under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _library():
    """(uses of each top-level definition, names used by module-level code
    outside definitions and imports) over src/ginfield."""
    uses, loose = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _defined_names(stmt)
            if names:
                for name in names:
                    uses.setdefault(name, set()).update(_identifiers(stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                loose |= _identifiers(stmt)
    return uses, loose


def _benchmark_names():
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names |= _identifiers(ast.parse(path.read_text()))
    return names


def _unreached():
    uses, loose = _library()
    todo = list(ENTRY_POINTS | loose | _benchmark_names())
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in uses:
            continue
        seen.add(name)
        todo.extend(uses[name])
    return {name for name in uses if not name.startswith("_") and name not in seen}


def test_every_public_name_runs_in_the_cli_or_the_benchmark():
    unreached = _unreached()
    assert unreached - ALLOWED == set(), (
        "public names in src/ginfield that neither the CLI nor the benchmark "
        "reaches; move reference routes to tests/oracles.py or delete them"
    )
    # an allowed name that the CLI or the benchmark starts to use leaves the list
    assert ALLOWED <= unreached


def _unused_imports(source):
    """Names that the module source imports and never reads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".", 1)[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import math\nfrom a.b import c as d, e\nd(math.pi)\n") == {"e"}


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
