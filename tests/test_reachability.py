"""The library holds only what the CLI and the benchmark run.

Every top-level name in src/ginfield, public or private, must be reachable
from the CLI entry point or from a name the benchmark uses, through the
references in the code of reachable definitions, and every public field,
method and property of a library class must be read as an attribute
somewhere in that code.  Independent reference routes that only tests need
belong in tests/oracles.py.  No module imports a name it never uses, nor
another module's private name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ginfield"
# the console script of pyproject.toml
ENTRY_POINTS = {"main"}


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
    """(the statements of each top-level definition, the module-level
    statements outside definitions and imports) over src/ginfield."""
    defs, loose = {}, []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _defined_names(stmt)
            for name in names:
                defs.setdefault(name, []).append(stmt)
            if not names and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                loose.append(stmt)
    return defs, loose


def _benchmark():
    return [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]


def _reached():
    """(the top-level definitions of the library, the names among them that
    the CLI entry point, module-level code or the benchmark reach, and the
    code that runs: the benchmark, module-level code and reached definitions)."""
    defs, loose = _library()
    code = loose + _benchmark()
    todo = list(ENTRY_POINTS.union(*map(_identifiers, code)))
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for stmt in defs[name]:
            todo.extend(_identifiers(stmt))
            code.append(stmt)
    return defs, seen, code


def _unreached():
    defs, seen, _ = _reached()
    return set(defs) - seen


def test_every_public_name_runs_in_the_cli_or_the_benchmark():
    # private names too: a helper that only tests call is a reference route
    assert _unreached() == set(), (
        "top-level names in src/ginfield that neither the CLI nor the benchmark "
        "reaches; move reference routes to tests/oracles.py or delete them"
    )


def _members(tree):
    """(class, member) for every public field, method and property of the
    top-level classes of a module tree."""
    return {
        (stmt.name, name)
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
        for item in stmt.body
        for name in _defined_names(item)
        if not name.startswith("_")
    }


def _unread_members(trees, code):
    """Members of the classes of trees whose name code never reads as an
    attribute.  Matching is by name alone, so a read of any attribute of that
    name hides a member: the benchmark's own self.cutoff and args.seed would
    hide a FieldSample.cutoff or FieldSample.seed."""
    read = {
        sub.attr
        for node in code
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return {(cls, name) for tree in trees for cls, name in _members(tree) if name not in read}


def test_the_member_check_sees_an_unread_member():
    lib = ast.parse(
        "class A:\n"
        "    x: int\n"
        "    y: int\n"
        "    def f(self):\n"
        "        return self.x\n"
        "    @property\n"
        "    def g(self):\n"
        "        return 1\n"
        "    def _h(self):\n"
        "        return 2\n"
    )
    # y is only written, and g and _h are never read; _h is private
    used = ast.parse("a = A(1, 2)\na.y = 3\na.f()\n")
    assert _unread_members([lib], [lib, used]) == {("A", "y"), ("A", "g")}


def test_every_class_member_is_read_by_the_cli_or_the_benchmark():
    _, _, code = _reached()
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert _unread_members(trees, code) == set(), (
        "public fields, methods and properties in src/ginfield that no code "
        "the CLI or the benchmark runs reads; delete them"
    )


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


def _private_imports(source):
    """Underscore names, dunders aside, that the module source imports from
    a module of the package."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ginfield")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    }


def test_the_private_import_check_sees_a_private_name():
    source = (
        "from . import __version__\n"
        "from .a import _b, c\n"
        "from ginfield.d import _e\n"
        "from numpy import _f\n"
    )
    assert _private_imports(source) == {"_b", "_e"}


def test_no_module_imports_another_modules_private_name():
    # a name a second module needs is that module's interface, so it is public
    found = {path.name: _private_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def _empty_containers(tree):
    """Module-level names of tree bound to an empty {}, [], set(), dict() or
    list(): the start of a hand-rolled cache, where functools.lru_cache is
    the one idiom."""
    def empty(value):
        if value is None:  # a bare annotation
            return False
        if isinstance(value, ast.Dict):
            return not value.keys
        if isinstance(value, ast.List):
            return not value.elts
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in {"set", "dict", "list"}
            and not value.args
            and not value.keywords
        )

    return {
        name
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and empty(stmt.value)
        for name in _defined_names(stmt)
    }


def test_the_empty_container_check_sees_a_cache():
    tree = ast.parse("A = {}\nB: list = []\nC = set()\nD = {1: 2}\nE = [0]\nF = set(x)\nG: int\n")
    assert _empty_containers(tree) == {"A", "B", "C"}


def test_no_module_level_name_is_an_empty_container():
    found = {
        path.name: _empty_containers(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}, (
        "module-level empty containers in src/ginfield; memoise with functools.lru_cache"
    )


def _runtime_errors(trees):
    """Names of the classes in trees that derive from RuntimeError, directly
    or through another class defined there."""
    bases = {
        stmt.name: {b.id for b in stmt.bases if isinstance(b, ast.Name)}
        for tree in trees
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
    }
    found, grew = {"RuntimeError"}, True
    while grew:
        new = {name for name, b in bases.items() if b & found} - found
        found |= new
        grew = bool(new)
    return found - {"RuntimeError"}


def _exit_3_errors(cli):
    """Exception names of the handlers in cli.main whose body returns 3."""
    main = next(s for s in cli.body if isinstance(s, ast.FunctionDef) and s.name == "main")
    return {
        name.id
        for handler in ast.walk(main)
        if isinstance(handler, ast.ExceptHandler)
        and any(
            isinstance(r, ast.Return) and isinstance(r.value, ast.Constant) and r.value.value == 3
            for r in handler.body
        )
        for name in ast.walk(handler.type)
        if isinstance(name, ast.Name)
    }


def test_every_certificate_failure_exits_3():
    # a RuntimeError of the library is a numerical certificate that failed,
    # which the CLI reports with exit code 3
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    errors = _runtime_errors(trees)
    assert {"EigensolverError", "RootBracketError", "InterpolantError"} <= errors
    assert errors - _exit_3_errors(ast.parse((SRC / "cli.py").read_text())) == set()
