"""The library holds only what the CLI and the benchmark run.

Every top-level name in src/ginfield, public or private, must be reachable
from the CLI entry point or from a name the benchmark uses, through the
references in the code of reachable definitions, and every public field,
method and property of a library class must be read as an attribute
somewhere in that code.  Independent reference routes that only tests need
belong in tests/oracles.py.  No module imports a name it never uses, nor
another module's private name, no module but bessel.py subscripts a
table's roots, no module but basis.py chooses between the weights 1
and 2 of a real field's orders, no function but ginibre._radial_sum
does arithmetic with rho_N, and no function of ginibre but _kernel and
_overlaps computes with the kernel factors R, and no function of field
but _coeff_scales reads the root window or forms the column 1/sqrt(n) of
the harmonic coupling.  Only ginibre.py imports ctypes.  Every memo is a
basis.frozen_cache, the one code but RootTable.__post_init__ that makes an
array read-only, and every array a memo returns refuses a write.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ginfield import basis, field, ginibre, logkernel

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


def _imported_packages(source):
    """Top-level names of the packages that the module source imports,
    relative imports aside."""
    tree = ast.parse(source)
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
    return {name.split(".")[0] for name in names}


def test_the_package_check_sees_a_submodule_and_a_from_import():
    source = "import os, ctypes.util\nfrom numpy import ctypeslib\nfrom . import ctypes\n"
    assert _imported_packages(source) == {"os", "ctypes", "numpy"}
    assert _imported_packages("from ctypes import CDLL\n") == {"ctypes"}


def test_only_ginibre_calls_into_a_shared_library():
    # a foreign call skips numpy's checks of its arguments, so the one such
    # call, zhseqr, stays in ginibre beside the checks that replace them
    found = {path.name: _imported_packages(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, packages in found.items() if "ctypes" in packages] == ["ginibre.py"]


def _empty_containers(tree):
    """Module-level names of tree bound to an empty {}, [], set(), dict() or
    list(): the start of a hand-rolled cache, where basis.frozen_cache is
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
        "module-level empty containers in src/ginfield; memoise with basis.frozen_cache"
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


def test_only_bessel_subscripts_a_root_table():
    # RootTable.root is the one (n, k) range check of the library; a bare
    # roots[n, k - 1] would skip it, and wrap k = 0 to the last column
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "bessel.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "roots"
    ]
    assert offenders == [], "read roots through RootTable.root"


def _multiplicity_choices(tree):
    """Line numbers in tree of a choice between the constants 1.0 and 2.0 by
    a comparison: an IfExp, or a where call whose two value arguments are
    those constants."""
    def one_and_two(a, b):
        return all(isinstance(x, ast.Constant) for x in (a, b)) and {a.value, b.value} == {1.0, 2.0}

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp):
            test, values = node.test, (node.body, node.orelse)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "where"
            and len(node.args) == 3
        ):
            test, values = node.args[0], node.args[1:]
        else:
            continue
        if isinstance(test, ast.Compare) and one_and_two(*values):
            found.append(node.lineno)
    return found


def test_the_multiplicity_check_sees_a_choice():
    tree = ast.parse(
        "a = 1.0 if n == 0 else 2.0\n"
        "b = np.where(n > 0, 2.0, 1.0)\n"
        "c = where(n == 0, 1, 2)\n"
        "d = np.where(n > 0, 3.0, 1.0)\n"
        "e = 2.0 if flag else 1.0\n"
        "f = 0.5 if n > 0 else 1.0\n"
    )
    assert _multiplicity_choices(tree) == [1, 2, 3]


def test_only_basis_counts_order_minus_n():
    # basis.sobolev_weights is the one place that weighs row n >= 1 of a real
    # field twice, for the orders n and -n
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "basis.py"
        for line in _multiplicity_choices(ast.parse(path.read_text()))
    ]
    assert offenders == [], "read the weight of a real field from basis.sobolev_weights"


def _operand_uses(tree, var, owners, subscripts=False):
    """Names of the functions of tree, top-level or methods, not in owners,
    in which var, or a subscript of it, is an operand of arithmetic: a binary
    operator (matmul among them), a unary operator or an augmented
    assignment.  With subscripts, subscripting var is a use as well."""
    def is_var(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id == var

    def operands(node):
        if isinstance(node, ast.BinOp):
            return node.left, node.right
        if isinstance(node, ast.UnaryOp):
            return (node.operand,)
        if isinstance(node, ast.AugAssign):
            return node.target, node.value
        if subscripts and isinstance(node, ast.Subscript):
            return (node.value,)
        return ()

    functions = [
        item
        for stmt in tree.body
        for item in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return {
        fn.name
        for fn in functions
        if fn.name not in owners
        and any(is_var(x) for node in ast.walk(fn) for x in operands(node))
    }


def _rho_arithmetic(tree):
    """Functions of tree other than _radial_sum in which rho, or a
    subscript of it, is an operand of arithmetic."""
    return _operand_uses(tree, "rho", {"_radial_sum"})


def test_the_rho_check_sees_a_sum_of_its_own():
    tree = ast.parse(
        "def pair_variance(F, rho, quad):\n"
        "    return np.sum(np.abs(F) ** 2 * rho[:, None] * quad.wr[:, None])\n"
        "def _radial_sum(G, rho, wr):\n"
        "    return 2.0 * math.pi * (G * rho * wr).sum(axis=-1)\n"
        "def radial_mean(g, N):\n"
        "    quad, rho, _ = _plane_rule(N)\n"
        "    return _radial_sum(g(quad.r), rho, quad.wr)\n"
        "class A:\n"
        "    def f(self, rho):\n"
        "        rho += 1\n"
        "    def g(self, rho):\n"
        "        return -rho\n"
    )
    assert _rho_arithmetic(tree) == {"pair_variance", "f", "g"}


def test_only_the_radial_sum_weighs_by_rho():
    # ginibre._radial_sum is the one sum against rho_N, and it refuses a sum
    # that is not finite or is cut off at the rule's last radius
    found = {
        path.name: _rho_arithmetic(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: fns for name, fns in found.items() if fns} == {}, (
        "sum against rho_N through ginibre._radial_sum"
    )


def _kernel_factor_uses(tree):
    """Functions of tree other than _kernel and _overlaps in which the
    kernel factors R are an operand of arithmetic, of matmul or of a
    subscript; the others may only pass R on."""
    return _operand_uses(tree, "R", {"_kernel", "_overlaps"}, subscripts=True)


def test_the_overlap_check_sees_a_product_of_its_own():
    tree = ast.parse(
        "def _overlaps(R, d, C, wr):\n"
        "    return R[max(0, -d):] * R[max(0, d):]\n"
        "def _kernel(N, r):\n"
        "    R = np.exp(r)\n"
        "    return np.square(R).sum(axis=0), R\n"
        "def neighbours(R):\n"
        "    return R[:-1] * R[1:]\n"
        "def row(R, k):\n"
        "    return f(R[k])\n"
        "def gram(R, w):\n"
        "    return (R * w) @ R.T\n"
        "def passes_it_on(N, C):\n"
        "    r, wr, rho, R = _plane_rule(N)\n"
        "    return _overlaps(R, 1, C, wr), R.shape\n"
    )
    assert _kernel_factor_uses(tree) == {"neighbours", "row", "gram"}


def test_only_the_overlaps_use_the_kernel_factors():
    # ginibre._overlaps is the one code that forms R_k R_{k+d}; field's R is
    # the pair factor, so the check reads ginibre alone
    found = _kernel_factor_uses(ast.parse((SRC / "ginibre.py").read_text()))
    assert found == set(), "form kernel overlaps through ginibre._overlaps"


def _scale_owners(tree):
    """Top-level functions of tree that call root_window, or that take the
    sqrt of an arange, as the column 1/sqrt(n) of the harmonic coupling does."""
    def called(node):
        return getattr(node.func, "attr", getattr(node.func, "id", None))

    def forms_a_scale(node):
        if not isinstance(node, ast.Call):
            return False
        if called(node) == "root_window":
            return True
        return called(node) == "sqrt" and any(
            isinstance(sub, ast.Call) and called(sub) == "arange"
            for arg in node.args
            for sub in ast.walk(arg)
        )

    return {
        fn.name
        for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(forms_a_scale, ast.walk(fn)))
    }


def test_the_scale_check_sees_a_second_owner():
    # the pair factor as it stood when it formed the scales of its own
    tree = ast.parse(
        "def _coeff_scales(cutoff, table):\n"
        "    j = root_window(cutoff, table)\n"
        "    return j[0], 1.0 / j[1:], 1.0 / np.sqrt(np.arange(1, cutoff[0] + 1))[:, None]\n"
        "def _pair_factor(z, w, cutoff, table):\n"
        "    n_max, k_max = cutoff\n"
        "    j = root_window(cutoff, table)\n"
        "    E = math.sqrt(math.pi) * eval_matrix(np.array([z, w]), n_max, k_max, table) / j\n"
        "    c_Z = math.sqrt(2) * E[:, 1:, :]\n"
        "    return c_Z.sum(axis=2) / np.sqrt(np.arange(1, n_max + 1))\n"
        "def window(cutoff, table):\n"
        "    return basis.root_window(cutoff, table)\n"
        "def column(n_max):\n"
        "    return 1.0 / np.sqrt(1.0 + np.arange(n_max))\n"
        "def reads_the_scales(cutoff, table):\n"
        "    j0, inv_j, inv_n = _coeff_scales(cutoff, table)\n"
        "    return math.sqrt(2) * inv_j, inv_n * math.sqrt(math.pi)\n"
    )
    assert _scale_owners(tree) == {"_coeff_scales", "_pair_factor", "window", "column"}


def test_only_the_coefficient_scales_form_the_field_scales():
    # field._coeff_scales is the one owner of j_{0,k}, 1/j_{n,k} and 1/sqrt(n),
    # the scales that _coeff_arrays samples with and _pair_factor weighs by
    assert _scale_owners(ast.parse((SRC / "field.py").read_text())) == {"_coeff_scales"}


def _hand_frozen(tree):
    """Top-level functions and methods of tree, named as name or
    Class.method, that use lru_cache or make an array read-only by hand:
    write flags.writeable or a flags entry, or call setflags; "<module>"
    for such code outside them."""
    def offends(node):
        if isinstance(node, ast.Name):
            return node.id == "lru_cache"
        if isinstance(node, ast.Attribute):
            return node.attr in {"lru_cache", "setflags"} or (
                node.attr == "writeable" and isinstance(node.ctx, ast.Store)
            )
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "attr", None) == "flags"
        )

    def label(stmt, owner):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"{owner}.{stmt.name}" if owner else stmt.name
        return owner or "<module>"

    units = [(label(stmt, None), stmt) for stmt in tree.body if not isinstance(stmt, ast.ClassDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            units += [(label(item, cls.name), item) for item in cls.body + cls.decorator_list]
    return {name for name, unit in units if any(map(offends, ast.walk(unit)))}


def test_the_cache_check_sees_a_hand_made_freeze():
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(n):\n"
        "    return f(n)\n"
        "@frozen_cache(maxsize=8)\n"
        "def b(n):\n"
        "    x, y = f(n)\n"
        "    x.flags.writeable = y.flags.writeable = False\n"
        "    return x, y\n"
        "@frozen_cache(maxsize=None)\n"
        "def c(n):\n"
        "    return f(n)\n"
        "def d(x):\n"
        "    x.flags['WRITEABLE'] = False\n"
        "    return x.flags.writeable\n"
        "class T:\n"
        "    def __post_init__(self):\n"
        "        self.roots.setflags(write=False)\n"
        "    def read(self):\n"
        "        return self.roots.flags.writeable\n"
        "g = functools.lru_cache(None)(c)\n"
    )
    assert _hand_frozen(tree) == {"a", "b", "d", "T.__post_init__", "<module>"}


# basis.frozen_cache is the one owner of the read-only rule, beside the
# root table that freezes its own arrays
FREEZERS = {("basis.py", "frozen_cache"), ("bessel.py", "RootTable.__post_init__")}
MEMOS = {
    ("basis.py", "_leggauss"),
    ("basis.py", "sobolev_weights"),
    ("field.py", "_coeff_scales"),
    ("field.py", "_pair_factor"),
    ("ginibre.py", "_plane_rule"),
    ("ginibre.py", "_upper_mask"),
    ("logkernel.py", "_chebyshev_matrices"),
    ("logkernel.py", "_disk_panels"),
}


def _hand_frozen_in(sources):
    """(module, name) of _hand_frozen over the sources of each module."""
    return {(module, fn) for module, src in sources.items() for fn in _hand_frozen(ast.parse(src))}


def test_only_frozen_cache_makes_an_array_read_only():
    found = _hand_frozen_in({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert found == FREEZERS, "memoise with basis.frozen_cache"


def test_the_cache_check_names_every_memo_as_a_bare_lru_cache():
    # each frozen_cache memo written as the lru_cache it stands for
    sources = {
        path.name: path.read_text().replace("@frozen_cache(", "@lru_cache(")
        for path in sorted(SRC.glob("*.py"))
    }
    assert _hand_frozen_in(sources) == FREEZERS | MEMOS


def _arrays(out):
    """Every array of a memo's return: each array in it or in the fields of
    a dataclass in it, and every array that one is a view of."""
    found = []
    for x in out if isinstance(out, tuple) else (out,):
        fields = dataclasses.fields(x) if dataclasses.is_dataclass(x) else ()
        for a in [getattr(x, f.name) for f in fields] or [x]:
            while isinstance(a, np.ndarray):
                found.append(a)
                a = a.base
    return found


def test_every_memo_returns_arrays_that_refuse_a_write(small_table):
    # (memo, a call it caches, a call that raises)
    calls = [
        (basis._leggauss, (8,), (0,)),
        (basis.sobolev_weights, ((3, 4), -1.0, small_table), ((3, 17), -1.0, small_table)),
        (field._coeff_scales, ((3, 4), small_table), ((17, 4), small_table)),
        (field._pair_factor, (0.5j, -0.25, (3, 4), small_table), (0.5j, 0.5, (3, 17), small_table)),
        (ginibre._plane_rule, (8,), (0,)),
        (ginibre._upper_mask, (4,), (-1,)),
        (logkernel._chebyshev_matrices, (logkernel._PANEL_DEGREE,), (-1,)),
        (logkernel._disk_panels, (2, 3, small_table), (2, 17, small_table)),
    ]
    assert {(fn.__module__.rsplit(".", 1)[1] + ".py", fn.__name__) for fn, _, _ in calls} == MEMOS
    writable = []
    for memo, good, bad in calls:
        memo(*good)
        arrays = _arrays(memo(*good))
        assert arrays
        for i, a in enumerate(arrays):
            try:
                a[...] = a
            except ValueError as e:
                assert "read-only" in str(e)
            else:
                writable.append(f"{memo.__name__} array {i}, shape {a.shape}")
        size = memo.cache_info().currsize
        with pytest.raises((ValueError, KeyError, ZeroDivisionError)):
            memo(*bad)
        assert memo.cache_info().currsize == size
    assert writable == []
