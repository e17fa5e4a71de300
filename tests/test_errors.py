"""One error family: every refusal in the package raises an aerobot.errors class."""

import ast
import inspect
import textwrap
from pathlib import Path

import aerobot
from aerobot import cli, errors

SRC = Path(aerobot.__file__).parent
# one class per kind of refusal; a number or size outside its stated bounds is OutOfRange
FAMILY = {"AerobotError", "OutOfRange", "FileAccess", "BadMagic", "TruncatedData", "NotGrayscale",
          "NotRGB", "DegenerateHistogram", "ZeroVariance", "DimensionMismatch", "NonBipolarPattern",
          "NonConvergent", "EmptyDataset", "NoStripFound", "NoRuleFired", "ConfigInvalid",
          "ParseError"}
# the only raises outside the family: argparse's hook for a bad --layers value, and the
# package __getattr__, whose AttributeError Python's attribute lookup relies on
OUTSIDE_THE_FAMILY = {("cli.py", "argparse.ArgumentTypeError"), ("__init__.py", "AttributeError")}


def family() -> set:
    return {name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.AerobotError)}


def raised(path: Path):
    """(line, exception name) of every raise in a file; a bare re-raise names None."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, None if exc is None else ast.unparse(exc)


def test_every_raise_names_an_aerobot_error_or_re_raises():
    allowed = family()
    strays = [(path.name, line, name)
              for path in sorted(SRC.glob("*.py")) for line, name in raised(path)
              if name is not None and name not in allowed
              and (path.name, name) not in OUTSIDE_THE_FAMILY]
    assert strays == []
    assert allowed == FAMILY


def test_every_error_class_is_raised():
    """An unused class would be a second name for a refusal some other class already makes."""
    names = {name for path in SRC.glob("*.py") for _, name in raised(path)}
    assert FAMILY - {"AerobotError"} - names == set()


def test_the_family_is_a_value_error():
    assert issubclass(errors.AerobotError, ValueError)
    assert errors.OutOfRange.__bases__ == (errors.AerobotError,)


def test_run_maps_only_the_family_to_exit_1():
    """Usage exits, the one OSError translation, and one domain-error branch."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.run)))
    caught = [ast.unparse(node.type) for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler)]
    assert sorted(caught) == ["AerobotError", "OSError", "SystemExit"]


def unused_imports(path: Path) -> list:
    """Names a module imports but never reads: a re-export or a leftover."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_is_used():
    """One home per name: no module imports a name only to re-export it."""
    unused = [(path.name, line, name)
              for path in sorted(SRC.glob("*.py")) for line, name in unused_imports(path)]
    assert unused == []


def test_the_import_audit_sees_a_re_export(tmp_path):
    shim = tmp_path / "shim.py"
    shim.write_text("from __future__ import annotations\n"
                    "import math\nimport os.path\n"
                    "from .sizing import GRAVITY, MAX_STEPS  # noqa: F401\n\n"
                    "def f():\n    return math.pi * GRAVITY\n")
    assert unused_imports(shim) == [(3, "os"), (4, "MAX_STEPS")]


ROOT = SRC.parents[1]
# documented API that no caller in the package, perfbench or the acceptance tests uses
UNCALLED_API = {"mlp_forward", "mlp_train_step"}


def names_read(node) -> set:
    """Every name and attribute read anywhere under an AST node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def public_names(stmt) -> list:
    """Public names a top-level statement defines: a def or class, or an UPPER_CASE constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name) and n.id.isupper()]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_caller():
    """Each public top-level def, class or UPPER_CASE constant is read outside its own
    definition: by the package, perfbench or the acceptance tests, not by the unit tests
    alone."""
    callers = [ast.parse(p.read_text(), str(p)) for p in
               sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]]
    statements = [stmt for p in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(p.read_text(), str(p)).body]
    reads = [names_read(stmt) for stmt in statements + callers]
    uncalled = [name for i, stmt in enumerate(statements) for name in public_names(stmt)
                if not any(name in r for j, r in enumerate(reads) if j != i)]
    assert len(statements) > 100  # the walk saw the package
    assert sorted(uncalled) == sorted(UNCALLED_API)


def test_the_caller_audit_sees_constants():
    tree = ast.parse("A_B = 1\n_C = 2\nd = 3\nE: int = 4\nF, _G = 5, 6\ndef h():\n    pass\n")
    assert [name for stmt in tree.body for name in public_names(stmt)] == ["A_B", "E", "F", "h"]
