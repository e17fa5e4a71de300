"""Every aerobot name the benchmark harness uses still resolves on the package.

perfbench/*.py is parsed with ast, never imported or run, so an API change
that would break the benchmark fails here first.
"""

import ast
import importlib
from pathlib import Path

import aerobot

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name: str) -> ast.Module:
    path = PERFBENCH / name
    return ast.parse(path.read_text(), str(path))


def resolves(dotted: str) -> bool:
    """Whether aerobot.<a>.<b>... names a submodule or an attribute, step by step."""
    parts = dotted.split(".")
    obj = aerobot
    for i in range(1, len(parts)):
        try:
            obj = getattr(obj, parts[i])
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i + 1]))
            except ImportError:
                return False
    return True


def imported_aerobot_names(tree: ast.Module) -> dict:
    """Local name -> dotted aerobot path, for each import of the package or its parts."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "aerobot":
            names.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            names.update({a.asname or "aerobot": a.name if a.asname else "aerobot"
                          for a in node.names if a.name.split(".")[0] == "aerobot"})
    return names


def aerobot_reads(tree: ast.Module) -> set:
    """Every longest attribute chain read off an imported aerobot name, dotted."""
    names = imported_aerobot_names(tree)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in names:
                reads.add(".".join([names[node.id], *attrs]))
    return reads


def literal(tree: ast.Module, target: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [target]:
            return ast.literal_eval(node.value)
    raise LookupError(target)


def test_every_aerobot_name_perfbench_reads_resolves():
    reads = set().union(*(aerobot_reads(parse(p.name)) for p in PERFBENCH.glob("*.py")))
    assert {"aerobot.flight.SimConfig", "aerobot.flight.GRAVITY", "aerobot.cli.run"} <= reads
    assert sorted(name for name in reads if not resolves(name)) == []


def test_every_traced_layer_resolves():
    spans = parse("spans.py")
    modules = literal(spans, "_MODULES")
    for module in modules:
        importlib.import_module(f"aerobot.{module}")
    layers = literal(spans, "LAYERS")
    assert len(layers) > 20
    assert sorted(name for name in layers
                  if name.split(".")[0] not in modules or not resolves(f"aerobot.{name}")) == []
