"""tools/bench_json.py stays runnable: every name it imports from the package
exists, private ones included, and its --help exits 0.  A rename in src then
fails here, not in the next bench recording.  The same holds for every name
that the benchmark's workloads and tracer (perfbench/) read from the package."""

import ast
import importlib
import os
import subprocess
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_json.py")
PERFBENCH = [os.path.join(ROOT, "perfbench", f) for f in ("workloads.py", "spans.py")]


def _package(module):
    return module is not None and module.split(".")[0] == "shrinktargets"


def test_bench_imports_resolve():
    with open(TOOL) as fh:
        tree = ast.parse(fh.read())
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _package(alias.name):
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and _package(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
    assert bound, "bench_json imports nothing from shrinktargets"
    # attributes read from an imported module, as in harness._count
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id)
            if isinstance(module, types.ModuleType) and not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    assert missing == []


def test_bench_help_exits_0():
    proc = subprocess.run([sys.executable, TOOL, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "--pr" in proc.stdout


def _chain(node):
    """[a, b, c] of an attribute chain a.b.c rooted in a name, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def _lookup(path):
    """The object at a dotted path from a top-level module, importing the
    submodules on the way, or None where a name is missing."""
    obj = importlib.import_module(path[0])
    for name in path[1:]:
        if isinstance(obj, types.ModuleType) and not hasattr(obj, name):
            try:
                importlib.import_module(f"{obj.__name__}.{name}")
            except ImportError:
                return None
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def test_perfbench_names_resolve():
    """Every st.<name>[.<attr>] chain of the benchmark's files resolves on the
    package, every W("shrinktargets.<mod>", "<func>") span names a function,
    and every count_method(cls, "<m>") a method in the class's own __dict__,
    so that a deletion that breaks the benchmark fails here."""
    missing, spans, counts = [], 0, 0
    for path in PERFBENCH:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        pkg, loops = {}, {}     # names bound to the package's dotted paths; loop tuples
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                pkg.update((a.asname or a.name, a.name.split("."))
                           for a in node.names if _package(a.name))
            elif isinstance(node, ast.ImportFrom) and _package(node.module):
                pkg.update((a.asname or a.name, [*node.module.split("."), a.name])
                           for a in node.names)
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                    and isinstance(node.iter, ast.Tuple):
                loops[node.target.id] = node.iter.elts
        assert pkg, f"{path} imports nothing from shrinktargets"

        def resolve(node):
            chain = _chain(node)
            return _lookup(pkg[chain[0]] + chain[1:]) if chain and chain[0] in pkg else None
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (chain := _chain(node)) \
                    and chain[0] in pkg and resolve(node) is None:
                missing.append(".".join(chain))
            if not isinstance(node, ast.Call):
                continue
            func = getattr(node.func, "attr", getattr(node.func, "id", None))
            if func in ("W", "wrap_function"):
                module, name = (a.value for a in node.args[:2])
                spans += 1
                if _lookup([*module.split("."), name]) is None:
                    missing.append(f"{module}.{name}")
            elif func == "count_method":
                cls, method = node.args[0], node.args[1].value
                for owner in loops.get(getattr(cls, "id", None), [cls]):
                    counts += 1
                    if method not in getattr(resolve(owner), "__dict__", {}):
                        missing.append(f"{ast.unparse(owner)}.__dict__[{method!r}]")
    assert spans and counts, "no W(...) span or count_method(...) call found"
    assert missing == []
