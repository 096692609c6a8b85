"""tools/bench_json.py stays runnable: every name it imports from the package
exists, private ones included, and its --help exits 0.  A rename in src then
fails here, not in the next bench recording."""

import ast
import importlib
import os
import subprocess
import sys
import types

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_json.py")


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
