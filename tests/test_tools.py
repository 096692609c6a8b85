"""tools/bench_json.py stays runnable: every name it imports from the package
exists, private ones included, and its --help exits 0.  A rename in src then
fails here, not in the next bench recording.  The same holds for every name
that the benchmark's workloads and tracer (perfbench/) read from the package.
And the package keeps no private helper that only tests would keep alive, and
the README's config table names the kinds of the tables the schema reads."""

import ast
import glob
import importlib
import os
import re
import subprocess
import sys
import types

from shrinktargets.maps import MAP_KINDS
from shrinktargets.measures import ENTROPY_METHODS
from shrinktargets.recurrence import SCHEDULE_KINDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_json.py")
PERFBENCH = [os.path.join(ROOT, "perfbench", f) for f in ("workloads.py", "spans.py")]
SRC = os.path.join(ROOT, "src", "shrinktargets")
README = os.path.join(ROOT, "README.md")


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


def dead_private_names(src_dir):
    """The module-level _names (functions, classes, constants) of the .py files
    in src_dir that no code in src_dir reads outside their own definition: no
    name, attribute or import of it."""
    trees = []
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        with open(path) as fh:
            trees.append((os.path.basename(path), ast.parse(fh.read())))
    defined = []        # (file, name, the definition's node)
    for file, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(file, name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    dead = []
    for file, name, definition in defined:
        inside = {id(n) for n in ast.walk(definition)}
        if not any(id(n) not in inside and name in (
                getattr(n, "id", None) if isinstance(n, ast.Name) else
                getattr(n, "attr", None) if isinstance(n, ast.Attribute) else
                n.name if isinstance(n, ast.alias) else None,)
                for _, tree in trees for n in ast.walk(tree)):
            dead.append(f"{file}:{name}")
    return dead


def test_no_dead_private_helpers():
    """Every module-level _name of the package is read in src/ outside its own
    definition, so a deletion cannot leave behind a helper that only tests
    keep alive."""
    assert dead_private_names(SRC) == []


def test_an_unused_private_helper_is_found(tmp_path):
    """A copy of the package with one unread _helper fails the check, and only
    that helper is named; a helper read by another module, or by an assignment,
    is not."""
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            (tmp_path / os.path.basename(path)).write_text(fh.read())
    (tmp_path / "extra.py").write_text(
        "def _helper(x):\n    return _helper(x - 1) if x else 0\n\n\n"
        "def _used():\n    return 1\n\n\n_TABLE = {'f': _used}\n_LIMIT = 3\n")
    (tmp_path / "reader.py").write_text("from .extra import _LIMIT\n")
    assert sorted(dead_private_names(str(tmp_path))) == ["extra.py:_TABLE", "extra.py:_helper"]


def readme_config_kinds(path):
    """{block: the backticked names of its kind column} of the config table
    (the one headed | block | kind | ...) of the README at path."""
    names, block, inside = {}, None, False
    with open(path) as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().split("|")[1:-1]]
            if cells[:2] == ["block", "kind"]:
                inside = True
            elif inside and not line.startswith("|"):
                break
            elif inside and not cells[0].startswith("---"):
                block = cells[0] or block
                names.setdefault(block, []).extend(re.findall(r"`([^`]+)`", cells[1]))
    return names


def test_readme_config_table_names_every_kind():
    """The README's config table names exactly the map kinds, the schedule
    kinds and the entropy methods of the tables the schema reads."""
    names = readme_config_kinds(README)
    assert sorted(names["`map`"]) == sorted(MAP_KINDS)
    assert sorted(names["`schedule`"]) == sorted(SCHEDULE_KINDS)
    method, *methods = names["`params` of `entropy`"]
    assert method == "method" and sorted(methods) == sorted(ENTROPY_METHODS)
