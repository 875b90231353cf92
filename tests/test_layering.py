"""Layering guard: the graph and core layers do not depend on batch,
store, or serve.

``repro.graph`` and ``repro.core`` sit below the batch engine, the
shard store, and the measurement service.  The only way up is one lazy
import inside each of the three entry points that can fan out to a
worker pool — ``combine_runs``, ``measure_runs``, and
``measure_by_category`` — so importing the lower layers never loads
the upper ones.
"""

import ast
import os
import subprocess
import sys

import repro

UPPER = ("repro.batch", "repro.store", "repro.serve")

#: (file under the package, enclosing function) of every allowed import
ALLOWED = [
    ("core/measure.py", "measure_runs"),
    ("core/multisecret.py", "measure_by_category"),
    ("graph/collapse.py", "combine_runs"),
]

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _imported_modules(node, package):
    """Absolute names an ``import``/``from ... import`` node brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        base = package.split(".")[:len(package.split(".")) - node.level + 1]
        prefix = ".".join(base + ([node.module] if node.module else []))
    else:
        prefix = node.module
    return [prefix] + ["%s.%s" % (prefix, alias.name)
                       for alias in node.names]


def _upper_imports(path, package):
    """``[(enclosing function or None, lineno)]`` of imports of
    :data:`UPPER` in one source file."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = _imported_modules(node, package)
            if any(name == upper or name.startswith(upper + ".")
                   for name in names for upper in UPPER):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_lower_layers_import_upper_ones_only_lazily():
    seen = []
    for layer in ("graph", "core"):
        for name in sorted(os.listdir(os.path.join(PACKAGE_ROOT, layer))):
            if not name.endswith(".py"):
                continue
            package = "repro." + layer
            for function, _line in _upper_imports(
                    os.path.join(PACKAGE_ROOT, layer, name), package):
                seen.append(("%s/%s" % (layer, name), function))
    assert sorted(seen) == ALLOWED


def test_importing_lower_layers_leaves_batch_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(PACKAGE_ROOT)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, repro.graph, repro.core; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['repro', 'batch'], "
            "['repro', 'serve'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
