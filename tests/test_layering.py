"""Layering guard: the graph and core layers do not depend on batch,
store, or serve, the graph layer does not depend on the shadow layer,
nothing reaches for a compiled extension, and Dinic is the one max-flow
solver.

``repro.graph`` and ``repro.core`` sit below the batch engine, the
shard store, and the measurement service, and import nothing from
them, not even lazily inside a function: the parallel entry points
(``combine_store_jobs``, ``measure_by_category_jobs``) live in
``repro.batch`` and call down, so importing the lower layers never
loads the upper ones.
"""

import ast
import inspect
import os
import subprocess
import sys

import repro
from repro.core.measure import measure_graph, measure_runs

UPPER = ("repro.batch", "repro.store", "repro.serve")

#: (file under the package, enclosing function) of every allowed import
ALLOWED = []

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


def _run(*args):
    """A fresh interpreter's completed run of ``args``, this package on
    its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(PACKAGE_ROOT)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)


def _modules_after(code):
    """``sys.modules`` of a fresh interpreter after running ``code``
    (printed as its last stdout line).  Unlike ``-X importtime`` it
    lists the submodules that a lazy package name loads through
    ``importlib.import_module``."""
    return set(_run("-c", code + "\nimport sys\nprint(*sys.modules)")
               .stdout.splitlines()[-1].split())


def _modules_after_cli(*argv):
    """``sys.modules`` after ``python -m repro *argv``, run through
    ``runpy`` in the child so the module table can be read after it."""
    return _modules_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', %s]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass" % ", ".join(repr(arg) for arg in argv))


def _loaded(modules, packages):
    return sorted(m for m in modules for package in packages
                  if m == package or m.startswith(package + "."))


def test_importing_lower_layers_leaves_batch_unloaded():
    assert _loaded(_modules_after("import repro.graph, repro.core"),
                   UPPER) == []


def test_store_combine_loads_no_tracer_or_pool():
    modules = _modules_after("import repro.store; "
                             "from repro.batch.runs import combine_store_jobs")
    assert "repro.batch.runs" in modules
    assert _loaded(modules, ("repro.lang", "repro.pytrace",
                             "repro.core.tracker", "repro.serve",
                             "multiprocessing", "concurrent.futures")) == []


def test_storeless_batch_frontend_loads_no_store():
    # A batch without --store never opens one, so it never imports it.
    modules = _modules_after("from repro.batch import measure_program_runs")
    assert "repro.batch.runs" in modules
    assert _loaded(modules, ("repro.store", "repro.durable")) == []


def test_pytrace_loads_no_store_batch_lang_or_exporter():
    modules = _modules_after("import repro.pytrace")
    assert "repro.pytrace.session" in modules
    assert _loaded(modules, ("repro.store", "repro.batch", "repro.lang",
                             "repro.obs.export")) == []


def test_measure_help_loads_no_upper_layer():
    modules = _modules_after_cli("measure", "--help")
    assert "repro.cli" in modules
    assert _loaded(modules, UPPER) == []


def test_measure_help_loads_no_measurement_pipeline():
    # The parser's --collapse choices come from repro.core.modes, so
    # --help never loads the solver.
    modules = _modules_after_cli("measure", "--help")
    assert "repro.cli" in modules
    assert _loaded(modules, ("repro.core.measure",
                             "repro.graph.maxflow")) == []


def _package_sources():
    for root, _dirs, files in os.walk(PACKAGE_ROOT):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as handle:
                    yield (os.path.relpath(path, PACKAGE_ROOT),
                           ast.parse(handle.read(), path))


def _package_name(rel):
    parts = rel[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro"] + parts)


def _imports(rel, tree):
    """Every absolute module name one source file imports."""
    package = _package_name(rel)
    if not rel.endswith("__init__.py"):
        package = package.rsplit(".", 1)[0]
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += _imported_modules(node, package)
    return names


def test_nothing_imports_a_native_extension():
    # The package is pure Python: no module loads repro._native or
    # names its old kernel accessor.
    offenders = set()
    for rel, tree in _package_sources():
        if any(name == "repro._native" or name.startswith("repro._native.")
               for name in _imports(rel, tree)):
            offenders.add(rel)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.alias,
                                                        ast.FunctionDef))
                    else None)
            if name == "native_kernels":
                offenders.add(rel)
    assert sorted(offenders) == []
    assert not os.path.exists(os.path.join(PACKAGE_ROOT, "_native"))


def test_graph_imports_nothing_from_shadow():
    offenders = set()
    for rel, tree in _package_sources():
        if not rel.startswith("graph" + os.sep):
            continue
        if any(name == "repro.shadow" or name.startswith("repro.shadow.")
               for name in _imports(rel, tree)):
            offenders.add(rel)
    assert sorted(offenders) == []


def test_session_has_no_native_method_set():
    # One fast method set beside the reference one, and no third
    # per-backend set.
    tree = dict(_package_sources())["pytrace/session.py"]
    session = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "Session")
    assert [node.name for node in session.body
            if isinstance(node, ast.FunctionDef)
            and node.name.endswith("_native")] == []


def test_dinic_is_the_one_max_flow_solver():
    solvers, residual_builders = set(), set()
    for rel, tree in _package_sources():
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name.endswith("_max_flow")):
                solvers.add(node.name)
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name == "ResidualNetwork":
                    residual_builders.add(rel)
    assert solvers == {"dinic_max_flow"}
    assert residual_builders == {"graph/maxflow.py"}
    for entry in (measure_graph, measure_runs):
        assert "solver" not in inspect.signature(entry).parameters


def test_durable_imports_only_the_standard_library():
    # Every layer, obs included, writes its logs through repro.durable.
    names = _imports("durable.py", dict(_package_sources())["durable.py"])
    assert names
    assert [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names] == []


def test_obs_imports_nothing_from_upper_layers():
    offenders = set()
    for rel, tree in _package_sources():
        if rel.startswith("obs" + os.sep) and any(
                name == upper or name.startswith(upper + ".")
                for name in _imports(rel, tree) for upper in UPPER):
            offenders.add(rel)
    assert sorted(offenders) == []
