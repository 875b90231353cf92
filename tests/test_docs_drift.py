"""Docs-drift test for ``docs/api.md``: every name in its tables exists.

The API overview documents public entry points as markdown tables under
section headers that name a module in backticks, e.g.::

    ## Graphs — `repro.graph`

    | name | purpose |
    |---|---|
    | `min_cut / min_cut_from_residual` | ... |

This test parses those tables and resolves every listed name (splitting
``a / b`` alternatives, dropping call signatures, following dotted
attributes) against the stated module, so a rename or a dropped
re-export breaks the suite instead of silently rotting the doc.
"""

import importlib
import pathlib
import re

import pytest

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "api.md"

_HEADER = re.compile(r"^#+\s+.*`(?P<module>[\w.]+)`\s*$")
_CELL_NAME = re.compile(r"`(?P<text>[^`]+)`")


def parse_api_tables():
    """Yield ``(module, name)`` pairs from every table in docs/api.md."""
    module = None
    pairs = []
    for line in DOC.read_text().splitlines():
        header = _HEADER.match(line.strip())
        if header:
            module = header.group("module")
            continue
        if module is None or not line.startswith("|"):
            continue
        first_cell = line.strip().strip("|").split("|")[0].strip()
        if not first_cell or set(first_cell) <= {"-", " ", ":"}:
            continue
        if first_cell.lower() == "name":
            continue
        for backticked in _CELL_NAME.findall(first_cell):
            for alternative in backticked.split("/"):
                name = alternative.strip().split("(")[0].strip()
                if name:
                    pairs.append((module, name))
    return pairs


def resolve(module_name, dotted):
    """Import ``module_name`` and getattr down ``dotted``.

    A name that itself starts with ``repro.`` is treated as a full path:
    the longest importable prefix is imported and the rest resolved as
    attributes.
    """
    if dotted.startswith("repro."):
        parts = dotted.split(".")
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            for attr in parts[split:]:
                obj = getattr(obj, attr)
            return obj
        raise ImportError(dotted)
    obj = importlib.import_module(module_name)
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def test_tables_found():
    pairs = parse_api_tables()
    assert len(pairs) > 40, "api.md tables went missing or unparseable"
    modules = {module for module, _ in pairs}
    assert "repro.pytrace" in modules
    assert "repro.graph" in modules


@pytest.mark.parametrize(
    "module,name",
    parse_api_tables(),
    ids=["%s:%s" % pair for pair in parse_api_tables()])
def test_documented_name_exists(module, name):
    try:
        resolve(module, name)
    except (ImportError, AttributeError) as error:
        pytest.fail("docs/api.md lists %r under `%s`, but it does not "
                    "resolve: %s" % (name, module, error))
