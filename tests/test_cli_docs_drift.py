"""Docs-drift test for CLI flags: every ``--flag`` the docs mention exists.

Companion to ``tests/test_docs_drift.py`` (API names) and
``tests/obs/test_catalogue_drift.py`` (metric names): the command-line
paragraphs of ``docs/api.md`` and the README name flags in backticks,
and a renamed or removed argparse option must break the suite rather
than rot the docs.
"""

import argparse
import pathlib
import re

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = (ROOT / "docs" / "api.md", ROOT / "docs" / "service.md",
        ROOT / "README.md")

_FLAG = re.compile(r"(--[a-z][a-z0-9-]*)")

#: Flags the docs mention that belong to other tools, not `python -m repro`.
_FOREIGN = {
    "--benchmark-only",  # pytest-benchmark
    "--benchmark-disable",  # pytest-benchmark
    "--inplace",         # setuptools build_ext (the native extension)
}


def cli_option_strings():
    """Every option string of the top-level parser and all subcommands."""
    parser = build_parser()
    options = set()
    stack = [parser]
    while stack:
        current = stack.pop()
        for action in current._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return options


def documented_flags():
    pairs = []
    for doc in DOCS:
        for backticked in re.findall(r"`([^`]*)`", doc.read_text()):
            for flag in _FLAG.findall(backticked):
                if flag not in _FOREIGN:
                    pairs.append((doc.name, flag))
    return sorted(set(pairs))


def test_docs_mention_flags():
    flags = {flag for _, flag in documented_flags()}
    assert len(flags) > 10, "CLI flags went missing from the docs"


@pytest.mark.parametrize("doc,flag", documented_flags(),
                         ids=["%s:%s" % pair for pair in documented_flags()])
def test_documented_flag_exists(doc, flag):
    assert flag in cli_option_strings(), (
        "%s mentions %s, but no CLI subcommand defines it" % (doc, flag))


def test_combine_subcommand_and_store_flags_are_documented():
    """The corpus-combine surface must stay documented: the ``combine``
    subcommand exists, ``--store`` is defined on both ``batch`` and
    ``combine``, and docs/api.md names them."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert "combine" in subparsers.choices
    combine_options = {opt for action in
                       subparsers.choices["combine"]._actions
                       for opt in action.option_strings}
    batch_options = {opt for action in
                     subparsers.choices["batch"]._actions
                     for opt in action.option_strings}
    assert "--store" in combine_options
    assert "--store" in batch_options
    assert {"--jobs", "--fanin", "--collapse", "--json",
            "--on-error"} <= combine_options
    api_text = (ROOT / "docs" / "api.md").read_text()
    assert "`combine`" in api_text or "repro combine" in api_text
    documented = {flag for _, flag in documented_flags()}
    assert "--store" in documented
    assert "--fanin" in documented


def test_serve_subcommand_and_flags_are_documented():
    """The measurement-service surface must stay documented: the
    ``serve`` subcommand exists with its admission/drain flags, and
    docs/service.md names them."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert "serve" in subparsers.choices
    serve_options = {opt for action in
                     subparsers.choices["serve"]._actions
                     for opt in action.option_strings}
    assert {"--dir", "--port", "--host", "--jobs", "--queue-depth",
            "--max-inflight", "--shed-runs", "--timeout", "--retries",
            "--no-telemetry", "--telemetry-interval"} <= serve_options
    service_text = (ROOT / "docs" / "service.md").read_text()
    assert "repro serve" in service_text
    documented = {flag for _, flag in documented_flags()}
    assert {"--dir", "--queue-depth", "--max-inflight",
            "--shed-runs"} <= documented


def test_backend_and_warm_start_flags_are_documented():
    """The backend-selection surface must stay documented (backends.md
    contract): the flags exist in the parser AND in docs/api.md."""
    options = cli_option_strings()
    assert "--backend" in options
    assert "--no-warm-start" in options
    documented = {flag for _, flag in documented_flags()}
    assert "--backend" in documented
    assert "--no-warm-start" in documented


def test_backend_flag_choices_cover_registry():
    """Every ``--backend`` flag accepts exactly the registry's backends
    plus ``auto`` -- adding a backend (e.g. ``native``) without updating
    the CLI, or vice versa, must fail here."""
    from repro.shadow import BACKENDS
    expected = {"auto"} | set(BACKENDS)
    parser = build_parser()
    stack, backend_actions = [parser], []
    while stack:
        current = stack.pop()
        for action in current._actions:
            if "--backend" in action.option_strings:
                backend_actions.append(action)
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    assert backend_actions, "no subcommand defines --backend"
    for action in backend_actions:
        assert set(action.choices) == expected
    # The native backend is part of the documented surface.
    assert "native" in BACKENDS
    for doc in ("api.md", "backends.md"):
        assert "native" in (ROOT / "docs" / doc).read_text(), doc
