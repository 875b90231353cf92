"""Lazy package namespaces (PEP 562): a public name's submodule is
imported when the name is first read, so a process loads only the
modules its path uses."""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package, exports):
    """The ``(__getattr__, __dir__)`` pair for ``package``'s namespace.

    ``exports`` maps a relative submodule name (``".tracker"``) to the
    public names it provides; a name equal to the submodule's own last
    component (``"core"`` under ``".core"``) is the submodule itself.
    A resolved name is stored in the package, so later reads are plain
    lookups.
    """
    namespace = sys.modules[package].__dict__
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name)) from None
        value = import_module(module, package)
        if name != module.rpartition(".")[2]:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
