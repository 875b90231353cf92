"""Setuptools shim.

All project metadata lives in ``pyproject.toml``; this file exists so
that ``pip install -e .`` keeps working in offline environments where
the ``wheel`` package (required by PEP 660 editable builds) is
unavailable: pip falls back to the legacy ``setup.py develop`` path.
The package is pure Python and has no build step.
"""

from setuptools import setup

setup()
