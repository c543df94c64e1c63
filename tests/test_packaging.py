"""Packaging metadata: the version has exactly one source.

``repro/_version.py`` is the single source of truth; ``pyproject.toml``
must declare the version dynamic and point setuptools at that module
rather than carry a static copy that can drift.
"""

import re
from pathlib import Path

import repro
from repro._version import __version__

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _table(text, name):
    """The body of one top-level TOML table (up to the next header)."""
    match = re.search(
        rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S
    )
    assert match is not None, f"no [{name}] table in {PYPROJECT}"
    return match.group(1)


def test_pyproject_carries_no_static_version():
    project = _table(PYPROJECT.read_text(encoding="utf-8"), "project")
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)


def test_setuptools_reads_the_version_module():
    dynamic = _table(
        PYPROJECT.read_text(encoding="utf-8"), "tool.setuptools.dynamic"
    )
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"repro\._version\.__version__"',
        dynamic, re.M,
    )
    assert repro.__version__ == __version__
