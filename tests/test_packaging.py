"""Packaging metadata: one version source, no third-party imports.

``repro/_version.py`` is the single source of truth; ``pyproject.toml``
must declare the version dynamic and point setuptools at that module
rather than carry a static copy that can drift.  The package runs on
the standard library alone: not even an optional numpy import is made.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro._version import __version__

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


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


#: Installed at interpreter start-up: a meta-path finder that records
#: every attempt to import numpy (or a submodule) and then declines it,
#: so the outcome is the same whether or not numpy is installed.
_BLOCK_NUMPY = """
import sys

ATTEMPTS = []


class _DeclineNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            ATTEMPTS.append(name)
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None


sys.meta_path.insert(0, _DeclineNumpy())
"""

_CHILD = """
import json

import repro
import repro.cli
from repro.sim.config import ExperimentScale
from repro.sim.runner import run_matrix
from repro.workloads.spec_like import make_benchmark_trace

scale = ExperimentScale(num_sets=16, associativity=4, trace_length=2000)
trace = make_benchmark_trace("mcf", num_sets=16, length=2000)
matrix = run_matrix([trace], ["lru"], scale=scale, max_workers=1)
assert not matrix.failures, matrix.failures

import sitecustomize
print(json.dumps(sitecustomize.ATTEMPTS))
"""


def test_repro_never_imports_numpy(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(_BLOCK_NUMPY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(ROOT / "src")])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
