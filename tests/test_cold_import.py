"""A cold `import ldp` loads no scipy module at all, and the package names
numpy as its one run-time dependency: every CLI call is a new process, and
scipy.special alone cost about twice what numpy does.  Each import check
runs in a fresh interpreter, since this test session has long since
imported scipy itself."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ldp

_SRC = str(Path(ldp.__file__).parents[1])
_PYPROJECT = Path(_SRC).parent / "pyproject.toml"


@pytest.fixture(scope="module")
def fresh():
    """What a new interpreter that imports ldp and ldp.cli from this tree
    sees: its modules, then whether scipy.integrate was loaded before
    `ldp.hamiltonian.quad` was read, and what that name resolved to."""
    code = ("import json, sys\n"
            "import ldp, ldp.cli\n"
            "loaded = sorted(sys.modules)\n"
            "ham = sys.modules['ldp.hamiltonian']\n"
            "quad = ham.quad\n"
            "import scipy.integrate\n"
            "print(json.dumps([loaded, quad is scipy.integrate.quad,\n"
            "                  hasattr(ham, 'no_such_name')]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_loads_no_heavy_scipy_module(fresh):
    # nor any other scipy module
    loaded = fresh[0]
    assert "ldp.cli" in loaded
    scipy = [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    assert not scipy, scipy


def test_hamiltonian_quad_is_scipys_quad_when_read(fresh):
    loaded, same, other = fresh
    assert "scipy.integrate" not in loaded
    assert same and not other


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")    # the standard library's
    #                                             from Python 3.11
    with _PYPROJECT.open("rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group().lower() for d in deps] == [
        "numpy"], deps
