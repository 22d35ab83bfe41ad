"""A cold `import ldp` loads scipy.special and none of the heavy scipy
trees: every CLI call is a new process, and scipy.optimize alone (with the
sparse, linalg and fft trees it pulls in) cost more than numpy.  Each check
runs in a fresh interpreter, since this test session has long since
imported scipy.optimize itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ldp

_SRC = str(Path(ldp.__file__).parents[1])
_HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.sparse",
          "scipy.linalg", "scipy.fft")


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
    loaded = fresh[0]
    assert "ldp.cli" in loaded and "scipy.special" in loaded
    heavy = [m for m in loaded if m.startswith(_HEAVY)]
    assert not heavy, heavy


def test_hamiltonian_quad_is_scipys_quad_when_read(fresh):
    loaded, same, other = fresh
    assert "scipy.integrate" not in loaded
    assert same and not other
