"""Every integral of J in `ldp` runs on the Gauss-Legendre panels of
`ldp.kernels`: no module of the package imports `scipy.integrate`, except
the one uncalled `quad` in `ldp.hamiltonian` that perfbench/tracing.py
wraps to count adaptive quadrature calls, and that line says so."""

import ast
from pathlib import Path

import ldp

_SRC = Path(ldp.__file__).parent
_KEPT = ("hamiltonian.py", "quad")


def _integrate_imports(path):
    """(line, name) of every name imported from scipy.integrate."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            mod = getattr(node, "module", None)
            for alias in node.names:
                full = f"{mod}.{alias.name}" if mod else alias.name
                if full.startswith("scipy.integrate"):
                    found.append((node.lineno, alias.name))
    return found


def test_no_scipy_integrate_in_src():
    files = sorted(_SRC.glob("*.py"))
    assert any(f.name == "kernels.py" for f in files)
    for path in files:
        for line, name in _integrate_imports(path):
            assert (path.name, name) == _KEPT, (
                f"{path.name}:{line} imports {name} from scipy.integrate")
            before = path.read_text().splitlines()[max(0, line - 3):line - 1]
            assert any("perfbench/tracing.py" in s for s in before), (
                f"{path.name}:{line}: the kept import lost its comment")
