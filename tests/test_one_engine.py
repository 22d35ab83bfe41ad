"""The H engine's decisions stay behind `ldp.hamiltonian`: how a batch is
split by sign and keyed to a quadrature rule (`_jump_moments`, `_rung`)
and the margin kept from a finite edge of the domain of H
(`_DOMAIN_MARGIN`, which other modules reach through `_inner_domain`).
No other module of the package names them.  Every L solve of
`ldp.conjugate` reaches H through its batched calls, `h.batch` and
`h.derivatives`, never through a scalar one."""

import ast
from pathlib import Path

import ldp

_SRC = Path(ldp.__file__).parent
_ENGINE = {"_jump_moments", "_rung", "_DOMAIN_MARGIN"}


def _names(path):
    """(line, name) of every name, attribute, imported name and function
    defined."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((node.lineno, a.name.split(".")[-1])
                         for a in node.names)
        elif isinstance(node, ast.FunctionDef):
            found.append((node.lineno, node.name))
    return found


def test_engine_decisions_stay_in_hamiltonian():
    files = sorted(_SRC.glob("*.py"))
    seen = set()
    for path in files:
        for line, name in _names(path):
            if name in _ENGINE:
                assert path.name == "hamiltonian.py", (
                    f"{path.name}:{line} names {name}")
                seen.add(name)
    # the guard reads the names it guards
    assert seen == _ENGINE


def test_conjugate_makes_no_scalar_h_call():
    scalar = {"value", "grad", "grad_1d", "hess_quadform"}
    tree = ast.parse((_SRC / "conjugate.py").read_text())
    called = [(node.lineno, node.func.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)]
    assert not [c for c in called if c[1] in scalar]
    # the guard sees the batched calls it allows
    assert {"batch", "derivatives"} <= {name for _, name in called}
