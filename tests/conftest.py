import json

import numpy as np
import pytest

import _verdicts
from ldp import Hamiltonian, build_kernel


def pytest_terminal_summary(terminalreporter):
    if _verdicts.lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_verdicts.lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def compact_kernel():
    return build_kernel("compact_uniform", 1, {"rho": 1.0})


@pytest.fixture(scope="session")
def critical_kernel():
    return build_kernel("exp_linear", 1, {"alpha": 1.0})


@pytest.fixture(scope="session")
def gaussian_tail_kernel():
    return build_kernel("exp_power", 1, {"alpha": 2.0})


@pytest.fixture(scope="session")
def demo_kernel():
    return build_kernel("asymmetric_1d_demo", 1)


@pytest.fixture(scope="session")
def compact_h(compact_kernel):
    return Hamiltonian.from_kernel(compact_kernel)


@pytest.fixture(scope="session")
def critical_h(critical_kernel):
    return Hamiltonian.from_kernel(critical_kernel)


@pytest.fixture
def kernel_spec_path(tmp_path):
    """Write a kernel spec JSON and return its path."""
    def _write(spec, name="kernel.json"):
        p = tmp_path / name
        p.write_text(json.dumps(spec))
        return str(p)
    return _write


@pytest.fixture(scope="session")
def anisotropic_drifted_h():
    """The kernel-free 2-D H(p) = p.A p + B.p with A = diag(1, 2) and
    B = (0.5, -0.3), returned with A and B; its conjugate is
    L(q) = (q - B).A^{-1}(q - B) / 4."""
    A = np.diag([1.0, 2.0])
    B = np.array([0.5, -0.3])
    h = Hamiltonian.from_callables(
        value=lambda p: float(p @ A @ p + B @ p),
        grad=lambda p: 2.0 * A @ p + B,
        hess=lambda p: 2.0 * A,
        dimension=2, symmetric=False)
    return h, A, B
