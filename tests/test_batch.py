"""The batched 1-D H engine against the adaptive-quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldp.hamiltonian as ham
from ldp import Hamiltonian, build_kernel, scaled_kernel
from ldp.hamiltonian import HTable, eval_batch

import _quad_oracle as Q

# every 1-D family, with the largest |p| taken where the domain is
# unbounded (exp_power: H(12) ~ e^{256}); elsewhere |p| stays within 0.99
# of the domain edge
FAMILIES = {
    "compact_uniform": ("compact_uniform", {"rho": 1.0}, 20.0),
    "compact_custom": ("compact_custom", {"rho": 1.5, "dip_a": 0.3,
                                          "dip_b": 0.8, "dip_factor": 0.25},
                       20.0),
    "exp_power": ("exp_power", {"alpha": 1.5}, 12.0),
    "exp_linear": ("exp_linear", {"alpha": 2.0}, None),
    "super_exp": ("super_exp", {}, 20.0),
    "tempered_stable": ("tempered_stable", {"alpha": 0.5, "lam": 1.0}, None),
    "tempered_stable_15": ("tempered_stable", {"alpha": 1.5, "lam": 2.0},
                           None),
    "asymmetric_1d_demo": ("asymmetric_1d_demo", {}, 20.0),
}
_H = {name: Hamiltonian.from_kernel(build_kernel(family, 1, params))
      for name, (family, params, _) in FAMILIES.items()}


def _p_range(name):
    lo, hi = _H[name].domain
    cap = FAMILIES[name][2]
    return (0.99 * lo if math.isfinite(lo) else -cap,
            0.99 * hi if math.isfinite(hi) else cap)


def _close(value, ref):
    # relative 1e-9; the absolute floor only matters where the integral
    # crosses 0 (H' and the essential gradient at p = 0)
    return abs(value - ref) <= 1e-9 * abs(ref) + 1e-15


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=12, deadline=None)
@given(u=st.floats(0.0, 1.0))
def test_engine_matches_quad_oracle(name, u):
    h = _H[name]
    k, params = h.kernel, h.params
    lo, hi = _p_range(name)
    p = lo + u * (hi - lo)
    got = eval_batch(params, [p], (0, 1, 2))[:, 0]
    for m in (0, 1, 2):
        ref = Q.h_moment(k, p, m, params.compensated, params.delta_split)
        assert _close(got[m], ref), (m, p, got[m], ref)
    ess = eval_batch(params, [p], (0, 1), essential=True)[:, 0]
    for m in (0, 1):
        ref = Q.h_ess(k, p, m)
        assert _close(ess[m], ref), ("ess", m, p, ess[m], ref)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_batch_independent_of_chunks_and_order(name, monkeypatch):
    h = _H[name]
    lo, hi = _p_range(name)
    ps = np.linspace(lo, hi, 41)
    whole = eval_batch(h.params, ps, (0, 1, 2))
    perm = np.random.default_rng(3).permutation(ps.size)
    shuffled = eval_batch(h.params, ps[perm], (0, 1, 2))
    monkeypatch.setattr(ham, "_CHUNK", 1)   # one p per chunk
    single = eval_batch(h.params, ps, (0, 1, 2))
    scale = np.abs(whole) + 1e-300
    assert np.all(np.abs(shuffled[:, np.argsort(perm)] - whole)
                  <= 1e-14 * scale)
    assert np.all(np.abs(single - whole) <= 1e-14 * scale)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_table_slopes_nondecreasing(name):
    h = _H[name]
    lo, hi = _p_range(name)
    tab = HTable(h, np.linspace(lo, hi, 401))
    steps = np.diff(tab.slopes)
    assert np.all(steps >= -1e-12 * np.max(np.abs(tab.slopes)))
    # the table's H' lies between the slopes of its neighbouring cells
    inner = tab.Hg[1:-1]
    assert np.all(tab.slopes[:-1] <= inner + 1e-9 * np.abs(inner))
    assert np.all(inner <= tab.slopes[1:] + 1e-9 * np.abs(inner))


@pytest.mark.parametrize("name", ["exp_linear", "tempered_stable"])
def test_tiny_kernels_keep_relative_accuracy(name):
    # panels are dropped relative to the kernel's own scale
    h = _H[name]
    tiny = Hamiltonian.from_kernel(scaled_kernel(h.kernel, 1e-30))
    ps = np.linspace(*_p_range(name), 9)
    np.testing.assert_allclose(tiny.batch(ps, (0, 1, 2)),
                               1e-30 * h.batch(ps, (0, 1, 2)),
                               rtol=1e-12, atol=1e-45)


def test_scalar_operations_are_batches_of_one():
    h = _H["tempered_stable"]
    p = 0.37
    got = eval_batch(h.params, [p], (0, 1, 2))[:, 0]
    assert h.value(p) == got[0]
    assert h.grad_1d(p) == got[1]
    assert h.hess_quadform(p, 2.0) == 4.0 * got[2]


def test_callable_fallback_loops_over_the_scalar_callable():
    h = Hamiltonian.from_callables(
        value=lambda p: float(np.ravel(p)[0]) ** 4,
        grad=lambda p: np.array([4 * float(np.ravel(p)[0]) ** 3]),
        hess=lambda p: 12 * float(np.ravel(p)[0]) ** 2)
    ps = np.array([-1.5, 0.0, 2.0])
    np.testing.assert_array_equal(
        h.batch(ps, (0, 1, 2)), [ps ** 4, 4 * ps ** 3, 12 * ps ** 2])
