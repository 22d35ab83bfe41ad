"""Checks of the independent oracles in _oracles, and of the facts about
the model on which criteria C7 and C9 rest."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from _oracles import (compact_walk_exponent, demo_terminal_exponent,
                      irwin_hall_cdf, irwin_hall_pdf, lattice_walk_exponent)
from ldp import SimConfig, simulate

RS_C7 = (8, 12, 16, 20, 24)
RS_C9 = (10.0, 15.0, 20.0)


def test_irwin_hall_cdf_exact_values():
    for n in range(1, 12):
        assert irwin_hall_cdf(n, Fraction(n, 2)) == Fraction(1, 2)
        assert irwin_hall_cdf(n, 0) == 0 and irwin_hall_cdf(n, n) == 1
    assert irwin_hall_cdf(2, Fraction(1, 2)) == Fraction(1, 8)
    assert irwin_hall_cdf(3, 1) == Fraction(1, 6)


def test_irwin_hall_pdf_integrates_to_cdf():
    for n in (2, 5, 9):
        for x in (0.7, n / 3, n - 0.4):
            mass = quad(lambda s: irwin_hall_pdf(n, s), 0.0, x,
                        points=[k for k in range(1, n) if k < x] or None)[0]
            assert mass == pytest.approx(float(irwin_hall_cdf(
                n, Fraction(x))), abs=1e-10)


def test_compact_oracles_against_monte_carlo():
    # 400k paths of the walk; the tolerance is 5 standard errors
    rng = np.random.default_rng(7)
    n_paths, R = 400_000, 2.0
    jumps = rng.poisson(1.0, n_paths)
    u = rng.uniform(-1.0, 1.0, (n_paths, int(jumps.max())))
    x = np.sum(u * (np.arange(u.shape[1]) < jumps[:, None]), axis=1)
    p_mc = float(np.mean(np.abs(x) > R))
    p = math.exp(-compact_walk_exponent(int(R)))
    assert abs(p_mc - p) <= 5 * math.sqrt(p / n_paths)


def test_demo_oracle_against_monte_carlo():
    rng = np.random.default_rng(11)
    n_paths, c = 400_000, 3.0
    left = rng.standard_gamma(rng.poisson(0.5, n_paths).astype(float))
    n_right = rng.poisson(0.5, n_paths)
    u = rng.uniform(0.0, 1.0, (n_paths, int(n_right.max())))
    right = np.sum(u * (np.arange(u.shape[1]) < n_right[:, None]), axis=1)
    p_mc = float(np.mean(left - right > c))
    p = math.exp(-demo_terminal_exponent(c, 0.0))
    assert abs(p_mc - p) <= 5 * math.sqrt(p / n_paths)


def test_c7_premise_exact_ratios_fall_and_exceed_old_bracket():
    # -ln P(|X_1| > R) / (R ln R) decreases towards 1/rho = 1 from above,
    # so the ratios can neither be non-decreasing nor end in [0.4, 1.3]
    ratios = [compact_walk_exponent(R) / (R * math.log(R)) for R in RS_C7]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.3
    assert ratios[0] == pytest.approx(1.787, abs=5e-4)
    assert ratios[-1] == pytest.approx(1.511, abs=5e-4)


def test_c9_premise_oracle_factor_falls_below_old_bracket():
    factors = [demo_terminal_exponent(R, 2.0) / demo_terminal_exponent(R, -2.0)
               for R in RS_C9]
    assert all(b < a for a, b in zip(factors, factors[1:]))
    assert factors[-1] < 1.5


def test_lattice_walk_converges_to_continuum():
    # the stencil w_k = h J(k h) gives the support edge a full cell, which
    # fattens the tail: the lattice exponent lies below the continuum one
    # by O(h)
    exact = compact_walk_exponent(8)
    gaps = [exact - lattice_walk_exponent(8, h) for h in (1 / 16, 1 / 32,
                                                          1 / 64)]
    assert all(g > 0 for g in gaps)
    for a, b in zip(gaps, gaps[1:]):
        assert b == pytest.approx(a / 2, rel=0.1)


@pytest.mark.parametrize("R", [8.0, 24.0])
def test_barrier_solver_tracks_its_lattice_walk(compact_kernel, R):
    cfg = SimConfig(kernel=compact_kernel, R=R, T=1.0, bc_mode="barrier")
    v0 = float(simulate(cfg).at_time(1.0).sample(0.0))
    lattice = lattice_walk_exponent(R, cfg.h,
                                    rho=compact_kernel.params["rho"])
    # exit >= terminal: the exit exponent lies at or below the terminal one
    assert 0.99 * lattice <= -math.log(v0) <= lattice
