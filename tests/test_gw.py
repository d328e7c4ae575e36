"""gw module: offspring distributions, the recursion, closed forms, sampling."""

from __future__ import annotations

import io
import math

import pytest

from relaxmdim import gw
from relaxmdim import (
    OffspringDistribution,
    gw_sequence,
    monte_carlo_cr,
    poisson_closed_form,
)

LIMIT_C = (0.1408, 0.0544, 0.0294, 0.0185, 0.0128, 0.0094, 0.0072, 0.0057, 0.0046, 0.0038)


class TestOffspringDistribution:
    def test_poisson_mass_and_mean(self):
        xi = OffspringDistribution.poisson(1.0)
        assert sum(xi.pmf) == pytest.approx(1.0, abs=1e-11)
        assert xi.mean == pytest.approx(1.0, abs=1e-11)

    def test_geometric_critical_at_half(self):
        xi = OffspringDistribution.geometric(0.5)
        assert xi.mean == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"), 800.0])
    def test_poisson_rejects_a_nonpositive_or_nan_mean(self, lam):
        with pytest.raises(ValueError, match="lam must be positive"):
            OffspringDistribution.poisson(lam)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pmf([0.5, -0.1, 0.6])

    def test_rejects_deficient_mass(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pmf([0.5, 0.3])

    def test_pgf_at_one_is_total_mass(self):
        xi = OffspringDistribution.poisson(2.0)
        assert xi.pgf(1.0) == pytest.approx(sum(xi.pmf))

    def test_pgf_prime_is_mean_at_one(self):
        xi = OffspringDistribution.geometric(0.4)
        assert xi.pgf_prime(1.0) == pytest.approx(xi.mean)


class TestRecursion:
    def test_d1_equals_p0(self):
        for xi in (
            OffspringDistribution.poisson(1.0),
            OffspringDistribution.geometric(0.5),
            OffspringDistribution.from_pmf([0.25, 0.5, 0.25]),
        ):
            constants = gw_sequence(xi, 1)
            assert constants.d[1] == pytest.approx(xi.pmf[0])

    def test_d0_and_l0(self):
        xi = OffspringDistribution.poisson(1.0)
        constants = gw_sequence(xi, 0)
        assert constants.d[0] == 0.0
        assert constants.l[0] == pytest.approx(1 / math.e, abs=1e-12)

    def test_l_is_height_increment(self):
        # P(height == r) must equal P(height < r+1) - P(height < r)
        for xi in (
            OffspringDistribution.poisson(1.0),
            OffspringDistribution.geometric(0.5),
        ):
            constants = gw_sequence(xi, 11)
            for r in range(11):
                assert constants.l[r] == pytest.approx(
                    constants.d[r + 1] - constants.d[r], abs=1e-12
                )

    def test_limit_constant_regression(self):
        constants = gw_sequence(OffspringDistribution.poisson(1.0), 9)
        for r, expected in enumerate(LIMIT_C):
            assert constants.c[r] == pytest.approx(expected, abs=5e-5)

    def test_c_nonnegative_and_decreasing_for_unit_poisson(self):
        constants = gw_sequence(OffspringDistribution.poisson(1.0), 20)
        assert all(c >= 0 for c in constants.c)
        assert all(a > b for a, b in zip(constants.c, constants.c[1:]))

    def test_extinction_limit(self):
        constants = gw_sequence(OffspringDistribution.poisson(1.0), 50)
        assert constants.d[50] > 0.95

    def test_truncation_robustness(self, monkeypatch):
        coarse_xi = OffspringDistribution.poisson(1.0)  # the tail past TAIL_BOUND = 1e-12 dropped
        monkeypatch.setattr(gw, "TAIL_BOUND", 1e-15)
        fine_xi = OffspringDistribution.poisson(1.0)
        assert len(fine_xi.pmf) > len(coarse_xi.pmf)
        coarse, fine = gw_sequence(coarse_xi, 9), gw_sequence(fine_xi, 9)
        for a, b in zip(coarse.c, fine.c):
            assert abs(a - b) < 1e-11

    def test_degenerate_distribution_is_singular(self):
        xi = OffspringDistribution.from_pmf([0.0, 1.0])
        with pytest.raises(ValueError, match="singular"):
            gw_sequence(xi, 1)

    def test_non_critical_warns(self):
        with pytest.warns(UserWarning, match="mean"):
            gw_sequence(OffspringDistribution.poisson(2.0), 2)

    def test_csv_roundtrip(self):
        constants = gw_sequence(OffspringDistribution.poisson(1.0), 3)
        buf = io.StringIO()
        constants.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "r,d,l,s,e,c"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == 0.0


class TestClosedForm:
    def test_matches_truncated_recursion(self, monkeypatch):
        closed = poisson_closed_form(9)
        monkeypatch.setattr(gw, "TAIL_BOUND", 1e-15)
        truncated = gw_sequence(OffspringDistribution.poisson(1.0), 9)
        for field in ("d", "l", "s", "e", "c"):
            for a, b in zip(getattr(closed, field), getattr(truncated, field)):
                assert abs(a - b) < 1e-10

    def test_r0_values(self):
        closed = poisson_closed_form(0)
        s0 = (1 / math.e) / (1 - math.exp(-1))
        assert closed.s[0] == pytest.approx(s0, abs=1e-12)
        assert closed.c[0] == pytest.approx(s0 + math.exp(-s0) - 1, abs=1e-12)
        assert closed.c[0] == pytest.approx(0.1408, abs=5e-5)

    def test_e_identity(self):
        closed = poisson_closed_form(6)
        for r in range(7):
            expected = 1 - math.exp(-closed.s[r]) - (closed.s[r] - closed.l[r])
            assert closed.e[r] == pytest.approx(expected, abs=1e-12)


class TestMonteCarlo:
    def test_r0_matches_limit(self):
        xi = OffspringDistribution.poisson(1.0)
        mean, stderr = monte_carlo_cr(xi, r=0, n=2000, reps=20, seed=2024)
        assert abs(mean - 0.1408) < 0.02
        assert stderr < 0.01

    def test_r1_matches_limit(self):
        xi = OffspringDistribution.poisson(1.0)
        mean, _ = monte_carlo_cr(xi, r=1, n=2000, reps=20, seed=77)
        assert abs(mean - 0.0544) < 0.015

    def test_large_r_contributes_zero(self):
        xi = OffspringDistribution.poisson(1.0)
        mean, stderr = monte_carlo_cr(xi, r=40, n=60, reps=4, seed=5)
        assert mean == 0.0

    def test_needs_two_reps(self):
        with pytest.raises(ValueError):
            monte_carlo_cr(OffspringDistribution.poisson(1.0), 0, 100, 1, 0)
