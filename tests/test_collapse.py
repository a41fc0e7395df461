import math

import pytest

from gpesoliton.collapse import find_threshold, optimality_scan
from gpesoliton.errors import DomainError
from gpesoliton.grid import cylindrical_grid, default_half_extent_s, spherical_grid
from gpesoliton.groundstate import DescentConfig

# isotropic collapse threshold, Ruprecht et al., PRA 51, 4704 (1995)
ISOTROPIC_QC = 8.0 * math.pi * 0.575


class TestFindThreshold:
    def test_spherical_bracket_contains_literature_value(self):
        res = find_threshold(spherical_grid(6.0, 96), 1.0, (10.0, 25.0), 0.5)
        assert res.q_hi - res.q_lo <= 0.5
        assert res.q_lo < ISOTROPIC_QC < res.q_hi
        assert all(t.resolved for t in res.trials)

    @pytest.mark.parametrize("bracket,reason", [
        ((20.0, 25.0), "q_min = 20.0 did not converge"),
        ((5.0, 10.0), "q_max = 10.0 did not collapse"),
    ])
    def test_invalid_bracket_rejected(self, bracket, reason):
        with pytest.raises(DomainError, match=reason):
            find_threshold(spherical_grid(6.0, 64), 1.0, bracket, 0.5)

    def test_probe_without_verdict_raises(self):
        # capped at 10 iterations, the probe at Q = 13.75 (13 to converge) ends
        # neither converged nor collapsed; taken as converged it would move q_lo
        # past Q_c.  Capped at 5, the q_min probe (8 to converge) does: the cap,
        # not the bracket, is at fault
        for max_iters, q in ((10, r"13\.75"), (5, r"10\.0")):
            with pytest.raises(DomainError, match=rf"no verdict at Q = {q} .*max_iters = "
                                                  rf"{max_iters}"):
                find_threshold(spherical_grid(6.0, 96), 1.0, (10.0, 25.0), 0.5,
                               DescentConfig(max_iters=max_iters))

    def test_verdicts_near_the_threshold_are_pinned(self):
        # bisection to 0.01 ends 0.007 wide around Q_c on this grid: the last
        # probes lie within 0.02 of the threshold on both sides, where a
        # descent that overshoots a barrier or stalls would change a verdict.
        # The fixed step with halving gave the same sequence and bracket.
        res = find_threshold(spherical_grid(6.0, 96), 1.0, (10.0, 25.0), 0.01)
        assert (res.q_lo, res.q_hi) == (14.3505859375, 14.35791015625)
        assert "".join("C" if t.converged else "X" for t in res.trials) == "CXXCXXCXCXXCX"

    def test_tol_below_the_reachable_width_rejected(self):
        # the midpoint of two adjacent floats is one of them: at tol 1e-300 the
        # bisection probed Q = 14.060420989990234 twice, with opposite verdicts,
        # and returned a bracket of zero width.  It reaches two ulps of q_max,
        # probing each Q once
        least = 2 * math.ulp(25.0)
        for tol in (1e-300, 0.5 * least):
            with pytest.raises(DomainError, match=rf"tol must be .* >= {least}, got {tol}$"):
                find_threshold(spherical_grid(6.0, 48), 1.0, (10.0, 25.0), tol)
        res = find_threshold(spherical_grid(6.0, 48), 1.0, (10.0, 25.0), least)
        qs = [t.Q for t in res.trials]
        assert len(set(qs)) == len(qs) and res.q_lo < res.q_hi

    def test_spherical_anisotropic_trap_rejected(self):
        # a spherical grid models the isotropic trap only; the trap check fires
        # at the first probe
        with pytest.raises(DomainError, match="lambda_z"):
            find_threshold(spherical_grid(6.0, 48), 0.3, (10.0, 25.0), 8.0)


def scan_grid(lambda_z, q_min=8.0):
    # the axial box holds the widest state in the bracket, the one at q_min
    half = default_half_extent_s(q_min, lambda_z)
    return cylindrical_grid(6.0, -half, half, 96, 384)


class TestOptimalityScan:
    def test_threshold_falls_toward_the_isotropic_trap(self):
        scan = optimality_scan([(lz, scan_grid(lz)) for lz in (0.5, 1.0)], (8.0, 30.0), 0.5)
        assert scan.monotone_nonincreasing
        (lz_half, half), (lz_iso, iso) = scan.table
        assert (lz_half, lz_iso) == (0.5, 1.0)
        assert iso.q_lo < ISOTROPIC_QC < iso.q_hi
        assert half.midpoint > iso.midpoint

    def test_lambda_above_one_rejected(self):
        with pytest.raises(DomainError, match="lambda_z values must lie in"):
            optimality_scan([(1.5, scan_grid(1.5))], (8.0, 30.0), 0.5)

    def test_probe_without_verdict_propagates(self):
        with pytest.raises(DomainError, match=r"no verdict at Q = 13\.75 "):
            optimality_scan([(1.0, spherical_grid(6.0, 96))], (10.0, 25.0), 0.5,
                            DescentConfig(max_iters=10))
