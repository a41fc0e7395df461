import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gpesoliton import analytic
from gpesoliton.energy import TrapSpec, hamiltonian
from gpesoliton.errors import DomainError
from gpesoliton.grid import Wavefunction, cylindrical_grid, line_grid

PI = math.pi


class TestSolitonProfile:
    def test_peak_value(self):
        assert analytic.soliton_profile(5.0, 0.0) == pytest.approx(
            math.sqrt(5) / (4 * PI), rel=1e-12)

    def test_even_in_s(self):
        s = np.linspace(0.1, 30, 50)
        assert np.allclose(analytic.soliton_profile(5.0, s),
                           analytic.soliton_profile(5.0, -s), rtol=0, atol=0)

    def test_line_norm(self):
        # quadrature oracle against the exact 2 A^2 / b identity; the truncated
        # tail mass is exp(-2 b s_max)/pi, so the box spans 13 soliton scales
        Q = 5.0
        half = 13.0 / analytic.soliton_inverse_width(Q)
        g = line_grid(-half, half, 4096)
        phi = analytic.soliton_profile(Q, g.s)
        assert float(g.integrate(phi ** 2)) == pytest.approx(1 / PI, abs=1e-10)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            analytic.soliton_profile(0.0, 1.0)

    def test_phase_rate(self):
        assert analytic.soliton_phase_rate(5.0) == pytest.approx(25 / (128 * PI ** 2), rel=1e-12)


class TestSolitonWidth:
    def test_value_q5(self):
        assert analytic.soliton_width(5.0) == pytest.approx(4.5586, abs=2e-4)

    def test_inverse_q_scaling(self):
        assert analytic.soliton_width(10.0) == pytest.approx(
            0.5 * analytic.soliton_width(5.0), rel=1e-12)

    def test_constant_product(self):
        for Q in (0.5, 2.0, 5.0, 17.0):
            assert Q * analytic.soliton_width(Q) == pytest.approx(
                4 * PI ** 2 / math.sqrt(3), rel=1e-12)

    def test_second_moment_quadrature(self):
        Q = 5.0
        half = 10.0 / analytic.soliton_inverse_width(Q)
        g = line_grid(-half, half, 8192)
        phi = analytic.soliton_profile(Q, g.s)
        s2 = float(g.integrate(g.s ** 2 * phi ** 2)) / float(g.integrate(phi ** 2))
        assert s2 == pytest.approx(16 * PI ** 4 / 75, rel=1e-3)
        assert s2 == pytest.approx(analytic.soliton_second_moment(Q), rel=1e-3)


class TestDominanceRatio:
    def test_reference_point(self):
        assert float(analytic.dominance_ratio(5.0, 1.0, 0.0)) == pytest.approx(
            16 * PI ** 2 * math.e / 25, rel=1e-12)

    def test_axis_is_zero(self):
        assert float(analytic.dominance_ratio(5.0, 0.0, 3.0)) == 0.0

    def test_grows_along_s(self):
        vals = analytic.dominance_ratio(5.0, 1.0, np.array([0.0, 10.0, 50.0]))
        assert vals[0] < vals[1] < vals[2]


class TestGaussianGroundState:
    def test_norm_on_grid(self):
        g = cylindrical_grid(5.0, -8.0, 8.0, 2000, 128)
        u = analytic.gaussian_ground_state(0.4, g.rho_coords(), g.s_coords())
        assert float(g.integrate(u ** 2)) == pytest.approx(1.0, abs=1e-6)

    def test_isotropic_form(self):
        val = analytic.gaussian_ground_state(1.0, 1.3, -0.7)
        assert float(val) == pytest.approx(
            PI ** -0.75 * math.exp(-0.5 * (1.3 ** 2 + 0.7 ** 2)), rel=1e-12)

    def test_rejects_bad_lambda(self):
        with pytest.raises(DomainError):
            analytic.gaussian_ground_state(0.0, 1.0, 1.0)


class TestCompositeProfile:
    def test_norm(self):
        Q = 5.0
        half = 9.0 / analytic.soliton_inverse_width(Q)
        g = cylindrical_grid(5.0, -half, half, 2000, 512)
        u = analytic.composite_profile(Q, g.rho_coords(), g.s_coords())
        assert float(g.integrate(np.abs(u) ** 2)) == pytest.approx(1.0, abs=1e-6)

    def test_peak_q10(self):
        assert float(analytic.composite_profile(10.0, 0.0, 0.0)) == pytest.approx(
            math.sqrt(10) / (4 * PI), rel=1e-12)

    def test_transverse_section_gaussian(self):
        rho = np.linspace(0, 3, 31)
        for Q in (2.0, 10.0):
            sec = analytic.composite_profile(Q, rho, 0.0)
            ratio = sec / sec[0]
            assert np.allclose(ratio, np.exp(-0.5 * rho ** 2), rtol=1e-12)

    def test_chemical_potential_is_the_rayleigh_quotient(self):
        # best mu for the profile is <u|H|u>, which sits below 1 by the binding rate
        Q = 5.0
        g = cylindrical_grid(6.0, -30.0, 30.0, 96, 384)
        u = Wavefunction(g, analytic.composite_profile(Q, g.rho_coords(), g.s_coords()))
        mu_grid = hamiltonian(u, TrapSpec(0.0), Q).chemical_potential
        assert mu_grid == pytest.approx(1 - analytic.soliton_phase_rate(Q), abs=2e-3)


class TestVariationalSurface:
    def test_noninteracting_isotropic_minimum(self):
        assert analytic.variational_energy(0.0, 1.0, 1.0, 1.0) == pytest.approx(3.0)
        for w in (0.9, 1.1):
            assert analytic.variational_energy(0.0, 1.0, w, 1.0) > 3.0
            assert analytic.variational_energy(0.0, 1.0, 1.0, w) > 3.0

    def test_collapse_channel(self):
        # for w_s inside the attraction-dominated region the energy dives with w_rho
        e = analytic.variational_energy(30.0, 0.0, 1e-3, 0.5)
        assert e < -1e5

    def test_trap_confinement_at_large_widths(self):
        assert analytic.variational_energy(5.0, 0.5, 50.0, 50.0) > 100.0

    def test_closed_form_matches_quadrature(self):
        # oracle: sample the normalized Gaussian, integrate the functional with
        # analytic derivatives (no stencil error); radially fine for the axis term
        Q, lz, wr, ws = 5.0, 0.2, 1.1, 2.0
        g = cylindrical_grid(8.0, -14.0, 14.0, 3000, 320)
        rho, s = g.rho_coords(), g.s_coords()
        norm = (PI ** 1.5 * wr ** 2 * ws) ** -0.5
        u = norm * np.exp(-0.5 * (rho / wr) ** 2 - 0.5 * (s / ws) ** 2)
        grad2 = (rho / wr ** 2) ** 2 * u ** 2 + (s / ws ** 2) ** 2 * u ** 2
        quad = float(g.integrate(grad2 + (rho ** 2 + lz ** 2 * s ** 2) * u ** 2
                                 - 0.5 * Q * u ** 4))
        assert analytic.variational_energy(Q, lz, wr, ws) == pytest.approx(
            quad, rel=1e-6)


def _critical_q_scalar_oracle(lambda_z):
    """Independent route: reduce stationarity to one equation in w_s and scan."""
    C = 1 / (4 * math.sqrt(2) * PI ** 1.5)

    def has_minimum(Q):
        # w_rho^4 = 1 - C Q / w_s from the radial equation; substitute into axial
        ws_grid = np.geomspace(C * Q * (1 + 1e-9), 1e6, 20000)
        wr4 = 1 - C * Q / ws_grid
        f = -1 / ws_grid ** 3 + lambda_z ** 2 * ws_grid \
            + C * Q / (ws_grid ** 2 * np.sqrt(np.sqrt(wr4)) ** 2)
        sign_changes = np.nonzero(np.diff(np.sign(f)))[0]
        for k in sign_changes:
            ws = 0.5 * (ws_grid[k] + ws_grid[k + 1])
            wr = (1 - C * Q / ws) ** 0.25
            h = 1e-5
            def e(a, b):
                return analytic.variational_energy(Q, lambda_z, a, b)
            exx = (e(wr + h, ws) - 2 * e(wr, ws) + e(wr - h, ws)) / h ** 2
            eyy = (e(wr, ws + h) - 2 * e(wr, ws) + e(wr, ws - h)) / h ** 2
            exy = (e(wr + h, ws + h) - e(wr + h, ws - h)
                   - e(wr - h, ws + h) + e(wr - h, ws - h)) / (4 * h * h)
            if exx > 0 and exx * eyy - exy ** 2 > 0:
                return True
        return False

    lo, hi = 1.0, 40.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if has_minimum(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestVariationalCriticalQ:
    def test_cigar_bound(self):
        assert analytic.variational_critical_q(0.0) == pytest.approx(19.5, abs=0.3)

    def test_spherical_bound(self):
        assert analytic.variational_critical_q(1.0) == pytest.approx(16.7, abs=0.3)

    def test_cigar_exceeds_spherical(self):
        assert analytic.variational_critical_q(0.0) > analytic.variational_critical_q(1.0)

    def test_closed_form_pins(self):
        # the fold sits at w_rho^4 = 1/3 for the cigar and at w_rho = w_s = 5^{-1/4}
        # for the isotropic trap
        pref = 4 * math.sqrt(2) * PI ** 1.5
        assert analytic.variational_critical_q(0.0) == pytest.approx(
            pref * 3 ** -0.25 * math.sqrt(2 / 3), rel=1e-10)
        assert analytic.variational_critical_q(1.0) == pytest.approx(
            pref * 0.8 * 5 ** -0.25, rel=1e-10)

    @pytest.mark.parametrize("lz", [0.0, 1.0, 1e3, 1e4, 1e6])
    def test_fold_root_matches_a_50_digit_reference(self, lz):
        # the root r = w_rho^4 of the fold quartic by 50-digit bisection on [0, 1/2],
        # where the quartic falls from 1 to -7/16 - 8 lz^2 through its one root
        with localcontext() as ctx:
            ctx.prec = 50
            c = (Decimal(-15), 32 - 64 * Decimal(lz) ** 2, Decimal(-18), Decimal(0), Decimal(1))
            lo, hi = Decimal(0), Decimal("0.5")
            for _ in range(170):
                mid = (lo + hi) / 2
                if (((c[0] * mid + c[1]) * mid + c[2]) * mid + c[3]) * mid + c[4] > 0:
                    lo = mid
                else:
                    hi = mid
            r = 1 - analytic._fold(lz)
            assert abs(Decimal(r) - lo) <= Decimal("1e-11") * lo

    @pytest.mark.parametrize("lz", [0.0, 1.0, 5.0])
    def test_against_scalar_reduction_oracle(self, lz):
        assert analytic.variational_critical_q(lz) == pytest.approx(
            _critical_q_scalar_oracle(lz), abs=0.05)
