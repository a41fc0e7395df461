import math

import numpy as np
import pytest

from gpesoliton import analytic
from gpesoliton.dynamics import boost
from gpesoliton.errors import DomainError
from gpesoliton.grid import Wavefunction, cylindrical_grid, line_grid, spherical_grid
from gpesoliton.observables import moments

PI = math.pi


@pytest.fixture(scope="module")
def soliton5():
    g = line_grid(-45.0, 45.0, 2048)
    chi = math.sqrt(PI) * analytic.soliton_profile(5.0, g.s)
    return Wavefunction(g, chi.astype(complex)).normalized()


class TestMoments:
    def test_composite_soliton_width(self):
        Q = 5.0
        half = 10.0 / analytic.soliton_inverse_width(Q)
        g = cylindrical_grid(6.0, -half, half, 96, 768)
        u = Wavefunction(g, analytic.composite_profile(Q, g.rho_coords(), g.s_coords()))
        m = moments(u)
        assert m.x_s == pytest.approx(0.0, abs=1e-9)
        assert m.w_s == pytest.approx(analytic.soliton_width(Q), rel=5e-3)

    def test_isotropic_gaussian_widths(self):
        g = cylindrical_grid(8.0, -8.0, 8.0, 256, 256)
        u = Wavefunction(g, analytic.gaussian_ground_state(
            1.0, g.rho_coords(), g.s_coords()))
        m = moments(u)
        assert m.w_s == pytest.approx(1 / math.sqrt(2), rel=1e-3)
        assert m.w_rho == pytest.approx(1.0, rel=1e-3)
        # sampled peak sits half a spacing off the true maximum
        assert m.peak_density == pytest.approx(PI ** -1.5, rel=3e-3)

    def test_even_state_centered(self, soliton5):
        assert moments(soliton5).x_s == pytest.approx(0.0, abs=1e-12)

    def test_zero_field_rejected(self):
        g = line_grid(-1.0, 1.0, 32)
        with pytest.raises(DomainError):
            moments(Wavefunction(g, np.zeros(32)))

    def test_spherical_rms_radius(self):
        g = spherical_grid(8.0, 256)
        u = Wavefunction(g, PI ** -0.75 * np.exp(-0.5 * g.r ** 2))
        m = moments(u)
        assert m.w_rho == pytest.approx(math.sqrt(1.5), rel=1e-3)
        assert math.isnan(m.w_s)


class TestMomentum:
    def test_boost_shifts_momentum_exactly(self, soliton5):
        # the local-phase-increment quadrature turns a plane-wave boost into an
        # exact shift
        m0 = moments(soliton5).p_s
        m1 = moments(boost(soliton5, 0.5)).p_s
        assert m1 - m0 == pytest.approx(0.5, abs=1e-10)

    def test_boost_on_complex_state(self, soliton5):
        wiggly = Wavefunction(soliton5.grid,
                              soliton5.values * np.exp(0.3j * np.sin(soliton5.grid.s)))
        m0 = moments(wiggly).p_s
        m1 = moments(boost(wiggly, -1.2)).p_s
        assert m1 - m0 == pytest.approx(-1.2, abs=1e-10)

    def test_boost_preserves_density(self, soliton5):
        b = boost(soliton5, 0.7)
        assert np.allclose(np.abs(b.values), np.abs(soliton5.values),
                           rtol=1e-14, atol=0)
        assert np.array_equal(boost(soliton5, 0.0).values, soliton5.values)

    def test_real_state_zero_momentum(self, soliton5):
        assert moments(soliton5).p_s == pytest.approx(0.0, abs=1e-12)

