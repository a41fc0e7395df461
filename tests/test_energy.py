import math

import numpy as np
import pytest

from gpesoliton import analytic
from gpesoliton.energy import (EnergyBreakdown, TrapSpec, hamiltonian, gradient,
                               quartic_coefficient, trap_potential)
from gpesoliton.errors import DomainError, GridMismatchError
from gpesoliton.grid import (Geometry, Wavefunction, cylindrical_grid, line_grid,
                             spherical_grid)

PI = math.pi


@pytest.fixture(scope="module")
def iso_gaussian():
    g = cylindrical_grid(6.0, -6.0, 6.0, 160, 160)
    u = analytic.gaussian_ground_state(1.0, g.rho_coords(), g.s_coords())
    return Wavefunction(g, u).normalized()


class TestConventionOracle:
    def test_noninteracting_isotropic_value_is_three(self, iso_gaussian):
        # pins the doubled convention: <grad u, grad u> + <u, V u> = 3
        e = hamiltonian(iso_gaussian, TrapSpec(1.0), 0.0)
        assert e.total == pytest.approx(3.0, abs=2e-3)
        assert e.interaction == 0.0

    def test_noninteracting_chemical_potentials(self, iso_gaussian):
        e = hamiltonian(iso_gaussian, TrapSpec(1.0), 0.0)
        assert e.chemical_potential == pytest.approx(1.5, abs=1e-3)
        g = iso_gaussian.grid
        u04 = Wavefunction(g, analytic.gaussian_ground_state(
            0.4, g.rho_coords(), g.s_coords())).normalized()
        e04 = hamiltonian(u04, TrapSpec(0.4), 0.0)
        assert e04.chemical_potential == pytest.approx(1.2, abs=1e-3)

    def test_zero_field(self, iso_gaussian):
        z = Wavefunction(iso_gaussian.grid, np.zeros(iso_gaussian.grid.shape))
        e = hamiltonian(z, TrapSpec(1.0), 5.0)
        assert e == EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestCompositeInteraction:
    def test_sech4_oracle(self):
        # closed form: -(Q/2) * (pi/2) * A^4 * 4/(3b) = -Q^2/(96 pi^2)
        Q = 5.0
        half = 12.0 / analytic.soliton_inverse_width(Q)
        g = cylindrical_grid(5.0, -half, half, 1500, 768)
        u = Wavefunction(g, analytic.composite_profile(Q, g.rho_coords(), g.s_coords()))
        e = hamiltonian(u, TrapSpec(0.0), Q)
        assert e.interaction == pytest.approx(-Q ** 2 / (96 * PI ** 2), rel=1e-5)

    def test_interaction_linear_in_q(self, iso_gaussian):
        e1 = hamiltonian(iso_gaussian, TrapSpec(1.0), 2.0)
        e2 = hamiltonian(iso_gaussian, TrapSpec(1.0), 4.0)
        assert e2.interaction == pytest.approx(2 * e1.interaction, rel=1e-12)
        assert e2.kinetic == pytest.approx(e1.kinetic, rel=1e-12)
        assert e2.trap == pytest.approx(e1.trap, rel=1e-12)


class TestLineFunctional:
    def test_unit_norm_soliton_components(self):
        # frozen closed forms for the unit-norm line soliton:
        # K = Q^2/(192 pi^2), I = -Q^2/(96 pi^2), mu = -Q^2/(128 pi^2)
        Q = 5.0
        half = 14.0 / analytic.soliton_inverse_width(Q)
        g = line_grid(-half, half, 8192)
        chi = math.sqrt(PI) * analytic.soliton_profile(Q, g.s)
        e = hamiltonian(Wavefunction(g, chi), TrapSpec(0.0), Q)
        assert e.kinetic == pytest.approx(Q ** 2 / (192 * PI ** 2), rel=1e-5)
        assert e.interaction == pytest.approx(-Q ** 2 / (96 * PI ** 2), rel=1e-5)
        assert e.trap == 0.0
        assert e.chemical_potential == pytest.approx(-Q ** 2 / (128 * PI ** 2), rel=1e-4)

    def test_quartic_coefficient_per_geometry(self):
        assert quartic_coefficient(Geometry.LINE, 5.0) == pytest.approx(5 / (4 * PI))
        assert quartic_coefficient(Geometry.CYLINDRICAL, 5.0) == 2.5
        assert quartic_coefficient(Geometry.SPHERICAL_RADIAL, 5.0) == 2.5
        with pytest.raises(DomainError):
            quartic_coefficient(Geometry.LINE, -1.0)


class TestInvariants:
    def test_phase_invariance(self, iso_gaussian):
        e0 = hamiltonian(iso_gaussian, TrapSpec(1.0), 3.0)
        rot = Wavefunction(iso_gaussian.grid,
                           iso_gaussian.values * np.exp(1j * 0.7))
        e1 = hamiltonian(rot, TrapSpec(1.0), 3.0)
        assert e1.total == pytest.approx(e0.total, rel=1e-12)
        assert e1.kinetic == pytest.approx(e0.kinetic, rel=1e-12)

    def test_total_is_component_sum(self, iso_gaussian):
        g = iso_gaussian.grid
        ext = 0.05 * g.s_coords() ** 2 * np.ones(g.shape)
        e = hamiltonian(iso_gaussian, TrapSpec(1.0), 3.0, external=ext)
        assert e.total == pytest.approx(
            e.kinetic + e.trap + e.interaction + e.external, abs=1e-12)
        assert e.external > 0

    @pytest.mark.parametrize("make, lambda_z", [
        (lambda: line_grid(-6.0, 6.0, 96), 0.7),
        (lambda: cylindrical_grid(4.0, -5.0, 5.0, 24, 40), 0.7),
        (lambda: spherical_grid(5.0, 48), 1.0),
    ], ids=["line", "cylindrical", "spherical"])
    def test_components_match_full_field_integrals(self, make, lambda_z):
        # the separable trap sums and the edge-form kinetic energy against the
        # integrals of whole fields they replace
        g = make()
        rng = np.random.default_rng(3)
        v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        ext = rng.standard_normal(g.shape)
        trap = TrapSpec(lambda_z)
        e = hamiltonian(Wavefunction(g, v), trap, 2.0, external=ext)
        density = np.abs(v) ** 2
        c = quartic_coefficient(g.kind, 2.0)
        ref = {"kinetic": -float(np.real(g.integrate(np.conj(v) * g.laplacian(v)))),
               "trap": float(g.integrate(trap_potential(g, trap) * density)),
               "interaction": -c * float(g.integrate(density ** 2)),
               "external": 2.0 * float(g.integrate(ext * density))}
        for name, want in ref.items():
            assert abs(getattr(e, name) - want) <= 1e-13 * abs(want), name

    def test_external_shape_check(self, iso_gaussian):
        with pytest.raises(GridMismatchError):
            hamiltonian(iso_gaussian, TrapSpec(1.0), 0.0, external=np.zeros(3))


class TestSphericalTrap:
    def test_requires_isotropy(self):
        g = spherical_grid(6.0, 64)
        u = Wavefunction(g, math.pi ** -0.75 * np.exp(-0.5 * g.r ** 2)).normalized()
        with pytest.raises(GridMismatchError):
            hamiltonian(u, TrapSpec(0.5), 1.0)
        e = hamiltonian(u, TrapSpec(1.0), 0.0)
        assert e.total == pytest.approx(3.0, abs=5e-3)

    def test_trap_potential_forms(self):
        gl = line_grid(-2.0, 2.0, 32)
        assert np.allclose(trap_potential(gl, TrapSpec(0.5)), 0.25 * gl.s ** 2)
        gs = spherical_grid(2.0, 32)
        assert np.allclose(trap_potential(gs, TrapSpec(1.0)), gs.r ** 2)


class TestGradient:
    def test_gradient_is_twice_gpe_operator(self):
        # finite-difference directional derivative of the functional
        g = line_grid(-8.0, 8.0, 128)
        rng = np.random.default_rng(3)
        v = np.exp(-0.5 * g.s ** 2) * (1 + 0.1 * rng.standard_normal(128))
        d = np.exp(-g.s ** 2) * rng.standard_normal(128)
        trap, Q = TrapSpec(0.3), 2.0
        grad = gradient(v, g, trap, Q)
        eps = 1e-6

        def energy(f):
            return hamiltonian(Wavefunction(g, f), trap, Q).total

        fd = (energy(v + eps * d) - energy(v - eps * d)) / (2 * eps)
        analytic_dot = 2 * float(np.real(g.integrate(np.conj(grad) * d)))
        assert fd == pytest.approx(analytic_dot, rel=1e-6)
