import math

import numpy as np
import pytest

from gpesoliton import analytic, groundstate
from gpesoliton.energy import TrapSpec, gradient, hamiltonian, trap_potential
from gpesoliton.errors import BlowupError, DomainError
from gpesoliton.grid import (Geometry, Wavefunction, cylindrical_grid, default_half_extent_s,
                             line_grid, spherical_grid)
from gpesoliton.groundstate import (DescentConfig, SobolevPreconditioner, default_initial,
                                    descent_shift, ray_step, reference_peak, relax)
from gpesoliton.observables import moments

FAST = DescentConfig(residual_tol=1e-5, max_iters=120_000)


class TestDefaultInitial:
    @pytest.mark.parametrize("make,trap,Q", [
        (lambda: cylindrical_grid(5.0, -6.0, 6.0, 32, 32), TrapSpec(0.4), 0.1),
        (lambda: cylindrical_grid(5.0, -20.0, 20.0, 32, 64), TrapSpec(0.0), 5.0),
        (lambda: line_grid(-20.0, 20.0, 64), TrapSpec(0.0), 5.0),
        (lambda: line_grid(-10.0, 10.0, 64), TrapSpec(0.5), 0.0),
        (lambda: spherical_grid(6.0, 64), TrapSpec(1.0), 3.0),
    ])
    def test_unit_norm(self, make, trap, Q):
        u = default_initial(make(), trap, Q)
        assert u.norm() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_seed_when_trapped(self):
        g = cylindrical_grid(5.0, -6.0, 6.0, 32, 32)
        u = default_initial(g, TrapSpec(0.4), 5.0)
        ref = analytic.gaussian_ground_state(0.4, g.rho_coords(), g.s_coords())
        assert np.allclose(u.values, ref / g.norm(ref), rtol=1e-10)

    def test_soliton_seed_when_free(self):
        g = line_grid(-30.0, 30.0, 128)
        u = default_initial(g, TrapSpec(0.0), 5.0)
        ref = math.sqrt(math.pi) * analytic.soliton_profile(5.0, g.s)
        assert np.allclose(u.values, ref / g.norm(ref), rtol=1e-10)

    def test_free_axis_needs_interaction(self):
        g = line_grid(-30.0, 30.0, 128)
        with pytest.raises(DomainError):
            default_initial(g, TrapSpec(0.0), 0.0)


class TestRelax:
    def test_noninteracting_limit_recovers_gaussian(self):
        # small Q with an axial trap stays within 1% of the trap Gaussian
        g = cylindrical_grid(5.0, -7.0, 7.0, 48, 48)
        trap = TrapSpec(0.4)
        res = relax(default_initial(g, trap, 0.1), trap, 0.1, FAST)
        assert res.converged and not res.collapsed
        ref = np.abs(Wavefunction(g, analytic.gaussian_ground_state(
            0.4, g.rho_coords(), g.s_coords())).normalized().values)
        # peak-normalized L_inf deviation of |u| from the Gaussian
        linf = np.max(np.abs(np.abs(res.wavefunction.values) - ref)) / np.max(ref)
        assert linf < 0.01

    def test_monotone_descent_and_norm(self):
        g = line_grid(-25.0, 25.0, 256)
        trap = TrapSpec(0.0)
        res = relax(default_initial(g, trap, 5.0), trap, 5.0, FAST)
        assert res.converged
        assert res.wavefunction.norm() == pytest.approx(1.0, abs=1e-12)

    def test_seed_independence(self):
        # gaussian and soliton seeds land on the same minimizer
        g = line_grid(-25.0, 25.0, 256)
        trap = TrapSpec(0.0)
        cfg = DescentConfig(residual_tol=1e-8, max_iters=400_000)
        a = relax(default_initial(g, trap, 5.0), trap, 5.0, cfg)
        gauss = Wavefunction(g, np.exp(-0.25 * g.s ** 2)).normalized()
        b = relax(gauss, trap, 5.0, cfg)
        assert a.converged and b.converged
        dist = g.norm(a.wavefunction.values - b.wavefunction.values)
        assert dist < 1e-4

    def test_line_soliton_matches_analytic(self):
        g = line_grid(-30.0, 30.0, 512)
        trap = TrapSpec(0.0)
        res = relax(default_initial(g, trap, 5.0), trap, 5.0, FAST)
        exact = math.sqrt(math.pi) * analytic.soliton_profile(5.0, g.s)
        err = np.max(np.abs(np.abs(res.wavefunction.values) - exact)) / exact.max()
        assert err < 0.02
        assert res.energy.chemical_potential == pytest.approx(
            -25 / (128 * math.pi ** 2), rel=5e-3)

    def test_supercritical_collapses(self):
        g = cylindrical_grid(6.0, -6.0, 6.0, 48, 48)
        trap = TrapSpec(0.0)
        res = relax(default_initial(g, trap, 25.0), trap, 25.0, FAST)
        assert res.collapsed and not res.converged

    def test_width_monotone_in_anisotropy(self):
        # Q = 5 states widen as the axial trap relaxes and stay finite at 0
        g = cylindrical_grid(5.0, -20.0, 20.0, 48, 128)
        widths = []
        for lz in (0.4, 0.2, 0.0):
            trap = TrapSpec(lz)
            res = relax(default_initial(g, trap, 5.0), trap, 5.0, FAST)
            assert res.converged
            widths.append(moments(res.wavefunction).w_s)
        assert widths[0] < widths[1] < widths[2]
        assert np.isfinite(widths[2])

    def test_variational_upper_bounds(self):
        g = cylindrical_grid(5.0, -20.0, 20.0, 48, 128)
        trap = TrapSpec(0.4)
        res = relax(default_initial(g, trap, 5.0), trap, 5.0, FAST)
        e_gauss = hamiltonian(Wavefunction(g, analytic.gaussian_ground_state(
            0.4, g.rho_coords(), g.s_coords())).normalized(), trap, 5.0)
        e_comp = hamiltonian(Wavefunction(g, analytic.composite_profile(
            5.0, g.rho_coords(), g.s_coords())).normalized(), trap, 5.0)
        assert res.energy.total <= e_gauss.total + 1e-9
        assert res.energy.total <= e_comp.total + 1e-9

    def test_rejects_unnormalized_initial(self):
        g = line_grid(-10.0, 10.0, 64)
        bad = Wavefunction(g, 2.0 * np.exp(-g.s ** 2))
        with pytest.raises(DomainError):
            relax(bad, TrapSpec(0.0), 1.0, FAST)

    def test_rejects_nan_initial(self):
        g = line_grid(-10.0, 10.0, 64)
        with pytest.raises(DomainError, match="norm 1"):
            relax(Wavefunction(g, np.full(g.shape, np.nan)), TrapSpec(0.0), 1.0, FAST)

    def test_iteration_budget(self):
        # conjugate directions with the exact line search and the
        # Newton-shifted preconditioner need 6 or 7 iterations here on any
        # node count from 128 to 4096
        g = line_grid(-25.0, 25.0, 256)
        trap = TrapSpec(0.0)
        res = relax(default_initial(g, trap, 5.0), trap, 5.0)
        assert res.converged
        assert res.iterations <= 10

    def test_complex_seed_relaxes_to_the_real_minimizer(self):
        g = line_grid(-25.0, 25.0, 256)
        trap = TrapSpec(0.0)
        seed = default_initial(g, trap, 5.0)
        real = relax(seed, trap, 5.0)
        boosted = Wavefunction(g, seed.values * np.exp(0.3j * g.s)).normalized()
        res = relax(boosted, trap, 5.0)
        assert res.converged and real.converged
        assert res.energy.total == pytest.approx(real.energy.total, rel=1e-7)

    def test_non_finite_energy_raises_at_once(self, monkeypatch):
        # a NaN in the third gradient ends the run at the third iteration
        calls = []

        def poisoned(values, *args, **kwargs):
            calls.append(None)
            out = gradient(values, *args, **kwargs)
            return out * math.nan if len(calls) == 3 else out

        monkeypatch.setattr(groundstate, "gradient", poisoned)
        g = line_grid(-25.0, 25.0, 256)
        trap = TrapSpec(0.0)
        with pytest.raises(BlowupError, match="non-finite energy at iteration 3"):
            relax(default_initial(g, trap, 5.0), trap, 5.0)
        assert len(calls) == 3

    def test_preconditioner_not_positive_falls_back_to_the_gradient(self, monkeypatch):
        # a shift far below -lap + V makes P negative definite, so <r, P^-1 r> < 0
        # every iteration: each direction is then the tangent gradient r itself
        g, trap = spherical_grid(6.0, 24), TrapSpec(1.0)
        seed, cfg = default_initial(g, trap, 5.0), DescentConfig(residual_tol=1e-9)
        expected = relax(seed, trap, 5.0, cfg)
        monkeypatch.setattr(groundstate, "descent_shift", lambda *args: -1e3)
        assert np.linalg.eigvalsh(dense_preconditioner(g, trap, -1e3))[-1] < 0
        res = relax(seed, trap, 5.0, cfg)
        assert res.converged and not res.collapsed and expected.converged
        assert res.energy.chemical_potential == pytest.approx(
            expected.energy.chemical_potential, abs=1e-9)
        assert res.iterations > expected.iterations


HALF_Q10 = default_half_extent_s(10.0, 0.0)  # six soliton widths, 13.675725018633734


CYLINDER_Q10 = (lambda: cylindrical_grid(6.0, -HALF_Q10, HALF_Q10, 16, 48), 0.0, 10.0)
SPHERE_Q14 = (lambda: spherical_grid(6.0, 96), 1.0, 14.0)


@pytest.mark.parametrize("make,lambda_z,Q,iterations,mu", [
    (*CYLINDER_Q10, 8, 0.8817619326419299),
    (lambda: spherical_grid(6.0, 96), 1.0, 12.0, 9, 0.9037072090505058),
    (*SPHERE_Q14, 15, 0.6012577757366424),
], ids=["cylinder-Q10", "sphere-Q12", "sphere-Q14"])
def test_default_descent_is_pinned(make, lambda_z, Q, iterations, mu):
    # iteration counts and mu of the default solver: rewriting the loop's
    # arithmetic may move mu by round-off, but must not change the algorithm.
    # These pins were moved on purpose three times, each time for a change of
    # the algorithm: when the preconditioner's fixed shift 1 became
    # `descent_shift`, when the fixed step with halving (23, 21 and 47
    # iterations) became conjugate directions with an exact line search, and
    # when the stop rule dropped its energy-change test (cylinder: 9 iterations,
    # mu 0.8817616932414977).
    g, trap = make(), TrapSpec(lambda_z)
    res = relax(default_initial(g, trap, Q), trap, Q)
    assert res.converged and not res.collapsed
    assert res.iterations == iterations
    assert res.energy.chemical_potential == pytest.approx(mu, rel=1e-12)


@pytest.mark.parametrize("make,lambda_z,Q,shift_one_mu", [
    (*CYLINDER_Q10, 0.8817741593375537),
    (*SPHERE_Q14, 0.601278908580502),
], ids=["cylinder-Q10", "sphere-Q14"])
def test_shifted_descent_stops_closer_to_the_solution(make, lambda_z, Q, shift_one_mu):
    # at the same residual 1e-5, mu lies closer to the residual-1e-9 answer
    # than the mu that the descent with the fixed shift 1 stopped at
    g, trap = make(), TrapSpec(lambda_z)
    seed = default_initial(g, trap, Q)
    mu = relax(seed, trap, Q).energy.chemical_potential
    exact = relax(seed, trap, Q, DescentConfig(residual_tol=1e-9))
    assert exact.converged
    mu_exact = exact.energy.chemical_potential
    assert abs(mu - mu_exact) < abs(shift_one_mu - mu_exact)


def ray_energy(quadratic, quartic, dd, tau):
    """E(tau) = q(tau)/n^2 - m(tau)/n^4 with n^2 = 1 + dd tau^2, as `ray_step` defines it."""
    n2 = 1.0 + dd * tau ** 2
    return (np.polyval(quadratic[::-1], tau) / n2
            - np.polyval(quartic[::-1], tau) / n2 ** 2)


class TestRayStep:
    def test_first_local_minimum_of_the_sampled_energy(self):
        # tau = tan(theta)/sqrt(dd) samples the whole ray on 0 < theta < pi/2;
        # every random ray that has a minimum gets its first one, however
        # many follow (about one ray in twenty has several), and every ray
        # that has none gets a finite step onto -d
        theta = np.linspace(0.0, 0.5 * np.pi, 100_001)[1:-1]
        several = falling = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            dd = 10.0 ** rng.uniform(-3.0, 2.0)
            quadratic, quartic = rng.standard_normal(3), rng.standard_normal(5)
            quadratic[1] = quartic[1] - abs(rng.standard_normal()) - 0.01  # E'(0) < 0
            tau = ray_step(quadratic, quartic, dd, tau0=10.0 ** rng.uniform(-2.0, 2.0))
            e = ray_energy(quadratic, quartic, dd, np.tan(theta) / math.sqrt(dd))
            minima = np.flatnonzero((e[1:-1] < e[:-2]) & (e[1:-1] <= e[2:])) + 1
            assert math.isfinite(tau) and tau > 0
            if minima.size == 0:
                falling += 1
                assert dd * tau ** 2 > 1e30
                continue
            several += minima.size > 1
            first = theta[minima[0]]
            assert abs(math.atan(tau * math.sqrt(dd)) - first) <= 3 * (theta[1] - theta[0])
        assert several > 0 and falling > 0

    def test_energy_falling_on_the_whole_ray_gives_a_finite_step(self):
        # E = -(tau + tau^4)/(1 + tau^2)^2 falls from 0 toward -1 on the whole ray
        tau = ray_step((0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 1.0), 1.0)
        assert math.isfinite(tau) and tau > 1e15
        assert ray_energy(np.zeros(3), np.array([0.0, 1.0, 0.0, 0.0, 1.0]), 1.0,
                          tau) == pytest.approx(-1.0)

    def test_quadratic_ray_steps_to_its_minimum(self):
        # no quartic term and dd -> 0: E = q0 - 2 a1 tau + a2 tau^2, minimal at a1/a2
        tau = ray_step((1.0, -2.0 * 0.3, 2.0), (0.0,) * 5, 1e-30)
        assert tau == pytest.approx(0.15, rel=1e-10)


@pytest.fixture
def shifts(monkeypatch):
    """The shift of every preconditioner `relax` builds, in order."""
    seen = []

    class Recording(SobolevPreconditioner):
        def __init__(self, grid, trap, shift):
            seen.append(shift)
            super().__init__(grid, trap, shift)

    monkeypatch.setattr(groundstate, "SobolevPreconditioner", Recording)
    return seen


def seed_shift(grid, trap, Q):
    """`descent_shift` for the default seed: <u, g> is twice its mu."""
    e = hamiltonian(default_initial(grid, trap, Q), trap, Q)
    return descent_shift(grid, trap, Q, 2.0 * e.chemical_potential, e.total)


class TestShift:
    def test_bound_seed_gets_the_newton_shift(self, shifts):
        make, lambda_z, Q = CYLINDER_Q10
        g, trap = make(), TrapSpec(lambda_z)
        seed = default_initial(g, trap, Q)
        e = hamiltonian(seed, trap, Q)
        assert e.total < g.radial_modes[0][0]  # below the floor
        assert relax(seed, trap, Q).converged
        # one factorization per call, at -<u, g> of the seed
        assert shifts == [pytest.approx(-2.0 * e.chemical_potential, rel=1e-10)]
        assert -2.0 < shifts[0] < 1.0 - 2.0

    @pytest.mark.parametrize("make,lambda_z,Q,e0", [
        # Q = 0: no interaction, so no Newton shift
        (lambda: cylindrical_grid(5.0, -7.0, 7.0, 24, 48), 0.4, 0.0, 2.4),
        (lambda: line_grid(-10.0, 10.0, 64), 0.5, 0.0, 0.5),
        (lambda: spherical_grid(6.0, 64), 1.0, 0.0, 3.0),
        # a weakly bound seed whose energy lies above the floor
        (lambda: cylindrical_grid(5.0, -7.0, 7.0, 24, 48), 0.4, 0.5, 2.4),
        (lambda: spherical_grid(6.0, 64), 1.0, 5.0, 3.0),
    ], ids=["cylinder-Q0", "line-Q0", "sphere-Q0", "cylinder-above-floor",
            "sphere-above-floor"])
    def test_unbound_seed_keeps_one_minus_zero_point_energy(self, shifts, make, lambda_z, Q,
                                                            e0):
        g, trap = make(), TrapSpec(lambda_z)
        assert seed_shift(g, trap, Q) == 1.0 - e0
        res = relax(default_initial(g, trap, Q), trap, Q, FAST)
        assert res.converged and not res.collapsed
        assert shifts == [1.0 - e0]

    @pytest.mark.parametrize("make,lambda_z,Q", [
        CYLINDER_Q10,
        (lambda: cylindrical_grid(4.0, -5.0, 5.0, 16, 20), 0.4, 0.5),
        (lambda: spherical_grid(6.0, 24), 1.0, 14.0),
        (lambda: line_grid(-25.0, 25.0, 64), 0.0, 5.0),
    ], ids=["cylinder-newton", "cylinder-trapped", "sphere", "line-newton"])
    def test_shifted_operator_is_positive_definite(self, shifts, make, lambda_z, Q):
        g, trap = make(), TrapSpec(lambda_z)
        relax(default_initial(g, trap, Q), trap, Q)
        (shift,) = shifts
        assert np.linalg.eigvalsh(dense_preconditioner(g, trap, shift))[0] > 0

    def test_underresolved_sphere_still_converges(self, shifts):
        # a node spacing of 1.8 oscillator lengths: the discrete zero-point
        # energy is 1.72, more than 1 below 3, so P's bottom mode (close to the
        # state, and projected out of every direction) is negative
        g, trap = spherical_grid(58.71, 32), TrapSpec(1.0)
        for Q in (0.5, 14.0):
            res = relax(default_initial(g, trap, Q), trap, Q)
            assert res.converged
        assert shifts == [-2.0, -2.0]
        assert np.linalg.eigvalsh(dense_preconditioner(g, trap, -2.0))[0] < 0


def dense_preconditioner(g, trap, shift):
    """Dense P = shift - lap + V, made symmetric by the square roots of the
    quadrature weights, so that it has P's eigenvalues."""
    n = math.prod(g.shape)
    columns = np.eye(n).reshape(n, *g.shape)
    p = np.array([(shift + trap_potential(g, trap)) * c - g.laplacian(c)
                  for c in columns]).reshape(n, n).T
    root_w = np.sqrt(g.weights.ravel())
    sym = root_w[:, None] * p / root_w[None, :]
    assert np.max(np.abs(sym - sym.T)) <= 1e-9 * np.max(np.abs(sym))
    return 0.5 * (sym + sym.T)


class TestPreconditioner:
    @pytest.mark.parametrize("grid,trap", [
        (line_grid(-20.0, 20.0, 128), TrapSpec(0.0)),
        (spherical_grid(6.0, 96), TrapSpec(1.0)),
        (cylindrical_grid(5.0, -10.0, 10.0, 24, 64), TrapSpec(0.0)),
        (cylindrical_grid(5.0, -10.0, 10.0, 24, 64), TrapSpec(0.4)),
    ], ids=["line", "spherical", "cylindrical-0", "cylindrical-0.4"])
    def test_exact_inverse(self, grid, trap):
        # shift 1, and the shift relax picks for the Q = 10 seed: on the
        # trap-free cylinder that is the negative Newton shift -<u, g>
        newton = seed_shift(grid, trap, 10.0)
        if grid.kind is Geometry.CYLINDRICAL and trap.lambda_z == 0:
            assert newton < -1.0
        rhs = np.random.default_rng(3).standard_normal(grid.shape)
        for shift in (1.0, newton):
            x = SobolevPreconditioner(grid, trap, shift).solve(rhs)
            px = shift * x - grid.laplacian(x) + trap_potential(grid, trap) * x
            assert grid.norm(px - rhs) <= 1e-12 * grid.norm(rhs)


class TestHelpers:
    def test_reference_peak_covers_gaussian_regime(self):
        # the ceiling must not sit below the noninteracting peak at small Q
        g = cylindrical_grid(5.0, -6.0, 6.0, 32, 32)
        peak = reference_peak(g, TrapSpec(0.4), 0.1)
        gauss_peak = 0.4 ** 0.25 * math.pi ** -0.75
        assert peak >= gauss_peak

    @pytest.mark.parametrize("Q", [5.0, 50.0])
    def test_reference_peak_is_the_line_ground_state_peak(self, Q):
        # line states carry unit norm, so the reference carries the seed's sqrt(pi)
        # and the collapse ceiling sits at the documented multiple of the soliton
        g, trap = line_grid(-30.0, 30.0, 1024), TrapSpec(0.0)
        res = relax(default_initial(g, trap, Q), trap, Q)
        assert res.converged
        ratio = np.abs(res.wavefunction.values).max() / reference_peak(g, trap, Q)
        assert 1.0 <= ratio < 1.2


@pytest.mark.parametrize("field,value", [
    ("residual_tol", math.nan), ("residual_tol", math.inf), ("residual_tol", 0.0),
    ("max_iters", math.nan), ("max_iters", math.inf), ("max_iters", 0),
])
def test_descent_config_rejects_non_finite_and_zero(field, value):
    with pytest.raises(DomainError, match=rf"{field} must .* got {value}"):
        DescentConfig(**{field: value})
