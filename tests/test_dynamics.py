import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded

from gpesoliton import analytic
from gpesoliton.collapse import find_threshold
from gpesoliton import grid as grid_module
from gpesoliton.dynamics import (SPONGE_STRENGTH, EhrenfestReport, PropagationConfig,
                                 _Propagator, _fit_oscillation, _sponge_mask, _taylor_terms,
                                 boost, displace, ehrenfest_check, propagate)
from gpesoliton.energy import TrapSpec, hamiltonian, quartic_coefficient
from gpesoliton.errors import BlowupError, DomainError
from gpesoliton.grid import (Geometry, Wavefunction, cylindrical_grid, default_half_extent_s,
                             line_grid, spherical_grid)
from gpesoliton.groundstate import DescentConfig, default_initial, relax
from gpesoliton.observables import moments
from gpesoliton.potentials import ExternalPotential, parse
from gpesoliton.units import PhysicalParams, n_from_q, q_from_n


def line_soliton(Q=5.0, half=30.0, n=512):
    g = line_grid(-half, half, n)
    return default_initial(g, TrapSpec(0.0), Q)


@pytest.fixture(scope="module")
def relaxed_iso():
    # tight discrete eigenstate on a small cylindrical grid
    g = cylindrical_grid(5.0, -5.0, 5.0, 48, 48)
    trap = TrapSpec(1.0)
    cfg = DescentConfig(residual_tol=1e-9, max_iters=200_000)
    res = relax(default_initial(g, trap, 0.0), trap, 0.0, cfg)
    assert res.converged
    return res


class TestStationaryStates:
    def test_eigenstate_density_frozen(self, relaxed_iso):
        u0 = relaxed_iso.wavefunction.normalized()
        cfg = PropagationConfig(t_final=0.05, dt=2e-5, observe_every=250)
        _, _, fin, _ = propagate(u0, TrapSpec(1.0), 0.0, None, cfg)
        drift = np.max(np.abs(np.abs(fin.values) - np.abs(u0.values)))
        assert drift < 1e-8

    @pytest.mark.parametrize("lambda_z", [0.5, 1.0])
    def test_trap_eigenstate_still_at_the_default_step(self, lambda_z):
        # the trap sits in the kinetic step, whose factors keep an eigenstate of
        # -lap + V to a phase; a trap in the kick made it breathe by ~3e-6
        g, trap = cylindrical_grid(5.0, -8.0, 8.0, 24, 64), TrapSpec(lambda_z)
        res = relax(default_initial(g, trap, 0.0), trap, 0.0, DescentConfig(residual_tol=1e-12))
        assert res.converged
        u0 = res.wavefunction.normalized()
        _, _, fin, _ = propagate(u0, trap, 0.0, None, PropagationConfig(t_final=1.0))
        drift = np.max(np.abs(np.abs(fin.values) - np.abs(u0.values)))
        assert drift <= 1e-12 * np.max(np.abs(u0.values))

    def test_phase_advances_at_chemical_potential(self, relaxed_iso):
        u0 = relaxed_iso.wavefunction.normalized()
        mu = relaxed_iso.energy.chemical_potential
        tau = 0.5
        cfg = PropagationConfig(t_final=tau, dt=1e-4, observe_every=1000)
        _, _, fin, _ = propagate(u0, TrapSpec(1.0), 0.0, None, cfg)
        i0 = np.unravel_index(np.argmax(np.abs(u0.values)), u0.values.shape)
        phase = -np.angle(fin.values[i0] / u0.values[i0])
        assert phase == pytest.approx(mu * tau, rel=1e-3)

    def test_norm_conservation_per_1000_steps(self):
        u0 = boost(line_soliton(), 0.3).normalized()
        cfg = PropagationConfig(t_final=1.0, dt=1e-3, observe_every=1000)
        records, *_ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        assert abs(records[-1].norm - 1.0) < 1e-8

    def test_energy_conservation(self):
        u0 = line_soliton()
        cfg = PropagationConfig(t_final=2.0, dt=5e-4, observe_every=100)
        records, *_ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        energies = [r.energy.total for r in records]
        drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
        assert drift < 1e-6

    def test_relaxed_soliton_stationary(self):
        # Q > 0: a propagator with the wrong cubic coefficient reshapes the
        # relaxed soliton (drift ~1.5e-3 of the peak with c/2 instead of c)
        g = line_grid(-40.0, 40.0, 512)
        trap = TrapSpec(0.0)
        res = relax(default_initial(g, trap, 5.0), trap, 5.0,
                    DescentConfig(residual_tol=1e-8))
        assert res.converged
        u0 = res.wavefunction.normalized()
        _, _, fin, _ = propagate(u0, trap, 5.0, None, PropagationConfig(t_final=2.0))
        peak = np.abs(u0.values).max()
        drift = np.max(np.abs(np.abs(fin.values) - np.abs(u0.values)))
        assert drift < 1e-6 * peak


def banded_cayley(grid, dt, potential):
    """exp(-i*dt*K) ~ (1 + i*dt*K/2)^{-1} (1 - i*dt*K/2) for K = (-lap_s + potential)/2
    along s: an explicit (1 - zK) multiply and a solve_banded solve."""
    lo, di, up = grid.laplacian_diagonals("s")
    lo, di, up = -0.5 * lo, 0.5 * (potential - di), -0.5 * up
    z = 0.5j * dt
    ab = np.zeros((3, di.size), dtype=complex)
    ab[0, 1:], ab[1], ab[2, :-1] = z * up[:-1], 1.0 + z * di, z * lo[1:]

    def apply(x):
        work = (1.0 - z * di) * x
        work[..., :-1] -= z * up[:-1] * x[..., 1:]
        work[..., 1:] -= z * lo[1:] * x[..., :-1]
        return solve_banded((1, 1), ab, work.T).T
    return apply


def harmonic_rho_step(grid, dt):
    """exp(-i*dt*K_rho) for K_rho = (-lap_rho + rho^2)/2, through the eigenpairs of
    its sqrt(rho)-symmetrized tridiagonal matrix from eigh_tridiagonal.  QR makes
    the eigenvectors orthonormal: their ~1e-15 departure from it would otherwise
    add up over hundreds of steps."""
    lo, di, up = grid.laplacian_diagonals("rho")
    theta, vecs = eigh_tridiagonal(grid.rho ** 2 - di, -np.sqrt(up[:-1] * lo[1:]))
    vecs = np.linalg.qr(vecs)[0]
    root = np.sqrt(grid.rho)[:, None]
    step = (vecs * np.exp(-0.5j * dt * theta)) @ vecs.T
    return lambda x: step @ (root * x) / root


def reference_strang(u0, trap, Q, cfg, n_steps):
    """Strang steps: half-phase, kinetic steps of -lap/2 + trap/2 (half rho, s, half
    rho on cylindrical grids), half-phase."""
    grid, dt = u0.grid, cfg.dt
    c = quartic_coefficient(grid.kind, Q)
    damp = 1.0
    if cfg.sponge_width > 0:
        damp = np.exp(-0.5 * dt * SPONGE_STRENGTH * _sponge_mask(grid, cfg.sponge_width))
    kin_s = banded_cayley(grid, dt, (trap.lambda_z * grid.s) ** 2)
    cylindrical = grid.rho is not None
    kin_rho = harmonic_rho_step(grid, 0.5 * dt) if cylindrical else None
    v = np.asarray(u0.values, dtype=complex)
    for _ in range(n_steps):
        v = v * np.exp(0.5j * dt * c * np.abs(v) ** 2) * damp
        v = kin_rho(kin_s(kin_rho(v))) if cylindrical else kin_s(v)
        v = v * np.exp(0.5j * dt * c * np.abs(v) ** 2) * damp
    return v


def small_soliton(cylindrical):
    if cylindrical:
        g = cylindrical_grid(4.0, -12.0, 12.0, 16, 96)
    else:
        g = line_grid(-12.0, 12.0, 256)
    return boost(default_initial(g, TrapSpec(0.0), 5.0), 1.5).normalized()


class TestStrangStep:
    @pytest.mark.parametrize("sponge", [0.0, 4.0], ids=["free", "sponge"])
    @pytest.mark.parametrize("cylindrical", [False, True], ids=["line", "cylindrical"])
    def test_matches_reference_strang(self, cylindrical, sponge):
        u0 = small_soliton(cylindrical)
        trap = TrapSpec(0.3)
        cfg = PropagationConfig(t_final=0.2, dt=1e-3, observe_every=50, sponge_width=sponge)
        _, _, fin, _ = propagate(u0, trap, 5.0, None, cfg)
        ref = reference_strang(u0, trap, 5.0, cfg, 200)
        if sponge:
            assert fin.norm() < 1.0 - 1e-6  # the sponge layer was reached
        assert np.max(np.abs(fin.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sponge", [0.0, 4.0], ids=["free", "sponge"])
    @pytest.mark.parametrize("cylindrical", [False, True], ids=["line", "cylindrical"])
    def test_time_error_is_the_step_doubling_formula(self, cylindrical, sponge):
        # |two steps of dt - one of 2 dt| / 3, scaled from 2 dt to t_final
        u0, trap = small_soliton(cylindrical), TrapSpec(0.3)
        cfg = PropagationConfig(t_final=0.2, sponge_width=sponge)
        *_, estimate = propagate(u0, trap, 5.0, None, cfg)
        fine = reference_strang(u0, trap, 5.0, cfg, 2)
        coarse = reference_strang(u0, trap, 5.0, PropagationConfig(
            t_final=0.2, dt=2.0 * cfg.dt, sponge_width=sponge), 1)
        expected = u0.grid.norm(fine - coarse) / 3.0 * cfg.t_final / (2.0 * cfg.dt)
        assert estimate == pytest.approx(expected, rel=1e-12)

    def test_records_on_cadence_and_at_the_end(self):
        u0 = small_soliton(False)
        cfg = PropagationConfig(t_final=21 * 5e-4, dt=5e-4, observe_every=4)
        records, _, fin, _ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        assert [r.tau for r in records] == [k * 5e-4 for k in (0, 4, 8, 12, 16, 20, 21)]
        # a record's bits do not depend on the cadence: the every-step run holds them
        every, _, fin_every, _ = propagate(u0, TrapSpec(0.0), 5.0, None,
                                           PropagationConfig(t_final=21 * 5e-4, dt=5e-4))
        assert np.array_equal([r.csv_row() for r in records],
                              [every[k].csv_row() for k in (0, 4, 8, 12, 16, 20, 21)],
                              equal_nan=True)
        assert np.array_equal(fin.values, fin_every.values)

    def test_modal_kinetic_step_conserves_norm(self):
        u0 = small_soliton(True)
        prop = _Propagator(u0.grid, TrapSpec(0.0), 5.0, None, PropagationConfig(t_final=1.0))
        v = np.array(u0.values, dtype=complex)
        for _ in range(20):
            before = u0.grid.norm(v)
            v = prop._kinetic(v)
            assert abs(u0.grid.norm(v) - before) <= 1e-13


def strong_well():
    return ExternalPotential(parse("-40*sech(s/2)^2"), {})


class TestKick:
    """One half-step kick against v * exp(1j*theta) * damping, theta = h*(c*|v|^2 - V_ext),
    h = dt/2."""

    CASES = {
        "line": (False, TrapSpec(0.3), 5.0, None, {}),
        "cylindrical-sponge": (True, TrapSpec(0.3), 5.0, None, {"sponge_width": 4.0}),
        "cylindrical-external": (True, TrapSpec(0.0), 5.0, strong_well(), {}),
        # phases h*cubic*|v|^2 up to 0.08, near the top of the polynomial's range
        "line-near-bound": (False, TrapSpec(0.3), 200.0, None, {"dt": 0.05}),
        # and up to 0.8, far beyond it
        "line-large-dt": (False, TrapSpec(0.3), 200.0, None, {"dt": 0.5}),
    }

    @pytest.mark.parametrize("case", list(CASES), ids=[f"{case}-half" for case in CASES])
    def test_matches_exp(self, case):
        cylindrical, trap, Q, external, extra = self.CASES[case]
        u0 = small_soliton(cylindrical)
        cfg = PropagationConfig(t_final=1.0, **extra)
        prop = _Propagator(u0.grid, trap, Q, external, cfg)
        v = np.array(u0.values, dtype=complex)
        h, c = 0.5 * cfg.dt, quartic_coefficient(u0.grid.kind, Q)
        damping = np.ones(u0.grid.shape)
        if cfg.sponge_width > 0:
            damping = np.exp(-h * SPONGE_STRENGTH * _sponge_mask(u0.grid, cfg.sponge_width))
        # the trap is in the kinetic step: the kick's potential is the external one
        potential = 0.0 if external is None else external.sample(u0.grid)
        density = np.abs(v) ** 2
        ref = v * np.exp(1j * h * (c * density - potential)) * damping
        phi_max = float(np.max(h * c * density))
        # the polynomial serves every case but the last, which falls back to cos/sin
        assert (_taylor_terms(phi_max) is None) == (case == "line-large-dt")
        prop._kick(v)
        assert np.max(np.abs(v - ref)) <= 2e-15 * np.max(np.abs(ref))

    def test_taylor_range(self):
        assert _taylor_terms(0.0) == 2
        assert _taylor_terms(2e-4) == 3
        assert _taylor_terms(4e-4) == 3  # a Q = 5 soliton's kick at the default dt
        assert _taylor_terms(0.1) == 5
        assert _taylor_terms(0.11) is None
        assert _taylor_terms(math.nan) is None
        assert _taylor_terms(math.inf) is None


@pytest.mark.parametrize("cylindrical", [False, True], ids=["line", "cylindrical"])
def test_scipy_fallback_propagates_like_the_bundled_lapack(monkeypatch, cylindrical):
    # the fallback's solve returns a new array instead of solving in place
    u0 = small_soliton(cylindrical)
    cfg = PropagationConfig(t_final=0.05, dt=1e-3, observe_every=10)
    runs = []
    for bundled in (True, False):
        if not bundled:
            monkeypatch.setattr(grid_module, "_bundled_lapack", lambda: None)
        runs.append(propagate(u0, TrapSpec(0.3), 5.0, None, cfg, [0.025]))
    (rec_a, [snap_a], fin_a, _), (rec_b, [snap_b], fin_b, _) = runs
    for a, b in ((snap_a, snap_b), (fin_a, fin_b)):
        assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(a.values))
    assert np.allclose([r.csv_row() for r in rec_a], [r.csv_row() for r in rec_b],
                       rtol=0.0, atol=1e-13, equal_nan=True)


class TestSnapshots:
    CFG = PropagationConfig(t_final=22 * 1e-3, dt=1e-3, observe_every=4)

    @pytest.mark.parametrize("k", [8, 13], ids=["on-cadence", "off-cadence"])
    def test_snapshot_is_the_state_of_the_run_stopped_there(self, k):
        u0 = small_soliton(True)
        _, [snap], _, _ = propagate(u0, TrapSpec(0.3), 5.0, None, self.CFG, [k * 1e-3])
        _, _, stopped, _ = propagate(u0, TrapSpec(0.3), 5.0, None,
                                     PropagationConfig(t_final=k * 1e-3, dt=1e-3,
                                                       observe_every=4))
        assert np.array_equal(snap.values, stopped.values)

    def test_on_cadence_snapshots_change_no_record(self):
        # steps 4, 12 and 20 are records at observe_every = 4; 13 and 13.25 fall
        # between two of them
        u0 = small_soliton(True)
        for every in (1, 4):
            cfg = PropagationConfig(t_final=22 * 1e-3, dt=1e-3, observe_every=every)
            plain, _, fin, _ = propagate(u0, TrapSpec(0.3), 5.0, None, cfg)
            for steps in ([4, 12, 20], [13], [13.25], [0.5, 13, 13.25, 20]):
                records, _, fin_snap, _ = propagate(u0, TrapSpec(0.3), 5.0, None, cfg,
                                                    [s * 1e-3 for s in steps])
                assert np.array_equal([r.csv_row() for r in records],
                                      [r.csv_row() for r in plain], equal_nan=True)
                assert np.array_equal(fin_snap.values, fin.values)

    @pytest.mark.parametrize("cylindrical", [False, True], ids=["line", "cylindrical"])
    def test_fractional_snapshot_is_the_stopped_run_one_partial_step_on(self, cylindrical):
        u0 = small_soliton(cylindrical)
        trap = TrapSpec(0.3)
        plain, _, fin, _ = propagate(u0, trap, 5.0, None, self.CFG)
        times = [s * 1e-3 for s in (12.25, 0.5, 13.5, 12.25, 20.75)]
        records, snaps, fin_snap, _ = propagate(u0, trap, 5.0, None, self.CFG, times)
        assert np.array_equal([r.csv_row() for r in records], [r.csv_row() for r in plain],
                              equal_nan=True)
        assert np.array_equal(fin_snap.values, fin.values)
        for t, snap in zip(sorted(times), snaps):
            k = math.floor(t / 1e-3)
            _, _, stopped, _ = propagate(u0, trap, 5.0, None,
                                         PropagationConfig(t_final=k * 1e-3, dt=1e-3,
                                                           observe_every=4))
            h = (t / 1e-3 - k) * 1e-3  # the remainder as `propagate` forms it
            _, _, partial, _ = propagate(stopped, trap, 5.0, None,
                                         PropagationConfig(t_final=h, dt=h))
            assert np.array_equal(snap.values, partial.values)

    def test_one_state_per_step_in_order(self):
        u0 = small_soliton(False)
        records, snaps, fin, _ = propagate(u0, TrapSpec(0.0), 5.0, None, self.CFG,
                                           [0.022, 0.005, 0.0, 0.005])
        assert len(snaps) == 4
        assert np.array_equal(snaps[0].values, u0.values)
        assert np.array_equal(snaps[1].values, snaps[2].values)
        assert np.array_equal(snaps[3].values, fin.values)
        assert not np.array_equal(snaps[1].values, fin.values)
        assert [round(r.tau / 1e-3) for r in records] == [0, 4, 8, 12, 16, 20, 22]

    def test_step_outside_the_run_rejected(self):
        with pytest.raises(DomainError, match=r"snapshot times must lie within \[0, t_final\]"):
            propagate(small_soliton(False), TrapSpec(0.0), 5.0, None, self.CFG, [0.023])

    def test_no_step_is_taken_twice(self, monkeypatch):
        # the time error's 3 steps, 22 steps and one partial step for the snapshot at
        # 13.25, on one propagator
        built, kinetic = [], []
        init, step = _Propagator.__init__, _Propagator._kinetic
        monkeypatch.setattr(_Propagator, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        monkeypatch.setattr(_Propagator, "_kinetic",
                            lambda self, v: kinetic.append(1) or step(self, v))
        propagate(small_soliton(True), TrapSpec(0.3), 5.0, None, self.CFG,
                  [0.004, 0.013, 0.01325, 0.01325, 0.022])
        assert (len(built), len(kinetic)) == (1, 26)


class TestGalileanTransport:
    def test_boosted_soliton_rides_at_v(self):
        u0 = boost(line_soliton(half=40.0, n=1024), 0.5).normalized()
        cfg = PropagationConfig(t_final=5.0, dt=5e-4, observe_every=100)
        records, _, fin, _ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        assert records[-1].x_s == pytest.approx(0.5 * 5.0, rel=0.01)
        # shape preserved in the comoving frame
        shifted = displace(fin, -records[-1].x_s)
        drift = np.max(np.abs(np.abs(shifted.values) - np.abs(u0.values)))
        assert drift / np.abs(u0.values).max() < 0.02

    def test_free_soliton_stays_put(self):
        u0 = line_soliton()
        cfg = PropagationConfig(t_final=2.0, dt=5e-4, observe_every=100)
        records, *_ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        assert abs(records[-1].x_s) < 1e-6


class TestDefaultStep:
    """The default dt against its criterion: time error <= 1e-3 of the lattice error."""

    V, T = 0.5, 0.5

    @staticmethod
    def start(v):
        # a boosted composite soliton on the tiny benchmark's evolve grid
        g = cylindrical_grid(6.0, -27.35145003726747, 27.35145003726747, 16, 64)
        return g, boost(default_initial(g, TrapSpec(0.0), 5.0), v).normalized()

    @staticmethod
    def assert_centroid_within_criterion(g, v, records, ref):
        lattice = 2.0 * (v * g.ds) ** 2 / 6.0 * v
        assert [r.tau for r in records] == pytest.approx([r.tau for r in ref])
        for rec, r in zip(records, ref):
            assert abs(rec.x_s - r.x_s) <= 1e-3 * lattice * r.tau

    @pytest.fixture(scope="class")
    def runs(self):
        g, u0 = self.start(self.V)
        dt = PropagationConfig.dt
        out = {}
        for k in (1, 2, 4, 8):
            cfg = PropagationConfig(t_final=self.T, dt=dt / k,
                                    observe_every=PropagationConfig.observe_every * k)
            out[k] = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        # the k = 1 run is the default step's, and its estimate is the one `evolve` reports
        return g, out, out[1][3]

    def test_centroid_time_error_below_a_thousandth_of_the_lattice(self, runs):
        g, out, _ = runs
        self.assert_centroid_within_criterion(g, self.V, out[1][0], out[8][0])

    @pytest.mark.parametrize("v", [0.4, 0.6])
    def test_criterion_holds_on_held_out_boosts(self, v):
        g, u0 = self.start(v)
        cfg = PropagationConfig(t_final=self.T)
        ref_cfg = PropagationConfig(t_final=self.T, dt=cfg.dt / 8,
                                    observe_every=8 * cfg.observe_every)
        records, *_ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        ref, *_ = propagate(u0, TrapSpec(0.0), 5.0, None, ref_cfg)
        self.assert_centroid_within_criterion(g, v, records, ref)

    def test_records_stay_at_a_hundredth(self):
        assert (PropagationConfig.dt * PropagationConfig.observe_every
                == pytest.approx(0.01, rel=1e-12))

    def test_second_order_and_estimate(self, runs):
        g, out, estimate = runs
        diff = {k: g.norm(out[k][2].values - out[2 * k][2].values) for k in (1, 2)}
        assert 1.8 <= math.log2(diff[1] / diff[2]) <= 2.2
        measured = g.norm(out[1][2].values - out[8][2].values)
        assert measured / 1.5 <= estimate <= 1.5 * measured


class TestNoExpansion:
    """The paper's claim: a soliton released from its axial trap does not expand,
    while a non-interacting cloud spreads (line grid, lambda_z = 0.1, tau = 20)."""

    @staticmethod
    def growth(Q):
        g = line_grid(-60.0, 60.0, 512)
        trap = TrapSpec(0.1)
        res = relax(default_initial(g, trap, Q), trap, Q)
        assert res.converged
        # the trap switched off; records at tau = 0 and t_final only
        cfg = PropagationConfig(t_final=20.0, observe_every=10 ** 6)
        records, *_ = propagate(res.wavefunction.normalized(), TrapSpec(0.0), Q, None, cfg)
        return records[-1].w_s / records[0].w_s

    def test_soliton_keeps_its_width(self):
        assert self.growth(20.0) < 1.1

    def test_noninteracting_cloud_more_than_doubles(self):
        assert self.growth(0.0) > 2.0


class TestQuasiparticle:
    """The paper's claim: a soliton moves through a slowly varying potential as a
    particle.  Its centroid follows the rigid profile, X'' = -U'(X) with
    U(X) = int V(s) rho0(s - X) ds, not a point particle, X'' = -V'(X), in the
    well V = -0.02 sech^2((s - 4)/3) (line grid, released at rest at s = 0, tau = 60)."""

    @staticmethod
    def force(s):
        """-V'(s)."""
        z = (s - 4.0) / 3.0
        return -0.04 / 3.0 * np.tanh(z) / np.cosh(z) ** 2

    @staticmethod
    def rk4(accel, x, t_final, h=0.01, every=100):
        """Positions of X'' = accel(X) from rest at x, every `every` steps of h."""
        v, xs = 0.0, [x]
        for k in range(1, round(t_final / h) + 1):
            k1x, k1v = v, accel(x)
            k2x, k2v = v + 0.5 * h * k1v, accel(x + 0.5 * h * k1x)
            k3x, k3v = v + 0.5 * h * k2v, accel(x + 0.5 * h * k2x)
            k4x, k4v = v + h * k3v, accel(x + h * k3x)
            x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if k % every == 0:
                xs.append(x)
        return np.array(xs)

    def deviations(self, Q):
        """Max |x_s - X| over tau = 0, 1, ..., 60 for the rigid profile and the point."""
        g = line_grid(-60.0, 60.0, 1024)
        trap = TrapSpec(0.0)
        res = relax(default_initial(g, trap, Q), trap, Q, DescentConfig(residual_tol=1e-8))
        assert res.converged
        u0 = res.wavefunction.normalized()
        # a record every tau = 1 at the default step
        cfg = PropagationConfig(t_final=60.0, observe_every=round(1.0 / PropagationConfig.dt))
        well = ExternalPotential(parse("-0.02*sech((s-4)/3)^2"), {})
        records, *_ = propagate(u0, trap, Q, well, cfg)
        x_s = np.array([r.x_s for r in records])
        rho0 = g.weights * u0.density()
        rigid = self.rk4(lambda x: float(self.force(g.s + x) @ rho0), x_s[0], 60.0)
        point = self.rk4(lambda x: float(self.force(x)), x_s[0], 60.0)
        return np.max(np.abs(x_s - rigid)), np.max(np.abs(x_s - point))

    def test_soliton_moves_as_its_rigid_profile(self):
        rigid, point = self.deviations(20.0)  # 5.3e-3 and 0.37
        assert rigid < 1e-2
        assert point > 0.2

    def test_wide_soliton_departs_from_the_rigid_profile(self):
        rigid, _ = self.deviations(5.0)  # 6.7e-2: the wider soliton is not rigid in the well
        assert rigid > 3e-2


class TestDisplace:
    def test_zero_shift_identity(self):
        u = line_soliton()
        d = displace(u, 0.0)
        assert np.max(np.abs(d.values - u.values)) < 1e-10

    def test_center_of_mass_shift(self):
        u = line_soliton(half=80.0, n=2048)
        d = displace(u, 2.0)
        assert moments(d).x_s == pytest.approx(2.0, abs=u.grid.ds / 10)

    def test_composition(self):
        u = line_soliton(half=80.0, n=2048)
        once_twice = displace(displace(u, 1.0), 1.0)
        direct = displace(u, 2.0)
        assert np.max(np.abs(once_twice.values - direct.values)) < 1e-6

    def test_off_grid_loss_rejected(self):
        u = line_soliton(half=20.0, n=256)
        with pytest.raises(DomainError, match="exit strip"):
            displace(u, 15.0)

    def test_empty_exit_strip_accepted(self):
        # the relaxed trapped state has ~1e-24 amplitude in the exit strip;
        # only the interpolation error would exceed the 1e-8 limit
        g = line_grid(-25.0, 25.0, 512)
        trap = TrapSpec(0.2)
        res = relax(default_initial(g, trap, 5.0), trap, 5.0,
                    DescentConfig(residual_tol=1e-6))
        d = displace(res.wavefunction.normalized(), 2.0)
        assert moments(d).x_s == pytest.approx(2.0, abs=g.ds / 10)

    def test_cylindrical_displace(self):
        g = cylindrical_grid(5.0, -60.0, 60.0, 32, 384)
        u = default_initial(g, TrapSpec(0.0), 5.0)
        d = displace(u, 1.5)
        assert moments(d).x_s == pytest.approx(1.5, abs=g.ds / 10)

    @pytest.mark.parametrize("make", [lambda: line_grid(-80.0, 80.0, 2048),
                                      lambda: cylindrical_grid(5.0, -60.0, 60.0, 32, 384)],
                             ids=["line", "cylindrical"])
    @pytest.mark.parametrize("steps", [0.96, -4.16, 3.0])
    def test_matches_scipy_natural_spline(self, make, steps):
        from scipy.interpolate import CubicSpline

        g = make()
        u = default_initial(g, TrapSpec(0.0), 5.0)
        u = Wavefunction(g, u.values * np.exp(0.3j * g.s_coords()))
        ds = steps * g.ds  # either sign, and one exact multiple of the step
        target = g.s - ds
        inside = (target >= g.s[0]) & (target <= g.s[-1])
        ref = np.zeros(g.shape, complex)
        ref[..., inside] = CubicSpline(g.s, u.values, axis=-1, bc_type="natural")(target[inside])
        ref *= u.norm() / g.norm(ref)
        got = displace(u, ds).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestEhrenfest:
    def test_harmonic_oscillation_frequency(self):
        lz = 0.2
        g = line_grid(-25.0, 25.0, 512)
        trap = TrapSpec(lz)
        res = relax(default_initial(g, trap, 5.0), trap, 5.0,
                    DescentConfig(residual_tol=1e-6))
        assert res.converged
        u0 = displace(res.wavefunction.normalized(), 2.0)
        period = 2 * math.pi / lz
        # two periods, on the dt lattice
        cfg = PropagationConfig(t_final=round(2 * period, 3), dt=1e-3, observe_every=50)
        records, *_ = propagate(u0, trap, 5.0, None, cfg)
        rep = ehrenfest_check(records, trap)
        assert rep.fitted_frequency == pytest.approx(lz, rel=0.01)
        assert rep.fitted_amplitude == pytest.approx(2.0, rel=0.02)

    def test_linear_tilt_constant_force(self):
        F = 0.01
        u0 = line_soliton(half=40.0, n=1024)
        tilt = ExternalPotential(parse("F*s"), {"F": F})
        cfg = PropagationConfig(t_final=10.0, dt=1e-3, observe_every=100)
        records, *_ = propagate(u0, TrapSpec(0.0), 5.0, tilt, cfg)
        rep = ehrenfest_check(records, TrapSpec(0.0), tilt)
        assert rep.max_force_mismatch < 0.01 * F
        # centroid follows -F tau^2 / 2
        tau = records[-1].tau
        assert records[-1].x_s == pytest.approx(-0.5 * F * tau ** 2, rel=0.01)

    def test_free_motion_zero_acceleration(self):
        u0 = boost(line_soliton(half=40.0, n=1024), 0.2).normalized()
        cfg = PropagationConfig(t_final=4.0, dt=1e-3, observe_every=100)
        records, *_ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        rep = ehrenfest_check(records, TrapSpec(0.0))
        assert rep.max_force_mismatch < 1e-4
        assert rep.max_velocity_mismatch < 1e-4

    def test_velocity_residual_shrinks_with_dt(self):
        lz = 0.2
        g = line_grid(-25.0, 25.0, 512)
        trap = TrapSpec(lz)
        res = relax(default_initial(g, trap, 5.0), trap, 5.0,
                    DescentConfig(residual_tol=1e-6))
        u0 = displace(res.wavefunction.normalized(), 2.0)

        def residual(dt):
            cfg = PropagationConfig(t_final=40.0, dt=dt, observe_every=50)
            records, *_ = propagate(u0, trap, 5.0, None, cfg)
            rep = ehrenfest_check(records, trap)
            return rep.max_velocity_mismatch

        # the residual carries a dt-independent floor (the lattice group
        # velocity differs from the recorded <P> at order ds^2), so second
        # order in dt shows in the ratio of successive differences
        r1, r2, r3 = residual(4e-3), residual(2e-3), residual(1e-3)
        ratio = (r1 - r2) / (r2 - r3)
        assert 3.0 < ratio < 5.5

    def test_off_cadence_last_record_dropped(self):
        taus = [k * 0.1 for k in range(8)] + [0.73]
        records = [type("R", (), {"tau": t, "x_s": 0.3 * t, "p_s": 0.3,
                                  "grad_v_s": 0.0})() for t in taus]
        rep = ehrenfest_check(records, TrapSpec(0.0))
        assert rep.n_samples == 8
        assert rep.max_velocity_mismatch < 1e-12

    def test_nonuniform_spacing_rejected(self):
        taus = [0.0, 0.1, 0.2, 0.25, 0.35, 0.45, 0.55]
        records = [type("R", (), {"tau": t, "x_s": 0.0, "p_s": 0.0,
                                  "grad_v_s": 0.0})() for t in taus]
        with pytest.raises(DomainError, match="uniformly spaced"):
            ehrenfest_check(records, TrapSpec(0.0))

    def test_too_few_samples_for_fit(self):
        # 8 samples over 0.7 of a 4 pi period: no fit, but the mismatches stand
        records = [type("R", (), {"tau": k * 0.1, "x_s": 0.0, "p_s": 0.0,
                                  "grad_v_s": 0.0})() for k in range(8)]
        rep = ehrenfest_check(records, TrapSpec(0.5))
        assert rep.fitted_frequency is None and rep.fitted_amplitude is None
        assert rep.max_velocity_mismatch == rep.max_force_mismatch == 0.0
        with pytest.raises(DomainError, match="at least 5"):
            ehrenfest_check(records[:4], TrapSpec(0.5))

    @pytest.mark.parametrize("w, h, n", [(0.2, 0.5, 64), (0.7, 0.05, 300), (2.0, 0.1, 40)])
    def test_fit_recovers_a_sinusoid(self, w, h, n):
        tau = 3.0 + h * np.arange(n)
        x = 0.3 + 1.7 * np.cos(w * tau) - 0.4 * np.sin(w * tau)
        freq, amp = _fit_oscillation(tau, x)
        assert freq == pytest.approx(w, rel=1e-9)
        assert amp == pytest.approx(math.hypot(1.7, 0.4), rel=1e-9)


def _li7(N=1.0):
    return PhysicalParams(-1e-9, 1e-26, 100.0, N)


# a call per guarded scalar input; NaN and +-inf are never in range
GUARDED_CALLS = {
    "soliton_width": lambda x: analytic.soliton_width(x),
    "gaussian_ground_state": lambda x: analytic.gaussian_ground_state(x, 0.0, 0.0),
    "variational_energy": lambda x: analytic.variational_energy(x, 0.0, 1.0, 1.0),
    "variational_critical_q": lambda x: analytic.variational_critical_q(x),
    "quartic_coefficient": lambda x: quartic_coefficient(Geometry.LINE, x),
    "hamiltonian": lambda x: hamiltonian(line_soliton(n=64), TrapSpec(0.0), x).total,
    "default_initial": lambda x: default_initial(line_grid(-30.0, 30.0, 64), TrapSpec(0.0), x),
    "default_half_extent_s": lambda x: default_half_extent_s(5.0, x),
    # the Q of the run, whose propagator also takes the time error's steps
    "time_error": lambda x: propagate(line_soliton(n=64), TrapSpec(0.0), x, None,
                                      PropagationConfig(t_final=0.05)),
    "q_from_n": lambda x: q_from_n(PhysicalParams(x, x, x, x)),
    "q_from_n-N": lambda x: q_from_n(_li7(N=x)),
    "n_from_q": lambda x: n_from_q(x, _li7()),
    "max_iters": lambda x: DescentConfig(max_iters=x),
    "snapshot_times": lambda x: propagate(line_soliton(n=64), TrapSpec(0.0), 5.0, None,
                                          PropagationConfig(t_final=0.05), [x]),
    "displace": lambda x: displace(line_soliton(n=64), x),
    # a NaN velocity is no aliasing problem, and a finer grid cannot mend it
    "boost": lambda x: boost(line_soliton(n=64), x),
    "find_threshold-q_max": lambda x: find_threshold(spherical_grid(6.0, 48), 1.0,
                                                     (10.0, x), 0.5),
}


class TestGuards:
    def test_nan_input_raises_blowup(self):
        u = line_soliton()
        vals = np.asarray(u.values, dtype=complex).copy()
        vals[3] = np.nan
        # bypass the norm precondition deliberately
        bad = Wavefunction(u.grid, vals / u.grid.norm(np.nan_to_num(vals)))
        with pytest.raises((BlowupError, DomainError)):
            cfg = PropagationConfig(t_final=0.1, dt=1e-3, observe_every=10)
            propagate(bad, TrapSpec(0.0), 5.0, None, cfg)

    def test_requires_unit_norm(self):
        u = line_soliton()
        doubled = Wavefunction(u.grid, 2.0 * u.values)
        with pytest.raises(DomainError):
            propagate(doubled, TrapSpec(0.0), 5.0, None,
                      PropagationConfig(t_final=0.1))

    @pytest.mark.parametrize("scale, t_final", [(math.nan, 0.1), (math.nan, 0.0), (3.0, 0.0)],
                             ids=["propagate-nan", "time_error-nan", "time_error-3"])
    def test_unit_norm_required_by_every_entry(self, scale, t_final):
        # a NaN norm is no norm of 1 either: it must not reach the first record, nor
        # the time error's steps, the only steps of a run to t_final = 0;
        # test_requires_unit_norm covers a norm of 2
        u = line_soliton()
        with pytest.raises(DomainError, match="norm 1"):
            propagate(Wavefunction(u.grid, scale * u.values), TrapSpec(0.0), 5.0, None,
                      PropagationConfig(t_final=t_final))

    @pytest.mark.parametrize("make, name", [
        (lambda: PropagationConfig(t_final=1e300, dt=1e-10), "t_final"),
        (lambda: PropagationConfig(t_final=0.05, dt=1e-320), "t_final"),
        (lambda: propagate(line_soliton(n=64), TrapSpec(0.0), 5.0, None,
                           PropagationConfig(t_final=0.05), [1e308]), "snapshot time"),
    ], ids=["t_final-1e300", "dt-1e-320", "snapshot-1e308"])
    def test_step_count_beyond_the_float_range_rejected(self, make, name):
        # t / dt overflows to inf, which has no whole number of steps
        with pytest.raises(DomainError, match=f"^{name} / dt must be a finite number, got inf$"):
            make()

    def test_off_lattice_t_final_rejected(self):
        with pytest.raises(DomainError, match="t_final 0.0149 is off the dt = 0.01 lattice; "
                                              "the nearest lattice times are 0.01 and 0.02"):
            PropagationConfig(t_final=0.0149, dt=0.01)

    def test_sponge_absorbs_without_error(self):
        u0 = boost(line_soliton(half=20.0, n=512), 1.0).normalized()
        cfg = PropagationConfig(t_final=20.0, dt=1e-3, observe_every=200, sponge_width=4.0)
        records, *_ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        assert records[-1].norm < 0.9  # most of the pulse got eaten

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda x: PropagationConfig(t_final=x),
        lambda x: PropagationConfig(t_final=1.0, dt=x),
        lambda x: find_threshold(spherical_grid(6.0, 48), 1.0, (10.0, 25.0), x),
        lambda x: TrapSpec(x),
        lambda x: PropagationConfig(t_final=0.05, sponge_width=x),
    ], ids=["t_final", "dt", "tol", "lambda_z", "sponge_width"])
    def test_non_finite_parameter_rejected(self, make, bad):
        with pytest.raises(DomainError, match="finite"):
            make(bad)

    @pytest.mark.parametrize("name,bad", [(name, bad) for name in GUARDED_CALLS
                                          for bad in (math.nan, math.inf, -math.inf)]
                             # a count takes integers only, and a bool is none
                             + [("max_iters", 2.5), ("max_iters", True)])
    def test_every_scalar_input_is_guarded(self, name, bad):
        # the message ends with the value it rejects
        with pytest.raises(DomainError, match=rf"must be .*, got {bad}$"):
            GUARDED_CALLS[name](bad)

    def test_spherical_rejected(self):
        g = spherical_grid(6.0, 64)
        u = Wavefunction(g, np.exp(-0.5 * g.r ** 2)).normalized()
        with pytest.raises(DomainError):
            propagate(u, TrapSpec(1.0), 0.0, None, PropagationConfig(t_final=0.1))

    @pytest.mark.parametrize("call", [
        lambda u: propagate(u, TrapSpec(1.0), 0.0, None, PropagationConfig(t_final=0.1)),
        lambda u: propagate(u, TrapSpec(1.0), 0.0, None,
                            PropagationConfig(t_final=0.1, sponge_width=1.0)),
        lambda u: boost(u, 0.5),
        lambda u: displace(u, 0.5),
        lambda u: displace(u, 0.0),
        lambda u: ExternalPotential(parse("s^2"), {}).sample(u.grid),
        lambda u: ExternalPotential(parse("s^2"), {}).sample_gradient_s(u.grid),
    ], ids=["time_error", "sponge", "boost", "displace", "displace_by_0", "sample",
            "sample_gradient_s"])
    def test_spherical_rejected_by_every_s_consumer(self, call):
        # a spherical grid has no s axis; Grid.s_coords says so for each consumer
        g = spherical_grid(6.0, 64)
        u = Wavefunction(g, np.exp(-0.5 * g.r ** 2)).normalized()
        with pytest.raises(DomainError):
            call(u)

    @pytest.mark.parametrize("every", [2.5, 2.0, 0, True])
    def test_observe_every_must_be_an_integer_of_at_least_1(self, every):
        with pytest.raises(DomainError, match="observe_every must be an integer >= 1"):
            PropagationConfig(t_final=0.05, observe_every=every)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("grid", [line_grid(-27.35, 27.35, 64),
                                      cylindrical_grid(6.0, -27.35, 27.35, 16, 64)],
                             ids=lambda g: g.kind.value)
    def test_boost_below_the_aliasing_bound(self, grid, sign):
        # p_s reads the phase increment across 2 ds, which aliases once |v| ds
        # reaches pi/2; below that bound it records the boost exactly
        u = default_initial(grid, TrapSpec(0.0), 5.0)
        v_max = 0.5 * math.pi / grid.ds
        assert moments(boost(u, sign * 0.99 * v_max)).p_s == pytest.approx(
            sign * 0.99 * v_max, rel=1e-12)
        with pytest.raises(DomainError, match=r"must stay below pi/\(2 ds\)"):
            boost(u, sign * 1.01 * v_max)


class TestEhrenfestReportShape:
    def test_report_fields(self):
        u0 = line_soliton()
        cfg = PropagationConfig(t_final=0.5, dt=1e-3, observe_every=25)
        records, *_ = propagate(u0, TrapSpec(0.0), 5.0, None, cfg)
        rep = ehrenfest_check(records, TrapSpec(0.0))
        assert isinstance(rep, EhrenfestReport)
        assert rep.fitted_frequency is None
        assert rep.n_samples == len(records)
