import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded

from gpesoliton import analytic
from gpesoliton import grid as grid_module
from gpesoliton.errors import DomainError, GridMismatchError
from gpesoliton.grid import (TridiagonalFactor, Wavefunction, cylindrical_grid,
                             default_half_extent_s, line_grid, spherical_grid)


class TestConstruction:
    def test_line_spacing(self):
        g = line_grid(-20.0, 20.0, 400)
        assert g.ds == pytest.approx(0.1, rel=1e-15)
        assert g.s[0] == pytest.approx(-19.95)

    def test_half_offset_radial_nodes(self):
        g = cylindrical_grid(5.0, -1.0, 1.0, 50, 20)
        assert g.rho[0] == pytest.approx(0.05, rel=1e-15)

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            line_grid(-1.0, 1.0, 8)
        with pytest.raises(DomainError):
            spherical_grid(1.0, 15)

    def test_bad_extents(self):
        # every argument of every constructor, one at a time: a reversed extent,
        # a non-finite one, too few cells and a non-integral count
        good = {line_grid: (-1.0, 1.0, 32), cylindrical_grid: (2.0, -1.0, 1.0, 32, 32),
                spherical_grid: (2.0, 32)}
        reversed_ = {line_grid: {0: 2.0, 1: -2.0}, cylindrical_grid: {0: -2.0, 1: 2.0, 2: -2.0},
                     spherical_grid: {0: -2.0}}
        counts = {line_grid: (2,), cylindrical_grid: (3, 4), spherical_grid: (1,)}
        for make, args in good.items():
            make(*args)
            bad = list(reversed_[make].items())
            bad += [(i, x) for i in reversed_[make] for x in (math.nan, math.inf, -math.inf)]
            bad += [(i, n) for i in counts[make] for n in (15, 32.5)]
            for i, x in bad:
                with pytest.raises(DomainError):
                    make(*args[:i], x, *args[i + 1:])

    def test_default_extent_rule(self):
        # trap-free axis follows the soliton width; trapped axis the Gaussian width
        assert default_half_extent_s(5.0, 0.0) == pytest.approx(
            6 * analytic.soliton_width(5.0))
        assert default_half_extent_s(20.0, 0.0) >= 6.0
        assert default_half_extent_s(5.0, 0.4) == pytest.approx(
            6 / math.sqrt(0.8))


class TestQuadrature:
    def test_cylinder_volume(self):
        g = cylindrical_grid(2.0, -1.0, 1.0, 50, 40)
        assert g.integrate(np.ones(g.shape)) == pytest.approx(8 * math.pi, rel=1e-12)

    def test_line_length_and_sphere_volume(self):
        gl = line_grid(-3.0, 5.0, 64)
        assert gl.integrate(np.ones(64)) == pytest.approx(8.0, rel=1e-12)
        gs = spherical_grid(3.0, 128)
        assert gs.integrate(np.ones(128)) == pytest.approx(
            4 * math.pi * 27 / 3, rel=1e-12)

    def test_zero_field(self):
        g = line_grid(-1.0, 1.0, 32)
        assert g.integrate(np.zeros(32)) == 0.0

    def test_size_mismatch(self):
        g = line_grid(-1.0, 1.0, 32)
        with pytest.raises(GridMismatchError):
            g.integrate(np.ones(31))

    def test_gaussian_ground_state_norm(self):
        # the radial midpoint rule carries an O(drho^2) axis-boundary term, so
        # the 1e-6 oracle needs a radially fine grid (quadrature only, cheap)
        g = cylindrical_grid(5.0, -8.0, 8.0, 2000, 128)
        u = analytic.gaussian_ground_state(0.4, g.rho_coords(), g.s_coords())
        assert g.integrate(np.abs(u) ** 2) == pytest.approx(1.0, abs=1e-6)

    def test_soliton_line_norm(self):
        Q = 5.0
        half = 9.0 / analytic.soliton_inverse_width(Q)
        g = line_grid(-half, half, 2048)
        phi = analytic.soliton_profile(Q, g.s)
        assert g.integrate(np.abs(phi) ** 2) == pytest.approx(1 / math.pi, abs=1e-6)


class TestLaplacian:
    def test_gaussian_cylindrical(self):
        g = cylindrical_grid(8.0, -8.0, 8.0, 128, 128)
        f = np.exp(-0.5 * (g.rho_coords() ** 2 + g.s_coords() ** 2))
        exact = (g.rho_coords() ** 2 + g.s_coords() ** 2 - 3.0) * f
        assert np.max(np.abs(g.laplacian(f) - exact)) < 0.01

    def test_constant_field_interior(self):
        g = line_grid(-1.0, 1.0, 64)
        lap = g.laplacian(np.ones(64))
        assert np.max(np.abs(lap[1:-1])) == 0.0

    @pytest.mark.parametrize("geometry", ["line", "cylindrical", "spherical"])
    def test_second_order_convergence(self, geometry):
        def err(n):
            if geometry == "line":
                g = line_grid(-8.0, 8.0, n)
                f = np.exp(-0.5 * g.s ** 2)
                exact = (g.s ** 2 - 1.0) * f
            elif geometry == "cylindrical":
                g = cylindrical_grid(8.0, -8.0, 8.0, n, n)
                f = np.exp(-0.5 * (g.rho_coords() ** 2 + g.s_coords() ** 2))
                exact = (g.rho_coords() ** 2 + g.s_coords() ** 2 - 3.0) * f
            else:
                g = spherical_grid(8.0, n)
                f = np.exp(-0.5 * g.r ** 2)
                exact = (g.r ** 2 - 3.0) * f
            return np.max(np.abs(g.laplacian(f) - exact))

        order = math.log2(err(64) / err(128))
        assert 1.8 <= order <= 2.2

    @pytest.mark.parametrize("make", [
        lambda: line_grid(-3.0, 3.0, 48),
        lambda: cylindrical_grid(3.0, -2.0, 2.0, 24, 20),
        lambda: spherical_grid(3.0, 40),
    ])
    def test_symmetric_negative_semidefinite(self, make):
        g = make()
        rng = np.random.default_rng(7)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        h = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        a = g.integrate(np.conj(f) * g.laplacian(h))
        b = g.integrate(np.conj(g.laplacian(f)) * h)
        assert abs(a - b) / abs(a) < 1e-10
        assert np.real(g.integrate(np.conj(f) * g.laplacian(f))) < 1e-10

    @pytest.mark.parametrize("make", [
        lambda: line_grid(-3.0, 3.0, 48),
        lambda: cylindrical_grid(3.0, -2.0, 2.0, 24, 20),
        lambda: spherical_grid(3.0, 40),
    ], ids=["line", "cylindrical", "spherical"])
    def test_complex_field_splits_into_parts(self, make):
        g = make()
        rng = np.random.default_rng(11)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        lap = g.laplacian(f)
        assert np.array_equal(lap.real, g.laplacian(f.real))
        assert np.array_equal(lap.imag, g.laplacian(f.imag))

    def test_cylindrical_matches_slice_stencil(self):
        # the finite-volume stencil written out on 2-D slices, one coupling at a time
        g = cylindrical_grid(4.0, -3.0, 5.0, 24, 40)
        f = np.random.default_rng(12).standard_normal(g.shape)
        i = np.arange(g.rho.size, dtype=float)
        up = ((i + 1.0) / ((i + 0.5) * g.drho ** 2))[:, None]
        dn = (i / ((i + 0.5) * g.drho ** 2))[:, None]
        ref = f * (-(up + dn) - 2.0 / g.ds ** 2)
        ref[:, 1:] += f[:, :-1] / g.ds ** 2
        ref[:, :-1] += f[:, 1:] / g.ds ** 2
        ref[1:, :] += dn[1:] * f[:-1, :]
        ref[:-1, :] += up[:-1] * f[1:, :]
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(g.laplacian(f) - ref)) <= 1e-14 * scale
        # a Fortran-ordered field gives the same result
        assert np.array_equal(g.laplacian(np.asfortranarray(f)), g.laplacian(f))

    def test_line_matches_zero_ghost_stencil(self):
        g = line_grid(-3.0, 5.0, 40)
        f = np.random.default_rng(14).standard_normal(g.shape)
        ghosted = np.pad(f, 1)  # a zero ghost beyond each edge
        ref = (ghosted[:-2] - 2.0 * f + ghosted[2:]) / g.ds ** 2
        assert np.max(np.abs(g.laplacian(f) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_spherical_matches_zero_ghost_stencil(self):
        g = spherical_grid(4.0, 40)
        f = np.random.default_rng(15).standard_normal(g.shape)
        i = np.arange(g.r.size, dtype=float)
        cell = ((i + 1.0) ** 3 - i ** 3) * g.dr ** 2
        up, dn = 3.0 * (i + 1.0) ** 2 / cell, 3.0 * i ** 2 / cell  # dn[0] = 0: no axis face
        ghosted = np.pad(f, 1)  # the outer ghost is zero; the inner one is never read
        ref = up * (ghosted[2:] - f) + dn * (ghosted[:-2] - f)
        assert np.max(np.abs(g.laplacian(f) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make", [
        lambda: line_grid(-3.0, 3.0, 48),
        lambda: cylindrical_grid(3.0, -2.0, 2.0, 24, 20),
        lambda: spherical_grid(3.0, 40),
    ], ids=["line", "cylindrical", "spherical"])
    @pytest.mark.parametrize("use", ["integrate", "laplacian", "dirichlet_energy",
                                     "Wavefunction"])
    def test_wrong_shape_rejected(self, make, use):
        # shapes with the grid's node count among them: a reshape would take those
        g = make()
        apply = (lambda f: Wavefunction(g, f)) if use == "Wavefunction" else getattr(g, use)
        wrong = {(1, *g.shape), (g.weights.size,), g.shape[::-1],
                 (*g.shape[:-1], g.shape[-1] + 1)} - {g.shape}
        for shape in wrong:
            with pytest.raises(GridMismatchError):
                apply(np.ones(shape))

    @pytest.mark.parametrize("make", [
        lambda: line_grid(-3.0, 3.0, 48),
        lambda: cylindrical_grid(3.0, -2.0, 2.0, 24, 20),
        lambda: spherical_grid(3.0, 40),
    ], ids=["line", "cylindrical", "spherical"])
    def test_dirichlet_energy_is_the_laplacian_form(self, make):
        # a rough field, non-zero on every Dirichlet edge: summation by parts
        # must hold face by face, edge faces included
        g = make()
        rng = np.random.default_rng(13)
        f = 1.0 + rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        ref = -float(np.real(g.integrate(np.conj(f) * g.laplacian(f))))
        assert abs(g.dirichlet_energy(f) - ref) <= 1e-13 * ref
        ref_real = -float(g.integrate(f.real * g.laplacian(f.real)))
        assert abs(g.dirichlet_energy(f.real) - ref_real) <= 1e-13 * ref

    @pytest.mark.parametrize("make", [
        lambda: line_grid(-3.0, 3.0, 48),
        lambda: cylindrical_grid(3.0, -2.0, 2.0, 24, 20),
        lambda: spherical_grid(6.0, 512),
    ], ids=["line", "cylindrical", "spherical"])
    def test_dirichlet_energy_matches_the_per_row_dot_form(self, make):
        # relax's line search reads it every iteration: the same bits as one
        # BLAS dot of |.|^2 per row of jumps, so that no iteration count moves
        def sq_sums(x):
            x = np.ascontiguousarray(x)
            x = x.view(np.float64) if np.iscomplexobj(x) else x
            return np.vecdot(x, x)

        def reference(f):
            rows = f.reshape(g._row_shape)
            energy = 0.0
            if g.s is not None:
                energy += float(g._axial_coupling @ (sq_sums(np.diff(rows))
                                                     + sq_sums(rows[:, [0, -1]])))
            if g.radial is not None:
                up = g._radial_coupling
                energy += float(up[:-1] @ sq_sums(np.diff(rows, axis=0))
                                + up[-1] * sq_sums(rows[-1]))
            return energy

        g = make()
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-3, 3)
            for field in (f, f.astype(complex), f + 1j * rng.standard_normal(g.shape)):
                assert g.dirichlet_energy(field) == reference(field)


def banded_solve(lower, diag, upper, rhs):
    """One solve_banded call per line: the reference for the stacked solvers."""
    ab = np.zeros((3, diag.size), dtype=np.result_type(lower, diag, upper))
    ab[0, 1:], ab[1], ab[2, :-1] = upper[:-1], diag, lower[1:]
    return solve_banded((1, 1), ab, rhs)


def draw_like(rng, shape, dtype):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if dtype is complex else x


def random_bands(rng, shape, dtype):
    lower, upper = draw_like(rng, shape, dtype), draw_like(rng, shape, dtype)
    return lower, 4.0 + draw_like(rng, shape, dtype), upper  # some pivoting, never singular


class TestTridiagonalFactor:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_lines_match_solve_banded(self, dtype):
        rng = np.random.default_rng(3)
        bands = random_bands(rng, (5, 17), dtype)
        rhs = rng.standard_normal((5, 17)) + 1j * rng.standard_normal((5, 17))
        ref = np.array([banded_solve(*(b[i] for b in bands), rhs[i]) for i in range(5)])
        got = TridiagonalFactor(*bands).solve(rhs)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_many_right_hand_sides_match_solve_banded(self, dtype):
        rng = np.random.default_rng(4)
        bands = random_bands(rng, (23,), dtype)
        rhs = rng.standard_normal((3, 6, 23)).astype(dtype)
        ref = banded_solve(*bands, rhs.reshape(-1, 23).T).T.reshape(rhs.shape)
        factor = TridiagonalFactor(*bands)
        for overwrite in (False, True):
            got = factor.solve(rhs.copy(), overwrite=overwrite)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_rejects_mismatched_rhs(self):
        factor = TridiagonalFactor(*random_bands(np.random.default_rng(5), (4, 8), float))
        with pytest.raises(GridMismatchError):
            factor.solve(np.ones((8, 4)))


def both_backends(monkeypatch, build):
    """build() through the bundled OpenBLAS (scipy where there is none) and the scipy fallback."""
    bundled = build()
    with monkeypatch.context() as m:
        m.setattr(grid_module, "_bundled_lapack", lambda: None)
        return bundled, build()


class TestLapackBackends:
    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("shape, rhs_shape", [((5, 17), (5, 17)), ((23,), (3, 6, 23))],
                             ids=["stacked", "nrhs"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_factor_matches_scipy_fallback(self, monkeypatch, dtype, shape, rhs_shape,
                                           overwrite):
        rng = np.random.default_rng(11)
        bands = random_bands(rng, shape, dtype)
        rhs = draw_like(rng, rhs_shape, dtype)
        got = []
        for factor in both_backends(monkeypatch, lambda: TridiagonalFactor(*bands)):
            b = rhs.copy()
            got.append(factor.solve(b, overwrite=overwrite))
            if not overwrite:
                assert np.array_equal(b, rhs)
        assert np.max(np.abs(got[0] - got[1])) <= 1e-14 * np.max(np.abs(got[1]))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_converted_rhs_matches_float64_contiguous(self, monkeypatch, dtype):
        # float32, strided, Fortran-ordered and read-only right-hand sides are
        # copied, never handed to LAPACK as they are
        rng = np.random.default_rng(12)
        bands = random_bands(rng, (4, 9), dtype)
        read_only = rng.standard_normal((4, 9))
        read_only.flags.writeable = False
        cases = [rng.standard_normal((4, 9)).astype(np.float32),
                 rng.standard_normal((4, 18))[:, ::2],
                 np.asfortranarray(rng.standard_normal((4, 9))),
                 read_only]
        for factor in both_backends(monkeypatch, lambda: TridiagonalFactor(*bands)):
            for rhs in cases:
                before = rhs.copy()
                want = factor.solve(np.ascontiguousarray(rhs, dtype=np.float64))
                for overwrite in (False, True):
                    got = factor.solve(rhs, overwrite=overwrite)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                    assert np.array_equal(rhs, before)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_singular_system_raises_on_both(self, monkeypatch, dtype):
        diag = np.ones(8, dtype=dtype)
        diag[3] = 0.0

        def build():
            with pytest.raises(DomainError, match="zero pivot 4"):
                TridiagonalFactor(0.0, diag, 0.0)

        both_backends(monkeypatch, build)


def test_radial_modes_match_eigh_tridiagonal():
    g = cylindrical_grid(6.0, -1.0, 1.0, 96, 16)
    lo, di, up = g.laplacian_diagonals("rho")
    eig = g.radial_modes[0]
    ref = eigh_tridiagonal(g.rho ** 2 - di, -np.sqrt(up[:-1] * lo[1:]), eigvals_only=True)
    assert np.max(np.abs(eig - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_radial_modes_diagonalize_the_rho_factor():
    g = cylindrical_grid(4.0, -1.0, 1.0, 24, 16)
    eig, to_modes, from_modes = g.radial_modes
    lo, di, up = g.laplacian_diagonals("rho")
    op = np.diag(g.rho ** 2 - di) - np.diag(up[:-1], 1) - np.diag(lo[1:], -1)
    assert np.max(np.abs(from_modes @ to_modes - np.eye(24))) < 1e-14
    assert np.max(np.abs(to_modes @ op @ from_modes - np.diag(eig))) < 1e-11 * eig.max()


class TestWavefunction:
    def test_norm_and_normalize(self):
        g = line_grid(-10.0, 10.0, 256)
        u = Wavefunction(g, np.exp(-g.s ** 2) * (1 + 0j))
        n = u.normalized()
        assert n.norm() == pytest.approx(1.0, abs=1e-12)

    def test_shape_check(self):
        g = line_grid(-1.0, 1.0, 32)
        with pytest.raises(GridMismatchError):
            Wavefunction(g, np.zeros(16))

    def test_zero_normalize_fails(self):
        g = line_grid(-1.0, 1.0, 32)
        with pytest.raises(DomainError):
            Wavefunction(g, np.zeros(32)).normalized()
