"""Spatial grids in line (s), cylindrical (rho, s) and spherical-radial (r) geometry.

Nodes are cell-centered: radial nodes sit at half-integer offsets
(rho_i = (i + 1/2) * d_rho) so none touches the coordinate axis.  Quadrature
weights are the exact integrals of the geometric measure over each cell, which
makes integrate(1) match the analytic domain volume to round-off.  The
Laplacian is the matching finite-volume stencil: symmetric negative
semidefinite under the weight inner product, with homogeneous Dirichlet
(zero ghost) beyond the outer edges and the axis handled by the vanishing
inner face area.

Tridiagonal LU (LAPACK gttrf/gttrs) is called through ctypes in the OpenBLAS
that the numpy wheel bundles and has already loaded, so importing this module
loads no scipy: `import scipy.linalg` alone costs more than most solves.  Where
that library or its symbols are missing (conda, MKL or non-Linux numpy
builds), `TridiagonalFactor` falls back to scipy's LAPACK wrappers, imported
on first use.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import math
from pathlib import Path

import numpy as np

from .analytic import soliton_width
from .errors import DomainError, GridMismatchError

MIN_RESOLUTION = 16


class Geometry(enum.Enum):
    LINE = "line"
    CYLINDRICAL = "cylindrical"
    SPHERICAL_RADIAL = "spherical"


class Grid:
    """Immutable discretized domain; construct via the *_grid functions."""

    def __init__(self, kind, *, s=None, ds=None, rho=None, drho=None, r=None, dr=None,
                 weights=None, extents=None):
        self.kind = kind
        self.s = s
        self.ds = ds
        self.rho = rho
        self.drho = drho
        self.r = r
        self.dr = dr
        self.weights = weights
        self.extents = extents  # dict used for repr/manifests
        self._radial_modes = {}  # radial_modes() results by potential, once computed
        self._init_stencil()

    def _init_stencil(self):
        # up/down neighbor coefficients of the radial part of the divergence form
        if self.kind is Geometry.CYLINDRICAL:
            i = np.arange(self.rho.size, dtype=float)
            self._rad_up = ((i + 1.0) / ((i + 0.5) * self.drho ** 2))[:, None]
            self._rad_dn = (i / ((i + 0.5) * self.drho ** 2))[:, None]
            self._inv_ds2 = 1.0 / self.ds ** 2
            self._diag = -(self._rad_up + self._rad_dn) - 2.0 * self._inv_ds2
        elif self.kind is Geometry.SPHERICAL_RADIAL:
            i = np.arange(self.r.size, dtype=float)
            cell = (i + 1.0) ** 3 - i ** 3
            self._rad_up = 3.0 * (i + 1.0) ** 2 / (cell * self.dr ** 2)
            self._rad_dn = 3.0 * i ** 2 / (cell * self.dr ** 2)

    @property
    def shape(self):
        if self.kind is Geometry.LINE:
            return (self.s.size,)
        if self.kind is Geometry.CYLINDRICAL:
            return (self.rho.size, self.s.size)
        return (self.r.size,)

    def __repr__(self):
        return f"Grid({self.kind.value}, {self.extents})"

    # -- coordinate arrays broadcastable against fields -------------------

    def s_coords(self):
        if self.kind is Geometry.LINE:
            return self.s
        if self.kind is Geometry.CYLINDRICAL:
            return self.s[None, :]
        raise DomainError("spherical-radial grids have no s coordinate")

    def rho_coords(self):
        if self.kind is Geometry.CYLINDRICAL:
            return self.rho[:, None]
        raise DomainError(f"{self.kind.value} grids have no rho coordinate")

    # -- quadrature --------------------------------------------------------

    def integrate(self, field):
        """Weighted sum of samples with the geometry's measure."""
        field = np.asarray(field)
        if field.shape != self.shape:
            raise GridMismatchError(
                f"field shape {field.shape} does not match grid shape {self.shape}"
            )
        return np.sum(self.weights * field)

    def axis_sums(self, weighted):
        """(radial, axial) sums of an already weighted field over every other axis.

        Each is a 1-D array over its axis (rho or r, and s), or None on a grid
        without that axis; `integrate(f)` is the total of either.
        """
        if self.kind is Geometry.LINE:
            return None, weighted
        if self.kind is Geometry.CYLINDRICAL:
            return weighted.sum(axis=1), weighted.sum(axis=0)
        return weighted, None

    def norm(self, field) -> float:
        field = np.asarray(field)
        return math.sqrt(float(np.real(self.integrate(np.abs(field) ** 2))))

    # -- Laplacian ----------------------------------------------------------

    def laplacian(self, field):
        """Second-order finite-volume Laplacian with Dirichlet outer edges.

        On cylindrical grids the two s-neighbour couplings run over the
        flattened field, each as one product whose entries that would couple
        the end of one rho row to the start of the next are zeroed; the radial
        couplings add whole rows.  Every coefficient is real, so on a finite
        complex field the real and imaginary parts of the result are those of
        its parts, bit for bit.
        """
        field = np.asarray(field)
        if field.shape != self.shape:
            raise GridMismatchError(
                f"field shape {field.shape} does not match grid shape {self.shape}"
            )
        if self.kind is Geometry.LINE:
            out = -2.0 * field
            out[1:] += field[:-1]
            out[:-1] += field[1:]
            out /= self.ds ** 2
            return out
        if self.kind is Geometry.CYLINDRICAL:
            field = np.ascontiguousarray(field)  # so out and both reshapes are views
            out = field * self._diag
            flat, f = out.reshape(-1), field.reshape(-1)
            row_ends = slice(self.s.size - 1, None, self.s.size)
            coupling = f[:-1] * self._inv_ds2
            coupling[row_ends] = 0.0
            flat[1:] += coupling
            coupling = f[1:] * self._inv_ds2
            coupling[row_ends] = 0.0
            flat[:-1] += coupling
            out[1:, :] += self._rad_dn[1:] * field[:-1, :]
            out[:-1, :] += self._rad_up[:-1] * field[1:, :]
            return out
        out = field * (-(self._rad_up + self._rad_dn))
        out[1:] += self._rad_dn[1:] * field[:-1]
        out[:-1] += self._rad_up[:-1] * field[1:]
        return out

    def dirichlet_energy(self, field) -> float:
        """Discrete int |grad f|^2, equal to Re<f, -laplacian(f)> by summation by parts.

        The edge form of the stencil: the sum over its faces of the face
        coupling (cell weight x neighbour coefficient, the same seen from both
        sides) times |jump|^2.  An outer face jumps to the zero Dirichlet
        ghost; the axis face has no area.  No Laplacian is formed.
        """
        field = np.ascontiguousarray(field)
        if field.shape != self.shape:
            raise GridMismatchError(
                f"field shape {field.shape} does not match grid shape {self.shape}"
            )
        if self.kind is Geometry.LINE:
            # each face couples with weight ds times 1/ds^2
            return float(_sq_sums(np.diff(field)) + _sq_sums(field[[0, -1]])) / self.ds
        if self.kind is Geometry.SPHERICAL_RADIAL:
            return _radial_faces(field, self.weights * self._rad_up)
        axial = self.weights[:, 0] * self._inv_ds2  # per rho row
        ends = _sq_sums(field[:, [0, -1]])
        return (float(axial @ (_sq_sums(np.diff(field)) + ends))
                + _radial_faces(field, self.weights[:, 0] * self._rad_up[:, 0]))

    # -- 1-D operator diagonals for implicit solves ---------------------------

    def laplacian_diagonals(self, direction: str):
        """(lower, diag, upper) of the 1-D Laplacian factor along 's', 'rho' or 'r'.

        lower[0] and upper[-1] are zero (Dirichlet outer edge, vanishing axis face).
        """
        if direction == "s":
            if self.kind not in (Geometry.LINE, Geometry.CYLINDRICAL):
                raise DomainError("no s direction on this grid")
            n = self.s.size
            lower = np.full(n, 1.0 / self.ds ** 2)
            upper = np.full(n, 1.0 / self.ds ** 2)
            diag = np.full(n, -2.0 / self.ds ** 2)
        elif direction in ("rho", "r"):
            radial = Geometry.CYLINDRICAL if direction == "rho" else Geometry.SPHERICAL_RADIAL
            if self.kind is not radial:
                raise DomainError(f"no {direction} direction on this grid")
            upper = self._rad_up.ravel().copy()
            lower = self._rad_dn.ravel().copy()
            diag = -(upper + lower)
        else:
            raise DomainError(f"unknown direction {direction!r}")
        lower[0] = 0.0
        upper[-1] = 0.0
        return lower, diag, upper

    def radial_modes(self, potential=None):
        """Eigenpairs of -lap_rho + potential on a cylindrical grid.

        Returns (eigenvalues, to_modes, from_modes): to_modes @ field holds the
        mode amplitudes of a (rho, s) field and from_modes @ amplitudes maps
        them back.  The factor is made symmetric by sqrt(rho), the square root
        of the radial weight, so both maps are real and exact inverses.
        Each result is computed once per grid and potential and shared, its
        arrays read-only: the propagator reuses the free modes (no potential)
        and every relaxation the harmonic ones (rho^2).
        """
        potential = 0.0 if potential is None else potential
        key = np.asarray(potential, dtype=float).tobytes()
        if key in self._radial_modes:
            return self._radial_modes[key]
        lo, di, up = self.laplacian_diagonals("rho")
        off = -np.sqrt(up[:-1] * lo[1:])
        eigenvalues, vecs = np.linalg.eigh(np.diag(potential - di) + np.diag(off, 1)
                                           + np.diag(off, -1))
        # one Newton-Schulz step: the ~1e-15 departure from orthogonality would
        # otherwise enter every round trip through the modes with the same sign
        vecs = 1.5 * vecs - 0.5 * vecs @ (vecs.T @ vecs)
        sqrt_w = np.sqrt(self.rho)
        modes = (eigenvalues, vecs.T * sqrt_w, vecs / sqrt_w[:, None])
        for a in modes:
            a.setflags(write=False)
        self._radial_modes[key] = modes
        return modes


def _sq_sums(x):
    """Sums of |x|^2 over the last axis."""
    x = np.ascontiguousarray(x)
    if np.iscomplexobj(x):
        x = x.view(np.float64)
    return np.vecdot(x, x)


def _radial_faces(field, coupling):
    """Sum of coupling[i] |jump|^2 over the faces above radial node i of a
    (radius, ...) field; the face above the last node jumps to the zero ghost."""
    rows = field.reshape(field.shape[0], -1)
    return float(coupling[:-1] @ _sq_sums(np.diff(rows, axis=0))
                 + coupling[-1] * _sq_sums(rows[-1]))


@functools.cache
def _bundled_lapack():
    """{d,z}gttrf/gttrs of the OpenBLAS bundled in the numpy wheel, keyed by dtype.

    None when the wheel has no such library or it lacks the symbols.  The
    library is the ILP64 build numpy links against (64-bit integers, scipy_
    prefix and 64_ suffix on the Fortran names); dlopen returns the copy numpy
    has already loaded.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        routines = {t: (getattr(lib, f"scipy_{t}gttrf_64_"), getattr(lib, f"scipy_{t}gttrs_64_"))
                    for t in "dz"}
    except (OSError, AttributeError):
        return None
    # every Fortran argument by reference; gttrs ends with the hidden length of
    # the TRANS string
    int_p, buf_p = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    for gttrf, gttrs in routines.values():
        gttrf.argtypes = [int_p] + [buf_p] * 5 + [int_p]  # n, dl, d, du, du2, ipiv, info
        # trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, len(trans)
        gttrs.argtypes = ([ctypes.c_char_p, int_p, int_p] + [buf_p] * 6
                          + [int_p, int_p, ctypes.c_size_t])
        gttrf.restype = gttrs.restype = None
    return {np.dtype(np.float64): routines["d"], np.dtype(np.complex128): routines["z"]}


class _BundledLU:
    """gttrf of one set of bands, and gttrs on it, through `_bundled_lapack`."""

    def __init__(self, routines, lo, di, up):
        gttrf, self._gttrs = routines
        n = di.size
        # the LU buffers stay referenced here while LAPACK holds their addresses
        self._lu = (lo[1:], di, up[:-1], np.empty(max(n - 2, 1), di.dtype),
                    np.empty(n, np.int64))
        self._lu_ptrs = [ctypes.c_void_p(a.ctypes.data) for a in self._lu]
        self._n = ctypes.c_int64(n)
        self._info = ctypes.c_int64()
        gttrf(self._n, *self._lu_ptrs, self._info)
        self.info = self._info.value

    def solve(self, b, nrhs):
        """Solve in place for b, C-contiguous with nrhs rows of n: column-major with ldb = n.

        gttrs reports only invalid arguments, which `TridiagonalFactor.solve`
        rules out, so its info is not read.
        """
        self._gttrs(b"N", self._n, ctypes.c_int64(nrhs), *self._lu_ptrs,
                    ctypes.byref(ctypes.c_char.from_buffer(b)), self._n, self._info, 1)
        return b


class _ScipyLU:
    """`_BundledLU` through scipy's LAPACK wrappers."""

    def __init__(self, lo, di, up):
        # deferred: scipy.linalg is slow to import, and only this fallback uses it
        from scipy.linalg import get_lapack_funcs
        gttrf, self._gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=di.dtype)
        *self._lu, self.info = gttrf(lo[1:], di, up[:-1], overwrite_dl=True,
                                     overwrite_d=True, overwrite_du=True)

    def solve(self, b, nrhs):
        x = self._gttrs(*self._lu, b.reshape(nrhs, -1).T, overwrite_b=True)[0]
        return x.T.reshape(b.shape)


class TridiagonalFactor:
    """LU factors (LAPACK gttrf) of tridiagonal systems along the last axis.

    lower, diag and upper broadcast to the factor's shape (..., n), one
    system per line; lower[..., 0] and upper[..., -1] are ignored.  All lines
    are factored once as one system whose couplings between consecutive lines
    are zero, which partial pivoting never crosses.  `solve` takes right-hand
    sides whose trailing axes have the factor's shape; leading axes hold
    further right-hand sides of the same systems (gttrs with nrhs > 1).

    LAPACK is the numpy wheel's own OpenBLAS, bound with ctypes (see the
    module docstring); scipy's wrappers serve only where that library is
    missing.  Both run LAPACK's gttrf/gttrs on the same column-major layout.
    """

    def __init__(self, lower, diag, upper):
        self.shape = np.broadcast_shapes(np.shape(lower), np.shape(diag), np.shape(upper))
        self.dtype = np.result_type(lower, diag, upper, np.float64)
        bands = [np.broadcast_to(b, self.shape).astype(self.dtype) for b in (lower, diag, upper)]
        bands[0][..., 0] = 0.0
        bands[2][..., -1] = 0.0
        lo, di, up = (b.ravel() for b in bands)
        self.size = di.size
        lapack = _bundled_lapack()
        self._lu = (_ScipyLU(lo, di, up) if lapack is None
                    else _BundledLU(lapack[self.dtype], lo, di, up))
        if self._lu.info > 0:
            raise DomainError(f"singular tridiagonal system (zero pivot {self._lu.info})")

    def solve(self, rhs, overwrite=False):
        """The solution for `rhs`; overwrite=True lets it reuse rhs's memory."""
        rhs = np.asarray(rhs)
        if rhs.shape[rhs.ndim - len(self.shape):] != self.shape:
            raise GridMismatchError(f"right-hand side {rhs.shape} does not end in {self.shape}")
        if rhs.dtype.kind == "c" and self.dtype.kind != "c":
            return self.solve(rhs.real) + 1j * self.solve(rhs.imag)
        # a C-contiguous, writeable copy in the factor's dtype unless rhs is one
        b = np.array(rhs, dtype=self.dtype, order="C",
                     copy=None if overwrite and rhs.flags.writeable else True)
        return self._lu.solve(b, b.size // self.size)


def _check_resolution(n, name):
    if n < MIN_RESOLUTION:
        raise DomainError(f"{name} must be at least {MIN_RESOLUTION}, got {n}")


def line_grid(s_min: float, s_max: float, n_s: int) -> Grid:
    if s_max <= s_min:
        raise DomainError(f"need s_max > s_min, got [{s_min}, {s_max}]")
    _check_resolution(n_s, "n_s")
    ds = (s_max - s_min) / n_s
    s = s_min + (np.arange(n_s) + 0.5) * ds
    weights = np.full(n_s, ds)
    return Grid(Geometry.LINE, s=s, ds=ds, weights=weights,
                extents={"s_min": s_min, "s_max": s_max, "n_s": n_s})


def cylindrical_grid(rho_max: float, s_min: float, s_max: float,
                     n_rho: int, n_s: int) -> Grid:
    if rho_max <= 0:
        raise DomainError(f"rho_max must be positive, got {rho_max}")
    if s_max <= s_min:
        raise DomainError(f"need s_max > s_min, got [{s_min}, {s_max}]")
    _check_resolution(n_rho, "n_rho")
    _check_resolution(n_s, "n_s")
    drho = rho_max / n_rho
    ds = (s_max - s_min) / n_s
    rho = (np.arange(n_rho) + 0.5) * drho
    s = s_min + (np.arange(n_s) + 0.5) * ds
    # midpoint value x cell size is the exact cell integral of 2*pi*rho drho ds
    weights = (2.0 * math.pi * rho * drho * ds)[:, None] * np.ones(n_s)[None, :]
    return Grid(Geometry.CYLINDRICAL, rho=rho, drho=drho, s=s, ds=ds, weights=weights,
                extents={"rho_max": rho_max, "s_min": s_min, "s_max": s_max,
                         "n_rho": n_rho, "n_s": n_s})


def spherical_grid(r_max: float, n_r: int) -> Grid:
    if r_max <= 0:
        raise DomainError(f"r_max must be positive, got {r_max}")
    _check_resolution(n_r, "n_r")
    dr = r_max / n_r
    i = np.arange(n_r, dtype=float)
    r = (i + 0.5) * dr
    # exact shell volumes (4*pi/3)((i+1)^3 - i^3) dr^3
    weights = (4.0 * math.pi / 3.0) * ((i + 1.0) ** 3 - i ** 3) * dr ** 3
    return Grid(Geometry.SPHERICAL_RADIAL, r=r, dr=dr, weights=weights,
                extents={"r_max": r_max, "n_r": n_r})


def default_half_extent_s(Q: float, lambda_z: float) -> float:
    """Axial half-extent large enough for the widest state expected.

    For the trap-free axis the soliton lengthens as 1/Q, so the box follows
    six soliton widths (four leaves a percent-level amplitude at the wall,
    which is visible in peak-normalized profile comparisons).  With an axial
    trap the noninteracting width sets the scale.
    """
    if lambda_z > 0:
        return max(6.0, 6.0 / math.sqrt(2.0 * lambda_z))
    if Q <= 0:
        raise DomainError("need Q > 0 to size a trap-free axial box")
    return max(6.0, 6.0 * soliton_width(Q))


class Wavefunction:
    """Complex (or real) field sampled on a grid, with normalization bookkeeping."""

    def __init__(self, grid: Grid, values):
        values = np.asarray(values)
        if values.shape != grid.shape:
            raise GridMismatchError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        self.grid = grid
        self.values = values

    def norm(self) -> float:
        return self.grid.norm(self.values)

    def normalized(self) -> "Wavefunction":
        n = self.norm()
        if n == 0:
            raise DomainError("cannot normalize the zero field")
        return Wavefunction(self.grid, self.values / n)

    def copy(self) -> "Wavefunction":
        return Wavefunction(self.grid, self.values.copy())

    def density(self):
        return np.abs(self.values) ** 2
