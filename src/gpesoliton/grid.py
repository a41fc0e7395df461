"""Spatial grids in line (s), cylindrical (rho, s) and spherical-radial (r) geometry.

Every geometry is a radial axis (rho or r), an axial axis (s), or both, and
the grid treats every field as rows: shape (n_radial or 1, n_axial or 1), one
row per radial node.  Fields keep their natural shape ((n_s,), (n_rho, n_s)
or (n_r,), the shape of the weights); the stencil and the quadrature reshape
them into rows, so the three geometries share one code path, and an absent
axis has no couplings.

Every axis is n equal cells over its extent (`_cells`), and the constructors
raise DomainError for an extent that is reversed, NaN or infinite, and for an
n that is not an integer of at least MIN_RESOLUTION.  Nodes are cell-centered:
radial nodes sit at half-integer offsets (rho_i = (i + 1/2) * d_rho) so none
touches the coordinate axis.  Quadrature weights are the exact integrals of
the geometric measure over each cell, which makes integrate(1) match the
analytic domain volume to round-off.  The Laplacian is the matching
finite-volume stencil: symmetric negative semidefinite under the weight inner
product, with homogeneous Dirichlet (zero ghost) beyond the outer edges and
the axis handled by the vanishing inner face area.

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
from .errors import DomainError, GridMismatchError, require

MIN_RESOLUTION = 16


class Geometry(enum.Enum):
    LINE = "line"
    CYLINDRICAL = "cylindrical"
    SPHERICAL_RADIAL = "spherical"


class Grid:
    """Immutable discretized domain; construct via the *_grid functions.

    `radial` is the radial coordinate (`rho` or `r`) and `s` the axial one,
    each None on a grid without that axis.  A field of `shape` is viewed as
    rows of shape (n_radial or 1, n_axial or 1): the radial couplings join
    neighbouring rows, the axial ones neighbouring columns, and the weights
    are constant along a row.
    """

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
        self.extents = extents  # the constructor's arguments, for repr
        self.radial = rho if r is None else r
        self._row_shape = (1 if self.radial is None else self.radial.size,
                      1 if s is None else s.size)
        # the stencil: axial 1/ds^2 and radial up/down columns, zero on an absent axis
        self._inv_ds2 = 0.0 if s is None else 1.0 / ds ** 2
        self._rad_up = self._rad_dn = np.zeros((1, 1))
        if self.radial is not None:
            # face area over cell volume in dim = 2 (rho) or 3 (r) dimensions:
            # dim (i+1)^(dim-1) / (((i+1)^dim - i^dim) d^2) up, dim i^(dim-1) / (...) down
            d, dim = (drho, 2) if r is None else (dr, 3)
            i = np.arange(self.radial.size, dtype=float)[:, None]
            cell = ((i + 1.0) ** dim - i ** dim) * d ** 2
            self._rad_up = dim * (i + 1.0) ** (dim - 1) / cell
            self._rad_dn = dim * i ** (dim - 1) / cell
        self._diag = -(self._rad_up + self._rad_dn) - 2.0 * self._inv_ds2
        # face couplings (cell weight x neighbour coefficient) per row
        row_weights = weights.reshape(self._row_shape)[:, 0]
        self._axial_coupling = row_weights * self._inv_ds2
        self._radial_coupling = row_weights * self._rad_up[:, 0]

    @property
    def shape(self):
        return self.weights.shape

    def __repr__(self):
        return f"Grid({self.kind.value}, {self.extents})"

    def check(self, field, what="field"):
        """`field` as an array, GridMismatchError unless it has the grid's shape."""
        field = np.asarray(field)
        if field.shape != self.shape:
            raise GridMismatchError(
                f"{what} shape {field.shape} does not match grid shape {self.shape}"
            )
        return field

    # -- coordinate arrays broadcastable against fields -------------------

    def s_coords(self):
        if self.s is None:
            raise DomainError(f"{self.kind.value} grids have no s coordinate")
        return self.s

    def rho_coords(self):
        if self.rho is None:
            raise DomainError(f"{self.kind.value} grids have no rho coordinate")
        return self.rho[:, None]

    # -- quadrature --------------------------------------------------------

    def integrate(self, field):
        """Weighted sum of samples with the geometry's measure."""
        return np.sum(self.weights * self.check(field))

    def axis_sums(self, weighted):
        """(radial, axial) sums of an already weighted field over every other axis.

        Each is a 1-D array over its axis (rho or r, and s), or None on a grid
        without that axis; `integrate(f)` is the total of either.
        """
        rows = np.reshape(weighted, self._row_shape)
        return (None if self.radial is None else rows.sum(axis=1),
                None if self.s is None else rows.sum(axis=0))

    def norm(self, field) -> float:
        field = np.asarray(field)
        return math.sqrt(float(np.real(self.integrate(np.abs(field) ** 2))))

    # -- Laplacian ----------------------------------------------------------

    def laplacian(self, field):
        """Second-order finite-volume Laplacian with Dirichlet outer edges.

        The diagonal, then the couplings of each axis present: the axial ones
        over the flattened rows, each as one product whose entries that would
        couple the end of one row to the start of the next are zeroed, and the
        radial ones as whole rows.  Every coefficient is real, so on a finite
        complex field the real and imaginary parts of the result are those of
        its parts, bit for bit.
        """
        # contiguous, so that out and the flattened views share memory
        rows = np.ascontiguousarray(self.check(field)).reshape(self._row_shape)
        out = rows * self._diag
        if self.s is not None:
            flat, f = out.reshape(-1), rows.reshape(-1)
            row_ends = slice(self.s.size - 1, None, self.s.size)
            for neighbour, target in ((f[:-1], flat[1:]), (f[1:], flat[:-1])):
                coupling = neighbour * self._inv_ds2
                coupling[row_ends] = 0.0
                target += coupling
        if self.radial is not None:
            out[1:] += self._rad_dn[1:] * rows[:-1]
            out[:-1] += self._rad_up[:-1] * rows[1:]
        return out.reshape(self.shape)

    def dirichlet_energy(self, field) -> float:
        """Discrete int |grad f|^2, equal to Re<f, -laplacian(f)> by summation by parts.

        The edge form of the stencil: the sum over its faces of the face
        coupling (cell weight x neighbour coefficient, the same seen from both
        sides) times |jump|^2, per axis present.  An outer face jumps to the
        zero Dirichlet ghost; the axis face has no area.  No Laplacian is formed.
        A complex field is taken as its real and imaginary parts side by side in
        each row, so that |z|^2 is the sum of their squares.
        """
        rows = self.check(np.ascontiguousarray(field)).reshape(self._row_shape)
        if rows.dtype.kind == "c":
            rows = rows.view(np.float64)
        k = rows.shape[1] // self._row_shape[1]  # floats per node
        energy = 0.0
        if self.s is not None:
            ends = np.concatenate((rows[:, :k], rows[:, -k:]), axis=1)
            energy += float(self._axial_coupling @ (_sq_sums(rows[:, k:] - rows[:, :-k])
                                                    + _sq_sums(ends)))
        if self.radial is not None:
            up = self._radial_coupling  # the face above each row; the last one to the ghost
            energy += float(up[:-1] @ _sq_sums(rows[1:] - rows[:-1])
                            + up[-1] * _sq_sums(rows[-1:])[0])
        return energy

    # -- 1-D operator diagonals for implicit solves ---------------------------

    def laplacian_diagonals(self, direction: str):
        """(lower, diag, upper) of the 1-D Laplacian factor along 's', 'rho' or 'r'.

        lower[0] and upper[-1] are zero (Dirichlet outer edge, vanishing axis face).
        """
        if direction == "s" and self.s is not None:
            lower, upper = np.full((2, self.s.size), self._inv_ds2)
            diag = np.full(self.s.size, -2.0 * self._inv_ds2)
        elif direction in ("rho", "r") and getattr(self, direction) is not None:
            upper, lower = self._rad_up.ravel().copy(), self._rad_dn.ravel().copy()
            diag = -(upper + lower)
        else:
            raise DomainError(f"no {direction!r} direction on this {self.kind.value} grid")
        lower[0] = 0.0
        upper[-1] = 0.0
        return lower, diag, upper

    @functools.cached_property
    def radial_modes(self):
        """Eigenpairs of the transverse trap operator -lap_rho + rho^2 on a cylindrical grid.

        (eigenvalues, to_modes, from_modes): to_modes @ field holds the mode
        amplitudes of a (rho, s) field and from_modes @ amplitudes maps them
        back.  The factor is made symmetric by sqrt(rho), the square root of
        the radial weight, so both maps are real and exact inverses.  Computed
        once per grid, its arrays read-only: every relaxation's preconditioner
        and every propagator's radial step work in this one basis.
        """
        lo, di, up = self.laplacian_diagonals("rho")
        off = -np.sqrt(up[:-1] * lo[1:])
        eigenvalues, vecs = np.linalg.eigh(np.diag(self.rho ** 2 - di) + np.diag(off, 1)
                                           + np.diag(off, -1))
        # one Newton-Schulz step: the ~1e-15 departure from orthogonality would
        # otherwise enter every round trip through the modes with the same sign
        vecs = 1.5 * vecs - 0.5 * vecs @ (vecs.T @ vecs)
        sqrt_w = np.sqrt(self.rho)
        modes = (eigenvalues, vecs.T * sqrt_w, vecs / sqrt_w[:, None])
        for a in modes:
            a.setflags(write=False)
        return modes


def _sq_sums(rows):
    """Sums of squares along each row of a contiguous float array.

    np.vecdot, one BLAS dot per row; a row of one entry is its square, the
    value that dot gives bit for bit (0 + x*x), without a BLAS call per row.
    """
    if rows.shape[1] == 1:
        return np.square(rows.reshape(-1))
    return np.vecdot(rows, rows)


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


def _cells(lo, hi, n, axis, n_name):
    """(nodes, spacing) of n equal cells over [lo, hi], the nodes at their centres;
    DomainError unless lo < hi are finite and n is an integer >= MIN_RESOLUTION."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"the {axis} axis needs finite ends lo < hi, got [{lo}, {hi}]")
    require(n_name, n, ge=MIN_RESOLUTION, integer=True)
    d = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * d, d


def line_grid(s_min: float, s_max: float, n_s: int) -> Grid:
    s, ds = _cells(s_min, s_max, n_s, "s", "n_s")
    return Grid(Geometry.LINE, s=s, ds=ds, weights=np.full(n_s, ds),
                extents={"s_min": s_min, "s_max": s_max, "n_s": n_s})


def cylindrical_grid(rho_max: float, s_min: float, s_max: float,
                     n_rho: int, n_s: int) -> Grid:
    rho, drho = _cells(0.0, rho_max, n_rho, "rho", "n_rho")
    s, ds = _cells(s_min, s_max, n_s, "s", "n_s")
    # midpoint value x cell size is the exact cell integral of 2*pi*rho drho ds
    weights = (2.0 * math.pi * rho * drho * ds)[:, None] * np.ones(n_s)[None, :]
    return Grid(Geometry.CYLINDRICAL, rho=rho, drho=drho, s=s, ds=ds, weights=weights,
                extents={"rho_max": rho_max, "s_min": s_min, "s_max": s_max,
                         "n_rho": n_rho, "n_s": n_s})


def spherical_grid(r_max: float, n_r: int) -> Grid:
    r, dr = _cells(0.0, r_max, n_r, "r", "n_r")
    i = np.arange(n_r, dtype=float)
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
    require("lambda_z", lambda_z, ge=0)
    if lambda_z > 0:
        return max(6.0, 6.0 / math.sqrt(2.0 * lambda_z))
    return max(6.0, 6.0 * soliton_width(Q))


class Wavefunction:
    """Complex (or real) field sampled on a grid, with normalization bookkeeping."""

    def __init__(self, grid: Grid, values):
        self.grid = grid
        self.values = grid.check(values, "values")

    def norm(self) -> float:
        return self.grid.norm(self.values)

    def require_unit_norm(self):
        """DomainError unless the norm lies within 1e-8 of 1; a NaN norm does not."""
        if not abs(self.norm() - 1.0) <= 1e-8:
            raise DomainError("initial state must have norm 1; call .normalized() first")

    def normalized(self) -> "Wavefunction":
        n = self.norm()
        if n == 0:
            raise DomainError("cannot normalize the zero field")
        return Wavefunction(self.grid, self.values / n)

    def copy(self) -> "Wavefunction":
        return Wavefunction(self.grid, self.values.copy())

    def density(self):
        return np.abs(self.values) ** 2
