"""Grids, sampled space-time fields, and discrete differential operators.

Everything downstream (norms, drift constructions, the solver, diagnostics)
works with `SpaceTimeField` objects: scalar or vector fields sampled on a
uniform cell-centered Cartesian grid with a uniform time axis.

Two boundary modes are supported:

* ``periodic`` -- all stencils wrap around;
* ``zero`` -- the field is extended by zero outside the box (ghost cells are
  zero), which is the natural discretization for the compactly supported
  counterexample drifts and for Dirichlet-framed solver runs.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
ZERO = "zero"

_MAGIC = b"DLF1"
_HEADER_MAX = 28 + 8 * 3 + 16 + 16 * 3 + 8  # bytes of a 3D dump's header


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered space-time grid.

    Spatial samples sit at cell centers ``lo + (i + 1/2) h``; time samples at
    ``t0 + j dt`` with ``dt = (t1 - t0)/(nt - 1)`` (a single snapshot grid may
    have ``nt = 1``).
    """

    n: int
    lo: tuple
    hi: tuple
    shape: tuple
    t0: float = 0.0
    t1: float = 1.0
    nt: int = 1
    bc: str = PERIODIC

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if len(self.lo) != self.n or len(self.hi) != self.n or len(self.shape) != self.n:
            raise ValueError("lo/hi/shape must have length n")
        if self.bc not in (PERIODIC, ZERO):
            raise ValueError("boundary mode must be 'periodic' or 'zero'")
        if not all(map(math.isfinite, (*self.lo, *self.hi, self.t0, self.t1))):
            raise ValueError("grid bounds lo/hi/t0/t1 must be finite")
        if any(h <= l for l, h in zip(self.lo, self.hi)) or any(s < 2 for s in self.shape):
            raise ValueError("degenerate spatial extent")
        if self.nt < 1 or (self.nt > 1 and self.t1 <= self.t0):
            raise ValueError("degenerate time axis")

    @property
    def h(self):
        return tuple((hi - lo) / s for lo, hi, s in zip(self.lo, self.hi, self.shape))

    @property
    def dt(self):
        return 0.0 if self.nt == 1 else (self.t1 - self.t0) / (self.nt - 1)

    @property
    def times(self):
        return np.linspace(self.t0, self.t1, self.nt)

    def axis(self, i):
        """Cell-center coordinates along spatial axis i."""
        h = self.h[i]
        return self.lo[i] + h * (np.arange(self.shape[i]) + 0.5)

    def meshgrid(self):
        return np.meshgrid(*[self.axis(i) for i in range(self.n)], indexing="ij")

    @property
    def cell_volume(self):
        return float(np.prod(self.h))

    def with_times(self, t0, t1, nt):
        return Grid(self.n, self.lo, self.hi, self.shape, t0, t1, nt, self.bc)


class SpaceTimeField:
    """Sampled scalar (ncomp=1) or vector (ncomp=n) field on a Grid.

    Scalar samples have shape (nt, *shape); vector samples (nt, *shape, n).
    """

    def __init__(self, grid, samples, ncomp=1, allow_nonfinite=False):
        samples = np.asarray(samples, dtype=float)
        want = (grid.nt,) + tuple(grid.shape) + (() if ncomp == 1 else (ncomp,))
        if samples.shape != want:
            raise ValueError(f"sample shape {samples.shape} != expected {want}")
        if ncomp not in (1, grid.n):
            raise ValueError("component count must be 1 or n")
        if not allow_nonfinite and not np.all(np.isfinite(samples)):
            raise ValueError("non-finite samples (pass allow_nonfinite for singular snapshots)")
        self.grid = grid
        self.ncomp = ncomp
        self.samples = samples

    @property
    def is_scalar(self):
        return self.ncomp == 1

    @classmethod
    def from_function(cls, grid, fn, ncomp=1):
        """Sample fn(t, *X) (scalar) or fn(t, *X) -> (..., ncomp) on the grid."""
        X = grid.meshgrid()
        out = np.empty((grid.nt,) + tuple(grid.shape) + (() if ncomp == 1 else (ncomp,)))
        for j, t in enumerate(grid.times):
            out[j] = fn(t, *X)
        return cls(grid, out, ncomp)


def _require_finite(samples, name):
    """samples, unless one is NaN or infinite: then refuse them, naming the
    first one's index (time slice, cell, component)."""
    finite = np.isfinite(samples)
    if not finite.all():
        idx = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(f"{name} has a non-finite sample ({samples[idx]}) at index "
                         f"{tuple(map(int, idx))}")
    return samples


def _refuse_nan(value, **fields):
    """float(value), unless NaN: then refuse the named fields' first non-finite sample."""
    if math.isnan(value):
        for name, f in fields.items():
            if f is not None:
                _require_finite(f.samples, name)
        raise ValueError("the result is NaN, though every sample is finite")
    return float(value)


def _slab(arr, axis, i, j):
    """View of arr restricted to [i, j) along one axis."""
    idx = [slice(None)] * arr.ndim
    idx[axis] = slice(i, j)
    return arr[tuple(idx)]


def _extend(a, axis, bc, width=(1, 1)):
    """a extended along axis by (before, after) cells from beyond the box: the
    wrapped cells on periodic grids, zeros on zero grids."""
    if bc == PERIODIC:
        ends = _slab(a, axis, a.shape[axis] - width[0], None), _slab(a, axis, 0, width[1])
    else:
        ends = [np.zeros(a.shape[:axis] + (w,) + a.shape[axis + 1:], a.dtype) for w in width]
    return np.concatenate([ends[0], a, ends[1]], axis=axis)


def _box(grid, lo, hi):
    """Cells lo[a]..hi[a] − 1 along each axis a clipped to the grid, a slice per axis; a
    periodic axis whose end they reach is taken whole, so its stencils wrap as on the grid."""
    return tuple(slice(0, N) if grid.bc == PERIODIC and (l <= 0 or h >= N)
                 else slice(min(max(l, 0), N), max(min(h, N), 0))
                 for l, h, N in zip(lo, hi, grid.shape))


def _box_bc(grid, box):
    """The boundary mode of a box along each axis: a box that spans a periodic axis
    wraps along it, and takes the zero mode along every other."""
    return [PERIODIC if grid.bc == PERIODIC and s.stop - s.start == N else ZERO
            for s, N in zip(box, grid.shape)]


def _ddx(a, axis, h, bc):
    p = _extend(a, axis, bc)
    return (_slab(p, axis, 2, None) - _slab(p, axis, None, -2)) / (2.0 * h)


# Faces: face k along an axis is the low face of cell k.  A periodic grid has
# as many faces as cells along each axis; a zero-extension grid has one more,
# and the cells outside the box are zero.  Node samples (cell corners) follow
# the same layout, so the same helpers take node data to edges.


def face_to_cell(f, axis, bc):
    """(low, high) faces of each cell along axis, from face data."""
    if bc == PERIODIC:
        f = _extend(f, axis, bc, (0, 1))
    return _slab(f, axis, None, -1), _slab(f, axis, 1, None)


def cell_to_face(c, axis, bc):
    """(low, high) cells of each face along axis, from cell data."""
    c = _extend(c, axis, bc, (1, 0) if bc == PERIODIC else (1, 1))
    return _slab(c, axis, None, -1), _slab(c, axis, 1, None)


def face_diff(f, axis, bc):
    """High minus low face of each cell: the undivided face divergence along axis."""
    lo, hi = face_to_cell(f, axis, bc)
    return hi - lo


def gradient(f):
    """Centered-difference spatial gradient of a scalar field, per time slice."""
    if not f.is_scalar:
        raise ValueError("gradient expects a scalar field")
    g = f.grid
    comps = [_ddx(f.samples, 1 + i, g.h[i], g.bc) for i in range(g.n)]
    return SpaceTimeField(g, np.stack(comps, axis=-1), ncomp=g.n)


def divergence(v):
    """Centered-difference divergence of a vector field, per time slice."""
    g = v.grid
    if v.ncomp != g.n:
        raise ValueError("divergence expects an n-component field")
    out = np.zeros((g.nt,) + tuple(g.shape))
    for i in range(g.n):
        out += _ddx(v.samples[..., i], 1 + i, g.h[i], g.bc)
    return SpaceTimeField(g, out)


def _curl_components(potential, n, d):
    """Components of the curl of a stream function ψ (n = 2) or a vector
    potential (a1, a2, a3) (n = 3), for a difference ``d(a, axis)``: the one
    curl formula behind `curl` and `solver.PotentialDrift`.  In 2D it is
    (−∂_y ψ, ∂_x ψ)."""
    if n == 2:
        return [-d(potential, 1), d(potential, 0)]
    a1, a2, a3 = potential
    return [d(a3, 1) - d(a2, 2), d(a1, 2) - d(a3, 0), d(a2, 0) - d(a1, 1)]


def curl(potential, grid):
    """Cell-centered curl of a stream function (2D) or vector potential (3D).

    ``potential`` is one time slice: an array on grid.shape in 2D, a triple of
    them (or a (3, *grid.shape) array) in 3D; the result has shape
    (*grid.shape, n).  The centered differences are the ones `divergence`
    uses, with the grid's boundary mode and per-axis spacing; they commute,
    so the discrete divergence of the result vanishes to round-off.
    """
    return np.stack(_curl_components(
        potential, grid.n, lambda a, axis: _ddx(a, axis, grid.h[axis], grid.bc)), axis=-1)


def grid_laplacian(a, grid, first_axis=0):
    """(2n+1)-point Laplacian of an array whose spatial axes start at first_axis."""
    out = np.zeros(a.shape)
    for i in range(grid.n):
        axis = first_axis + i
        p = _extend(a, axis, grid.bc)
        out += (_slab(p, axis, 2, None) - 2.0 * a + _slab(p, axis, None, -2)) / grid.h[i] ** 2
    return out


def laplacian(f):
    """Standard (2n+1)-point Laplacian of a scalar field, per time slice."""
    if not f.is_scalar:
        raise ValueError("laplacian expects a scalar field")
    return SpaceTimeField(f.grid, grid_laplacian(f.samples, f.grid, 1))


# ---------------------------------------------------------------------------
# sampling: component sums, distances, interpolation, shells


def _component_sum(a):
    """Left-to-right sum over the last (component) axis: bit-equal to
    ``a.sum(axis=-1)`` on 2 or 3 components, without its slow short-axis loop."""
    out = a[..., 0] + a[..., 1]
    for c in range(2, a.shape[-1]):
        out += a[..., c]
    return out


def _sq_distance(X, center):
    """|x − center|² at the points whose coordinates along each axis are X."""
    out = (X[0] - center[0]) ** 2
    for i in range(1, len(X)):
        out += (X[i] - center[i]) ** 2
    return out


def _stencil(grid, pts):
    """The linear interpolation stencil of points (npts, n) on the grid: per cell
    corner, each point's flat cell index; per axis, its fraction past the cell
    below; and the points that sample 0 (on zero grids, those beyond the
    outermost cell centers on any axis; periodic grids wrap)."""
    # cell index below each point and the fraction past it, per axis
    base, frac = [], []
    inside = np.ones(len(pts), dtype=bool)
    for i in range(grid.n):
        x = (pts[:, i] - grid.lo[i]) / grid.h[i] - 0.5
        i0 = np.floor(x)
        base.append(i0.astype(np.intp))
        frac.append(x - i0)
        inside &= (x >= 0) & (x <= grid.shape[i] - 1)
    mode = "wrap" if grid.bc == PERIODIC else "clip"
    # 4-byte indices halve the stencil's largest array wherever they can address the grid
    index = np.int32 if math.prod(grid.shape) <= np.iinfo(np.int32).max else np.intp
    cells = np.array([np.ravel_multi_index([b + c for b, c in zip(base, corner)], grid.shape,
                                           mode=mode)
                      for corner in itertools.product((0, 1), repeat=grid.n)], index)
    outside = np.flatnonzero(~inside) if grid.bc != PERIODIC else np.empty(0, np.intp)
    return cells, np.array(frac), outside


def _interpolate(grid, stencil, samples):
    """Linear interpolation in space of m slices (m, *grid.shape, *comp) through
    a `_stencil` of npts points, giving (m, npts, *comp): one bilinear (2D) or
    trilinear (3D) multiply-add per cell corner serves every slice and component."""
    cells, frac, outside = stencil
    comp = samples.shape[1 + grid.n:]
    ncomp = math.prod(comp)
    flat = samples.reshape((len(samples), -1, ncomp))
    below = [1.0 - fr for fr in frac]
    # components stay innermost, so each corner is one contiguous multiply-add
    vals = np.zeros((len(samples), cells.shape[1] * ncomp))
    for cell, corner in zip(cells, itertools.product((0, 1), repeat=grid.n)):
        w = math.prod(fr if c else fb for fr, fb, c in zip(frac, below, corner))
        term = np.take(flat, cell, axis=1).reshape(vals.shape)
        term *= np.repeat(w, ncomp)
        vals += term
    vals = vals.reshape((len(samples), cells.shape[1]) + comp)
    vals[:, outside] = 0.0
    return vals


def _sphere_nodes(n, radii, counts):
    """Quadrature nodes, unit normals and weights on the spheres of the given
    radii, counts[j] points on sphere j, concatenated in radius order.

    2D: uniform angles. 3D: Fibonacci lattice. Weights are |surface|/count, so
    they are nonnegative and sum to each sphere's surface measure exactly.
    Every sphere is built in the same vectorised pass.
    """
    counts = np.asarray(counts, dtype=np.intp)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    npts = np.repeat(counts, counts)  # the point count of each point's sphere
    if n == 2:
        phi = 2.0 * np.pi * (k + 0.5) / npts
        normals = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        areas = [2.0 * np.pi * r for r in radii]
    else:
        z = 1.0 - (2.0 * k + 1.0) / npts
        phi = np.pi * (1.0 + np.sqrt(5.0)) * k
        rxy = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        normals = np.stack([rxy * np.cos(phi), rxy * np.sin(phi), z], axis=-1)
        areas = [4.0 * np.pi * r ** 2 for r in radii]
    points = np.repeat(np.asarray(radii), counts)[:, None] * normals
    weights = np.repeat(np.divide(areas, counts), counts)
    return points, normals, weights


def sphere_points(n, radius, npts):
    """Quadrature nodes, unit normals and weights on the sphere of given radius
    (see `_sphere_nodes`)."""
    return _sphere_nodes(n, [radius], [npts])


def default_shell_points(n, radius, h):
    """Point count that resolves the sphere at roughly the grid spacing."""
    if n == 2:
        return max(64, int(np.ceil(4.0 * np.pi * radius / h)))
    return max(256, int(np.ceil(8.0 * np.pi * radius ** 2 / h ** 2)))


@dataclass
class ShellSamples:
    """Interpolated samples of one field on spheres ∂B_r(center) at all times.

    The points of all radii form one block, in radius order: ``values`` has
    shape (nt, P) for scalar fields or (nt, P, n) for vector fields,
    ``point_normals`` (P, n) and ``point_weights`` (P,); sphere j holds the
    points up to ``ends[j]``.  ``samples`` and ``weights`` are the per-radius
    views: samples[j] has shape (nt, npts_j) or (nt, npts_j, n), and weights[j]
    sum to |∂B_{r_j}|.
    """

    center: tuple
    radii: np.ndarray
    values: np.ndarray
    point_normals: np.ndarray
    point_weights: np.ndarray
    ends: np.ndarray

    @property
    def spans(self):
        """(start, end) of each sphere's points in the block."""
        return list(zip([0, *self.ends[:-1]], self.ends))

    @property
    def samples(self):
        return [self.values[:, s:e] for s, e in self.spans]

    @property
    def weights(self):
        return [self.point_weights[s:e] for s, e in self.spans]


@functools.lru_cache(maxsize=8)
def _shell_geometry(n, lo, hi, shape, bc, center, radii):
    """Normals, weights, ends and interpolation stencil of the shells of the given
    radii around center on a grid's spatial geometry, all read-only: a function of
    floats and tuples alone, so it holds no samples and cannot go stale."""
    g = Grid(n, lo, hi, shape, bc=bc)
    counts = [default_shell_points(n, r, min(g.h)) for r in radii]
    pts, normals, weights = _sphere_nodes(n, radii, counts)
    arrays = normals, weights, np.cumsum(counts, dtype=np.intp), *_stencil(g, pts + center)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def shell_restrict(f, center, radii):
    """Linear-interpolate f onto spheres around center, with quadrature weights.

    Each sphere takes `default_shell_points` points.  The nodes of all radii
    are built in one pass, and share one `_interpolate` call over every time
    slice and component.  The nodes, weights and stencil of the last 8
    (grid geometry, center, radii) sets are kept, read-only (`_shell_geometry`);
    the samples are read afresh on every call.
    """
    g = f.grid
    center = np.asarray(center, dtype=float)
    if g.bc != PERIODIC:
        for r in radii:
            if np.any(center - r < g.lo) or np.any(center + r > g.hi):
                raise ValueError(f"shell r={r} exits the domain")
    normals, weights, ends, *stencil = _shell_geometry(
        g.n, tuple(map(float, g.lo)), tuple(map(float, g.hi)), tuple(g.shape), g.bc,
        tuple(map(float, center)), tuple(map(float, radii)))
    vals = _interpolate(g, stencil, f.samples)
    return ShellSamples(tuple(center), np.asarray(radii, dtype=float), vals, normals,
                        weights, ends)


# ---------------------------------------------------------------------------
# flat binary dump format ("DLF1")
#
# little-endian header:
#   bytes 0:4   magic "DLF1"
#   int64       n
#   int64       ncomp
#   int64       nt
#   int64 * n   spatial resolution per axis
#   float64 * 2 t0 t1
#   float64 * 2n  lo_i hi_i per axis
#   int64       boundary mode (0 periodic, 1 zero)
# followed by row-major float64 samples, shape (nt, *shape[, ncomp]).


def write_field(path, f):
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<3q", g.n, f.ncomp, g.nt))
        fh.write(struct.pack(f"<{g.n}q", *g.shape))
        fh.write(struct.pack("<2d", g.t0, g.t1))
        for i in range(g.n):
            fh.write(struct.pack("<2d", g.lo[i], g.hi[i]))
        fh.write(struct.pack("<q", 0 if g.bc == PERIODIC else 1))
        fh.write(np.ascontiguousarray(f.samples, dtype="<f8").tobytes())


def _dump_header(raw, size):
    """(grid, ncomp, header bytes) of a DLF1 dump from its first bytes and its
    size; a malformed header, or a size other than the one it declares, raises
    ValueError."""
    if raw[:4] != _MAGIC:
        raise ValueError("not a DLF1 field dump")
    if len(raw) < 28:
        raise ValueError("truncated DLF1 header")
    n, ncomp, nt = struct.unpack_from("<3q", raw, 4)
    if n not in (2, 3):
        raise ValueError(f"DLF1 dimension {n} is not 2 or 3")
    header = 28 + 8 * n + 16 + 16 * n + 8
    if len(raw) < header:
        raise ValueError("truncated DLF1 header")
    shape = struct.unpack_from(f"<{n}q", raw, 28)
    t0, t1, *bounds = struct.unpack_from(f"<{2 + 2 * n}d", raw, 28 + 8 * n)
    (bmode,) = struct.unpack_from("<q", raw, header - 8)
    if min(shape) < 1 or nt < 1:
        raise ValueError("DLF1 shape and time count must be positive")
    if ncomp not in (1, n):
        raise ValueError(f"DLF1 component count {ncomp} is not 1 or {n}")
    if bmode not in (0, 1):
        raise ValueError(f"DLF1 boundary mode {bmode} is not 0 or 1")
    count = nt * math.prod(shape) * ncomp
    if size != header + 8 * count:
        raise ValueError(f"DLF1 dump has {size} bytes, header says {header + 8 * count}")
    grid = Grid(n, tuple(bounds[0::2]), tuple(bounds[1::2]), tuple(shape), t0, t1, nt,
                PERIODIC if bmode == 0 else ZERO)
    return grid, ncomp, header


def read_field(path):
    """Read a DLF1 dump; a malformed or truncated file raises ValueError.

    The header is read and checked first, against the file's size
    (``os.fstat``); only then is the body read, once, straight into the
    float64 sample array, so no sample is held twice while a dump is read.
    """
    with open(path, "rb") as fh:
        grid, ncomp, header = _dump_header(fh.read(_HEADER_MAX), os.fstat(fh.fileno()).st_size)
        data = np.empty((grid.nt,) + grid.shape + (() if ncomp == 1 else (ncomp,)), "<f8")
        fh.seek(header)
        if fh.readinto(data) != data.nbytes:
            raise ValueError(f"DLF1 dump has fewer than {header + data.nbytes} bytes")
    return SpaceTimeField(grid, data, ncomp, allow_nonfinite=True)
