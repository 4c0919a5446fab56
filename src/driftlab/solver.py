"""Conservative advection-diffusion stepper and the dynamic-rescaling transform.

Solves ∂_t θ − Δθ + b·∇θ = 0 with unit diffusivity by first-order upwind
flux-form advection, one kernel for both boundary modes (the mode, and the
support box below, set only the fluxes through two end faces per axis), and
one timestep rule.  The grid's boundary mode picks the diffusion step:

* ``zero`` grids — forward Euler diffusion on a bounded box with
  zero-extension (Dirichlet) boundary data, enforced on a three-cell buffer
  frame;
* ``periodic`` grids — backward Euler diffusion, with the finite-difference Laplacian
  inverted exactly by FFT.  The implicit operator is an inverse-positive M-matrix, so
  discrete monotonicity (max principle, comparison) survives.  θ's row spectra are
  kept between steps, and a step re-transforms only the rows its advection changed.

Advection velocities live on cell faces.  Face data produced from a stream
function (2D) or edge-sampled vector potential (3D) has exactly zero discrete
divergence by telescoping, which is what makes the conservation and
monotonicity ledgers hold to round-off.  Cell-sampled drift fields are
interpolated to faces, made divergence-free by one real-FFT Poisson solve (on
the odd extension of zero grids) when their divergence is more than round-off;
the face averages of a centered curl, as every drift the lab builds is, are kept.

Faces live on a support box (``_Faces.box``, else the whole grid): a block of
cells outside which every face is exactly 0, as are the box's end faces inside
the grid.  A drift slice's faces are formed on the bounding box of its nonzero
cells widened by one cell; a projected slice takes the whole grid.  Only the
box's faces are stored, and the step advects on the box alone.  A ``FieldDrift``
holds the faces of one bracket of slices, in one record with no weak references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (PERIODIC, ZERO, SpaceTimeField, _box, _box_bc, _component_sum,
                     _curl_components, _interpolate, _require_finite, _slab, _sq_distance,
                     _stencil, cell_to_face, divergence, face_diff, face_to_cell,
                     grid_laplacian)

BUFFER_CELLS = 3
_EPS = np.finfo(float).eps
# solve refuses a step that would need more steps than this to reach t1: a cap
# on run time, not error, which long valid runs on fine grids also meet
MAX_STEPS = 10**6


@dataclass(frozen=True)
class SolverConfig:
    dt: float | None = None
    safety: float = 0.4

    def __post_init__(self):
        if not 0.0 < self.safety < 1.0:
            raise ValueError("CFL safety factor must lie in (0, 1)")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("timestep must be positive and finite")


# ---------------------------------------------------------------------------
# drift providers (face velocities)


class ZeroDrift:
    """The drift b = 0: one cached faces object per grid, of read-only empty
    arrays on an empty support box, so the solver makes no flux pass."""

    def __init__(self):
        self._faces = {}

    def face_velocities(self, grid, t):
        key = (tuple(grid.shape), grid.bc)
        if key not in self._faces:
            box = (slice(0, 0),) * grid.n
            self._faces[key] = _Faces((np.broadcast_to(0.0, _face_shape(grid, box, a))
                                       for a in range(grid.n)), box)  # read-only
        return self._faces[key]

    def sample(self, grid):
        return SpaceTimeField(
            grid, np.zeros((grid.nt,) + tuple(grid.shape) + (grid.n,)), grid.n)


def _nodes(grid):
    """Node (cell-corner) coordinates: wrap-unique for periodic, N+1 for zero."""
    axes = []
    for i in range(grid.n):
        npts = grid.shape[i] + (0 if grid.bc == PERIODIC else 1)
        axes.append(grid.lo[i] + grid.h[i] * np.arange(npts))
    return axes


class PotentialDrift:
    """Drift defined by a stream function (2D) or vector potential (3D).

    ``stream_fn(t, X, Y)`` or ``potential_fn(t, X, Y, Z) -> (A1, A2, A3)``
    are sampled at cell corners / edge midpoints; face-normal velocities are
    exact discrete curls, hence divergence-free to round-off.
    """

    def __init__(self, n, stream_fn=None, potential_fn=None):
        if n == 2 and stream_fn is None:
            raise ValueError("2D drift needs a stream function")
        if n == 3 and potential_fn is None:
            raise ValueError("3D drift needs a vector potential")
        self.n = n
        self.stream_fn = stream_fn
        self.potential_fn = potential_fn

    def face_velocities(self, grid, t):
        ax = _nodes(grid)
        h = grid.h

        def diff(arr, axis):
            return face_diff(arr, axis, grid.bc) / h[axis]

        if grid.n == 2:
            X, Y = np.meshgrid(ax[0], ax[1], indexing="ij")
            return _curl_components(self.stream_fn(t, X, Y), 2, diff)
        # 3D: sample the potential components at edge midpoints
        def mid(i):
            return ax[i][: len(ax[i]) - (0 if grid.bc == PERIODIC else 1)] + h[i] / 2

        X1 = np.meshgrid(mid(0), ax[1], ax[2], indexing="ij")
        X2 = np.meshgrid(ax[0], mid(1), ax[2], indexing="ij")
        X3 = np.meshgrid(ax[0], ax[1], mid(2), indexing="ij")
        A = (self.potential_fn(t, *X1)[0], self.potential_fn(t, *X2)[1],
             self.potential_fn(t, *X3)[2])
        return _curl_components(A, 3, diff)

    def sample(self, grid):
        """Cell-centered samples by averaging the two faces of each cell."""
        def cells(t, *X):
            faces = self.face_velocities(grid, t)
            pairs = [face_to_cell(f, a, grid.bc) for a, f in enumerate(faces)]
            return np.stack([0.5 * (lo + hi) for lo, hi in pairs], axis=-1)

        return SpaceTimeField.from_function(grid, cells, grid.n)


class _Faces(list):
    """The faces on their support ``box`` (``_face_block`` per axis), held strongly
    by a FieldDrift's bracket record; a plain list is the whole grid's."""

    __slots__ = ("box",)

    def __init__(self, faces=(), box=None):
        super().__init__(faces)
        self.box = box


def _face_block(grid, box, a):
    """The faces along axis a of the box's cells, as a slice per axis of the
    grid's faces: both end faces, unless the box wraps (spans a periodic axis)."""
    wrap = _box_bc(grid, box)[a] == PERIODIC
    return box[:a] + (slice(box[a].start, box[a].stop + (not wrap)),) + box[a + 1:]


def _face_shape(grid, box, a):
    return tuple(s.stop - s.start for s in _face_block(grid, box, a))


def _span(mask):
    """The bounding box of a mask's true entries, a slice per axis (None if it has none)."""
    hits = [np.flatnonzero(mask.any(axis=tuple(i for i in range(mask.ndim) if i != a)))
            for a in range(mask.ndim)]
    return tuple(slice(int(k[0]), int(k[-1]) + 1) for k in hits) if hits[0].size else None


def _nonzero_box(grid, cells):
    """The bounding box of a slice's nonzero cells widened by one cell (``fields._box``)."""
    nonzero = cells[..., 0] != 0  # by component: any(axis=-1) is slow on length n
    for c in range(1, grid.n):
        nonzero |= cells[..., c] != 0
    span = _span(nonzero)
    if span is None:
        return (slice(0, 0),) * grid.n
    return _box(grid, [s.start - 1 for s in span], [s.stop + 1 for s in span])


def _embed(grid, outer, faces):
    """A _Faces's arrays placed in zero faces of an outer box holding its box."""
    out = []
    for a, u in enumerate(faces):
        e = np.zeros(_face_shape(grid, outer, a))
        e[tuple(slice(s.start - o.start, s.start - o.start + m)  # an empty box places none
                for o, s, m in zip(outer, faces.box, u.shape))] = u
        out.append(e)
    return out


def _box_union(b0, b1):
    """The smallest box holding boxes b0 and b1 (an empty box holds nothing)."""
    if any(s.start == s.stop for s in b0):
        return b1
    if any(s.start == s.stop for s in b1):
        return b0
    return tuple(slice(min(s0.start, s1.start), max(s0.stop, s1.stop))
                 for s0, s1 in zip(b0, b1))


class FieldDrift:
    """Drift from cell-centered samples of a vector field, read slice by slice.

    A slice's faces are midpoint averages of the adjacent cells on its support
    box (see ``_nonzero_box``), made discretely divergence-free by
    ``_project_faces``, which restores exact telescoping conservation: a Poisson
    solve (``_poisson``, one real FFT in either mode) runs only for a slice whose
    face divergence is more than round-off, and its faces cover the whole grid.
    Linear interpolation in time between the stored slices, on the union of
    their boxes.  Equal consecutive slices share one set of faces and are not
    interpolated between, so a steady field's faces are made once.

    The slices are a stored field's, ``FieldDrift(b)``, or a function's,
    ``FieldDrift.from_function``, each read when first needed, refused if not
    finite and compared with the one before.  The drift holds the last slice
    read and one record of its last request's bracket: its runs' projected
    faces, and the last two runs' embedded and interpolated faces, kept across
    one-run requests.  Faces outside the record are formed again, so a forward
    march keeps at most two cell and two projected slices alive, and reads and
    projects each slice once.  The record lives as long as the drift.
    """

    def __init__(self, b):
        if b.ncomp != b.grid.n:
            raise ValueError("drift must be a vector field")
        self._set_source(b.grid, b.samples.__getitem__, lambda: b)

    @classmethod
    def from_function(cls, grid, fn):
        """The drift of ``SpaceTimeField.from_function(grid, fn, grid.n)``, read slice by slice."""
        X, drift = grid.meshgrid(), cls.__new__(cls)
        drift._set_source(grid, lambda j: np.asarray(fn(grid.times[j], *X), dtype=float),
                          lambda: SpaceTimeField.from_function(grid, fn, grid.n))
        return drift

    def _set_source(self, grid, slice_at, whole):  # slice j is slice_at(j); whole() is all
        self.grid, self._slice_at, self._whole = grid, slice_at, whole
        self._last, self._run_start = (None, None), []  # the last slice read; run starts
        # the bracket record: the last request's slices (j0, j1), the faces of their
        # one or two runs by run start, and of the last two runs interpolated between
        # their starts, union box, embedded faces and interpolated arrays
        self._at, self._runs, self._pair = None, {}, (None,)

    def _slice(self, j):
        if self._last[0] != j:
            self._last = j, _require_finite(self._slice_at(j), f"drift slice {j}")
        return self._last[1]

    def _start(self, j):
        """The first slice of j's run of equal slices."""
        starts = self._run_start
        for i in range(len(starts), j + 1):  # in order, each against the one before
            same = i and np.array_equal(self._slice(i - 1), self._slice(i))
            starts.append(starts[-1] if same else i)
        return starts[j]

    def _faces_at_slice(self, j, runs):  # j's run's faces, from runs or the record, or formed
        j = self._start(j)
        faces = runs.get(j, self._runs.get(j))
        if faces is None:
            g, cells = self.grid, self._slice(j)
            box = _nonzero_box(g, cells)
            on_box, faces = cells[box], _Faces((), box)
            for a, bc in enumerate(_box_bc(g, box)):  # the cells beyond the box are 0
                lo, hi = cell_to_face(on_box[..., a], a, bc)
                faces.append(0.5 * (lo + hi))
            faces = _project_faces(g, faces)
        runs[j] = faces
        return faces

    def _bracket(self, grid, t):
        """Stored slices j0 ≤ j1 around time t, clamped to the stored span,
        and the weight w of j1 in the linear interpolation between them."""
        g = self.grid
        if tuple(grid.shape) != tuple(g.shape) or grid.bc != g.bc:
            raise ValueError("drift grid does not match the run grid")
        if tuple(grid.lo) != tuple(g.lo) or tuple(grid.hi) != tuple(g.hi):
            raise ValueError(f"drift grid spans lo {tuple(g.lo)}, hi {tuple(g.hi)}, "
                             f"the run grid lo {tuple(grid.lo)}, hi {tuple(grid.hi)}")
        if g.nt == 1:
            return 0, 0, 0.0
        s = min(max((t - g.t0) / (g.t1 - g.t0) * (g.nt - 1), 0.0), g.nt - 1.0)
        j0 = math.floor(s)
        return j0, min(j0 + 1, g.nt - 1), s - j0

    def face_velocities(self, grid, t):
        """The faces at time t: a slice's, or linear in time between two
        slices, on the union of their boxes.  Interpolated faces are written
        into arrays the bracket owns and stay valid until the next request."""
        j0, j1, w = self._bracket(grid, t)
        at = (j0, j0) if w == 0.0 else (j0, j1)  # at w = 0, slice j0's faces alone
        if self._at != at:  # else straight to the record's faces or interpolation
            # the old record is replaced once both runs' faces are found, so a march
            # that moves on by one slice projects only the new one
            runs = {}
            f0, f1 = (self._faces_at_slice(j, runs) for j in at)
            self._at, self._runs = at, runs
            if len(runs) == 2 and self._pair[0] != tuple(runs):  # embedded once per pair
                box = _box_union(f0.box, f1.box)
                e0, e1 = _embed(self.grid, box, f0), _embed(self.grid, box, f1)
                self._pair = tuple(runs), box, e0, e1, [np.empty_like(u) for u in e0]
        if len(self._runs) == 1:
            return next(iter(self._runs.values()))
        _, box, e0, e1, out = self._pair
        for r, u0, u1 in zip(out, e0, e1):
            np.multiply(u0, 1 - w, out=r)
            r += u1 * w
        return _Faces(out, box)

    def sample(self, grid):
        """Cell samples at grid's stored times: every slice when the times
        match, else linear in time between the slices face_velocities uses."""
        self._bracket(grid, grid.t0)  # refuses a grid of another shape, mode or extent
        if np.array_equal(grid.times, self.grid.times):
            return self._whole()

        def interpolated(t, *X):
            j0, j1, w = self._bracket(grid, t)
            return self._slice(j0) * (1 - w) + self._slice(j1) * w

        return SpaceTimeField.from_function(grid, interpolated, grid.n)


def _face_div(grid, faces):
    """The face divergence on the faces' box (``_Faces.box``, else the whole grid)."""
    out = np.zeros([faces[a - 1].shape[a] for a in range(grid.n)])  # other faces' cell counts
    for a, u in enumerate(faces):  # faces along an axis the box spans wrap
        out += face_diff(u, a, PERIODIC if u.shape[a] == out.shape[a] else ZERO) / grid.h[a]
    return out


def _fd_symbol(shape, h):
    """Eigenvalues of the periodic finite-difference Laplacian on a grid of this
    shape and spacing h, on the half spectrum ``np.fft.rfftn`` keeps (last axis 0..N//2)."""
    sym = np.zeros(shape)
    for a, (N, ha) in enumerate(zip(shape, h)):
        m = np.fft.fftfreq(N) * N
        lam = -(2.0 - 2.0 * np.cos(2.0 * np.pi * m / N)) / ha**2
        sym = sym + lam.reshape([N if i == a else 1 for i in range(len(shape))])
    return np.ascontiguousarray(sym[..., : shape[-1] // 2 + 1])


def _poisson(grid, div):
    """φ with ``grid_laplacian(φ) = div`` (less div's mean on periodic grids) by one
    real FFT.  On a zero grid, of div's odd extension [0, div, 0, −div reversed] to
    2(N + 1) cells along every axis: its solution is odd, so 0 on the two zero cells,
    as the zero grid's boundary data are, and its cells 1..N are the zero grid's."""
    axes = tuple(range(grid.n))
    if grid.bc == ZERO:
        for a in axes:
            pad = np.zeros_like(_slab(div, a, 0, 1))
            div = np.concatenate([pad, div, pad, -np.flip(div, a)], axis=a)
    sym = _fd_symbol(div.shape, grid.h)
    # the symbol vanishes only at the zero mode, whose correction is 0
    sym[(0,) * grid.n] = 1.0
    dh = np.fft.rfftn(div, axes=axes)
    dh[(0,) * grid.n] = 0.0
    dh /= sym
    phi = np.fft.irfftn(dh, s=div.shape, axes=axes)
    return phi if grid.bc == PERIODIC else phi[tuple(slice(1, N + 1) for N in grid.shape)]


def _project_faces(grid, faces):
    """Faces on their box (``_Faces.box``, else the whole grid) made discretely
    divergence-free, as a _Faces: as they are if max|div|·min(h) ≤ 2n·ε·max|u|,
    round-off (the face averages of a centered curl do), else by the whole grid's
    ``_poisson`` correction, in either mode, whose faces it keeps."""
    whole = tuple(slice(0, N) for N in grid.shape)
    box = getattr(faces, "box", None) or whole
    peak = max(np.abs(u).max(initial=0.0) for u in faces)
    div = _face_div(grid, faces)
    if np.abs(div).max(initial=0.0) * min(grid.h) <= 2 * grid.n * _EPS * peak:
        return _Faces(faces, box)
    faces = _embed(grid, whole, _Faces(faces, box))
    phi = _poisson(grid, _face_div(grid, faces))
    out = []
    for a in range(grid.n):
        lo, hi = cell_to_face(phi, a, grid.bc)
        out.append(faces[a] - (hi - lo) / grid.h[a])
    return _Faces(out, whole)


def as_drift(b, grid):
    """Normalize the drift argument: None, provider object, or SpaceTimeField.  A provider
    may return a face list again only with its values unchanged (see ``_Upwind``)."""
    if b is None:
        return ZeroDrift()
    if hasattr(b, "face_velocities"):
        return b
    if isinstance(b, SpaceTimeField):
        tol = 1e-6 * max(np.abs(b.samples).max(), 1.0) / min(grid.h)
        if np.abs(divergence(b).samples).max() > tol:
            raise ValueError("drift is not divergence-free to tolerance")
        return FieldDrift(b)
    raise TypeError("unsupported drift argument")


# ---------------------------------------------------------------------------
# stepping


class _Upwind:
    """First-order upwind flux divergence on the faces' support box, one
    kernel for both boundary modes.

    The box (``_Faces.box``, else the whole grid) is a block of cells outside
    which every face is exactly 0, as are its end faces inside the grid, so
    every cell outside it has div = 0 and the kernel reads and writes the box
    alone, and the faces cover only the box (``_face_block``).  The box wraps
    along an axis it spans on a periodic grid and takes the zero mode along
    every other, where its end faces are 0 or the zero grid's own.  The whole
    grid is the largest box.

    Face k of the box along an axis is the low face of its cell k, so its left
    state is cell k − 1 and its right state cell k.  Faces 0..N − 1 take
    F = max(u, 0)·θ_L + min(u, 0)·θ_R in a flux buffer of the box's shape,
    which every axis shares: θ_R is θ on the box and θ_L its flat buffer
    shifted by the axis stride ``prod(shape[a+1:])``, with no ghost-padded
    copy (a box smaller than the grid copies its cells once).  Each cell's
    (F_hi − F_lo)/h reads F shifted the same way and is accumulated into the
    result.  The mode decides only the two hyperplanes the shift gets wrong:
    face 0's left state is the wrapped cell N − 1 or 0, and the last cell's
    high flux is face 0 again, or face N with a right state of 0 (zero states
    enter as products with 0.0).  The box's buffers are prefixes of four
    buffers of the grid's size.

    ``split`` keeps a reference to the faces and stores no copy of their
    split, so they must stay unchanged until ``div``.  Faces passed again as
    the same list must hold the same values, since their peaks and
    ``max_outflow`` are kept for them; a new list over the same arrays may
    hold new values.  The views ``div`` slices are kept per box, set of face
    arrays and θ, so a march that hands over the same arrays at each step, in
    a new list or not, builds them once.
    """

    def __init__(self, grid):
        self.grid, self.h = grid, grid.h
        self.flux, self.prod, self.cells, self.res = (
            np.empty(math.prod(grid.shape)) for _ in range(4))
        self.whole = tuple(slice(0, N) for N in grid.shape)
        self.faces = self.outflow = self.box = None
        self.axes, self.views = [], (None,)

    def split(self, faces):
        """Keep the face velocities for div(); return ``speed``, max |u|.

        Also sets ``outflow_bound``, Σ_a (max u⁺ − min u⁻)/h_a over the faces
        of each axis: no cell's outflow rate exceeds it.
        """
        if faces is not self.faces:
            box = getattr(faces, "box", self.whole)
            if box != self.box or len(faces) != len(self.axes) or any(
                    u is not v for u, (_, v) in zip(faces, self.axes)):
                if len(faces) != self.grid.n:
                    raise ValueError(f"{len(faces)} face arrays, but the grid needs {self.grid.n}")
                axes = []  # per axis: whether the box wraps, and its faces
                for a, (u, s) in enumerate(zip(faces, box)):
                    want = _face_shape(self.grid, box, a)
                    if u.shape != want:
                        raise ValueError(f"faces along axis {a} have shape {u.shape}, "
                                         f"but their box needs {want}")
                    axes.append((u.shape[a] == s.stop - s.start, u))
                self.box, self.axes, self.views = box, axes, (None,)
            peaks = [(max(u.max(), 0.0), -min(u.min(), 0.0)) if u.size else (0.0, 0.0)
                     for _, u in self.axes]
            self.faces, self.outflow = faces, None
            self.speed = max(max(p) for p in peaks)
            self.outflow_bound = sum((p + m) / h for (p, m), h in zip(peaks, self.h))
        return self.speed

    def max_outflow(self):
        """Largest outflow rate of a cell for the faces of the last split():
        max_i Σ_a (max(u, 0) on its high face − min(u, 0) on its low face) / h_a."""
        if self.outflow is None:
            total = 0.0
            for a, (wrap, u) in enumerate(self.axes):
                bc = PERIODIC if wrap else ZERO
                total = total + (face_to_cell(np.maximum(u, 0.0), a, bc)[1]
                                 - face_to_cell(np.minimum(u, 0.0), a, bc)[0]) / self.h[a]
            self.outflow = total.max(initial=0.0)
        return self.outflow

    def _slice_views(self, theta):
        """θ, the box's buffers, θ's box cells if they are copied, and per axis
        the views of the faces, the buffers and the cells that div() reads."""
        shape = tuple(s.stop - s.start for s in self.box)
        size = math.prod(shape)
        F, tmp, th, res = (b[:size].reshape(shape)
                           for b in (self.flux, self.prod, self.cells, self.res))
        if size == theta.size:
            th = theta
        flat, Ff, Tf = th.reshape(-1), F.reshape(-1), tmp.reshape(-1)
        axes = []
        for a, (wrap, u) in enumerate(self.axes if size else ()):
            N, s = shape[a], math.prod(shape[a + 1:])
            axes.append((wrap, _slab(u, a, 0, N),  # the low face of each cell
                         _slab(u, a, 0, 1), _slab(u, a, N, N + 1),  # faces 0 and N
                         Ff[s:], flat[:-s], Ff[:-s], Tf[:-s],  # shifted by the stride
                         _slab(F, a, 0, 1), _slab(F, a, N - 1, N), _slab(th, a, N - 1, N),
                         _slab(tmp, a, N - 1, N), self.h[a]))
        return theta, F, tmp, th, res, theta[self.box] if 0 < size < theta.size else None, axes

    def div(self, theta):
        """div(u theta) on the box of the last split(), in a buffer the next
        call overwrites."""
        if self.views[0] is not theta:
            self.views = self._slice_views(theta)
        _, F, tmp, th, res, cells, axes = self.views
        if cells is not None:  # the box's cells, copied to be shifted flat
            np.copyto(th, cells)
        for a, (wrap, low, u0, uN, Fhi, thlo, Flo, Tlo, F0, FN, thN, last, h) in enumerate(axes):
            np.maximum(low, 0.0, out=F)
            np.minimum(low, 0.0, out=tmp)
            Fhi *= thlo
            # the flat shift has written face 0 with a wrong left state: rebuild it
            np.maximum(u0, 0.0, out=F0)
            F0 *= thN if wrap else 0.0
            tmp *= th
            F += tmp
            np.subtract(Fhi, Flo, out=Tlo)
            # and the last cell's difference with a wrong high flux: face 0 again,
            # or face N, max(u, 0)·θ_{N−1} + min(u, 0)·0, written over face 0's
            if not wrap:
                np.maximum(uN, 0.0, out=F0)
                F0 *= thN
                F0 += np.multiply(np.minimum(uN, 0.0, out=last), 0.0, out=last)
            np.subtract(F0, FN, out=last)
            if a:
                tmp /= h
                res += tmp
            else:
                np.divide(tmp, h, out=res)
        return res


def _apply_buffer(theta, grid):
    for a in range(grid.n):
        _slab(theta, a, 0, BUFFER_CELLS)[...] = 0.0
        _slab(theta, a, -BUFFER_CELLS, None)[...] = 0.0


@dataclass
class SimRun:
    """Completed solver trajectory with per-step conservation ledgers."""

    trajectory: SpaceTimeField
    drift: object
    config: SolverConfig
    step_times: np.ndarray
    mass: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray

    @property
    def grid(self):
        return self.trajectory.grid

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("step,time,mass,min,max\n")
            for i in range(len(self.step_times)):
                fh.write(f"{i},{self.step_times[i]:.17g},{self.mass[i]:.17g},"
                         f"{self.minimum[i]:.17g},{self.maximum[i]:.17g}\n")


def _timestep(grid, config, upwind, speed):
    """The step before it is cut to the next stored time.

    The automatic step keeps below the diffusion bound safety·h²/(2n) (for
    the explicit diffusion of zero grids) and a 1/n share of the advective
    bound safety·h/speed.  Every step with a drift must also meet the per-cell
    positivity bound dt·(D + max_i A_i) ≤ safety, where A_i is the outflow
    rate of cell i and D = 2Σ1/h_a² on zero grids (0 on periodic ones): then
    every cell's update is a convex combination and the max principle holds.
    The automatic step on zero grids is cut to it; a configured dt that
    breaks any of the bounds is refused.
    """
    h = min(grid.h)
    explicit = grid.bc == ZERO
    diff_bound = config.safety * h**2 / (2.0 * grid.n) if explicit else np.inf
    adv_bound = np.inf if speed == 0 else config.safety * h / speed
    diffusion = 2.0 * sum(1.0 / ha**2 for ha in grid.h) if explicit else 0.0

    def admits(dt):
        # split()'s bound on the outflow needs no pass over the faces, and a
        # time-dependent drift hands over new faces at almost every step
        return dt * (diffusion + upwind.outflow_bound) <= config.safety

    def cell_bound():
        rate = diffusion + upwind.max_outflow()
        return np.inf if rate == 0 else config.safety / rate

    if config.dt is None:
        # the extra 1/n on the advective bound keeps the upwind update a
        # convex combination in every dimension; the explicit step meets its
        # two bounds one at a time, not summed, so with a drift it is cut to
        # the cell bound
        dt = min(diff_bound, adv_bound / grid.n, (grid.t1 - grid.t0) / 50.0)
        if explicit and speed != 0 and not admits(dt):
            dt = min(dt, cell_bound())
        return dt
    if not admits(config.dt) or config.dt > min(diff_bound, adv_bound) * (1 + 1e-12):
        cell = cell_bound()
        if config.dt > min(diff_bound, adv_bound, cell) * (1 + 1e-12):
            raise ValueError(
                f"timestep {config.dt:g} violates CFL bounds (diffusion {diff_bound:g}, "
                f"advection {adv_bound:g}, per-cell {cell:g})")
    return config.dt


def solve(theta0, b, grid, config=None):
    """March theta0 from grid.t0 to grid.t1, storing at the grid's times.

    theta0 is an array on grid.shape (or a single-snapshot SpaceTimeField); b is None, a
    vector SpaceTimeField, or a face-velocity provider (whose contract ``as_drift`` states).
    The stepper substeps between stored times with a CFL-admissible dt; an explicitly
    configured dt that violates the CFL or per-cell positivity bounds is refused, and so is
    any step that would need more than MAX_STEPS steps to reach grid.t1, however
    admissible.  Diffusion is forward Euler on zero grids and backward Euler by FFT on
    periodic ones, from θ's row spectra, kept between steps: a step re-transforms only the
    rows its advection changed.
    """
    config = config or SolverConfig()
    explicit = grid.bc == ZERO
    if grid.nt < 2:
        raise ValueError("run grid needs at least two stored times")
    if isinstance(theta0, SpaceTimeField):
        theta0 = theta0.samples[0]
    theta = np.array(theta0, dtype=float, order="C")
    if theta.shape != tuple(grid.shape):
        raise ValueError("initial data shape does not match the grid")
    drift = as_drift(b, grid)

    if not explicit:
        sym, scaled_dt = _fd_symbol(grid.shape, grid.h), None
        den = np.empty_like(sym)
        rows = np.fft.rfft(theta, axis=-1, norm="forward")  # θ's row spectra, kept
    upwind = _Upwind(grid)
    vol = grid.cell_volume

    if explicit:
        _apply_buffer(theta, grid)

    traj = np.empty((grid.nt,) + tuple(grid.shape))
    traj[0] = theta
    times = [grid.t0]
    mass = [theta.sum() * vol]
    mn = [theta.min()]
    mx = [theta.max()]

    out_times = grid.times
    step = 0
    for j in range(1, grid.nt):
        t = out_times[j - 1]
        t_end = out_times[j]
        while t < t_end - 1e-14 * max(1.0, abs(t_end)):
            speed = upwind.split(drift.face_velocities(grid, t))
            dt = _timestep(grid, config, upwind, speed)
            if dt * MAX_STEPS < grid.t1 - t:
                raise ValueError(f"timestep {dt:g} at t = {t:g} needs more than "
                                 f"{MAX_STEPS} steps to reach t1 = {grid.t1:g} "
                                 "(solver.MAX_STEPS caps the step count, not a CFL bound)")
            dt = min(dt, t_end - t)
            adv = upwind.div(theta)  # 0 outside upwind.box
            if explicit:
                lap = grid_laplacian(theta, grid)
                lap[upwind.box] -= adv
                lap *= dt
                theta += lap  # in place, bit-equal to theta + dt * lap: div keeps its views
                _apply_buffer(theta, grid)
            else:
                adv *= dt
                theta[upwind.box] -= adv
                span = _span(adv.any(axis=-1))  # the box's rows that advection changed
                if span is not None:
                    at = upwind.box[:-1]
                    np.fft.rfft(theta[at][span], axis=-1, norm="forward", out=rows[at][span])
                for a in range(grid.n - 1):
                    np.fft.fft(rows, axis=a, out=rows)
                # times a real reciprocal (no complex division) that also scales the
                # fft, rebuilt when dt changes
                if dt != scaled_dt:
                    np.subtract(1.0, np.multiply(sym, dt, out=den), out=den)
                    np.divide(1.0 / math.prod(grid.shape[:-1]), den, out=den)
                    scaled_dt = dt
                rows *= den
                for a in range(grid.n - 1):
                    np.fft.ifft(rows, axis=a, norm="forward", out=rows)
                np.fft.irfft(rows, n=grid.shape[-1], axis=-1, norm="forward", out=theta)
            t += dt
            step += 1
            # a NaN anywhere makes the sum non-finite, so the scan runs only then
            m = theta.sum()
            if not math.isfinite(m) and np.isnan(theta).any():
                raise RuntimeError(f"NaN detected at step {step} (t = {t:g})")
            times.append(t)
            mass.append(m * vol)
            mn.append(theta.min())
            mx.append(theta.max())
        traj[j] = theta
    return SimRun(SpaceTimeField(grid, traj), drift, config, np.asarray(times),
                  np.asarray(mass), np.asarray(mn), np.asarray(mx))


# ---------------------------------------------------------------------------
# fundamental solutions


def gaussian_blob(grid, center, width, normalize=True):
    """Discretely unit-mass Gaussian of the given width at center."""
    r2 = _sq_distance(grid.meshgrid(), center)
    # a huge width squares to inf (a flat blob), a tiny one to 0 (no mass, or 0/0)
    with np.errstate(all="ignore"):
        g = np.exp(-r2 / (2.0 * np.float64(width) ** 2))
    if normalize:
        mass = g.sum() * grid.cell_volume
        if not 0.0 < mass < math.inf:
            raise ValueError(f"a blob of width {width!r} has no finite mass on the grid")
        g = g / mass
    return g


def fundamental_solution(source, s, b, grid, config=None, width=None):
    """Evolve a narrow Gaussian from (source, s): approximates Γ(·, t; y, s).

    The effective initial width is max(2h, requested); the result matches
    the true fundamental solution once t − s dominates the squared width.
    """
    if width is not None and not (math.isfinite(width) and width > 0):
        raise ValueError("width must be finite and positive")
    h = min(grid.h)
    width = max(2.0 * h, width or 0.0)
    source = np.asarray(source, dtype=float)
    if grid.bc == ZERO:
        margin = (BUFFER_CELLS + 2) * h + 3.0 * width
        for i in range(grid.n):
            if source[i] - grid.lo[i] < margin or grid.hi[i] - source[i] < margin:
                raise ValueError("source too close to the boundary")
    run_grid = grid.with_times(s, grid.t1, grid.nt)
    theta0 = gaussian_blob(run_grid, source, width)
    return solve(theta0, b, run_grid, config)


def gaussian_comparison(grid, center, width, t_elapsed, n):
    """Analytic evolution of the discrete Gaussian source: width^2 -> width^2+2t."""
    r2 = _sq_distance(grid.meshgrid(), center)
    s2 = width**2 + 2.0 * t_elapsed
    return (2.0 * np.pi * s2) ** (-n / 2.0) * np.exp(-r2 / (2.0 * s2))


# ---------------------------------------------------------------------------
# dynamic rescaling


@dataclass
class RescaleState:
    lam: np.ndarray
    lam_dot: np.ndarray
    theta_t: SpaceTimeField
    drift_t: SpaceTimeField
    outward_min: float


def dynamic_rescale(run):
    """Transform θ(x,t) -> θ(λ(t) y, t) with λ(start) = 1, λ' = −2‖b(·,t)‖_∞.

    Requires total speed ‖b‖_{L¹_t L^∞_x} ≤ 1/8 over the window, which keeps
    3/4 ≤ λ ≤ 1; the transformed drift b̃(y,t) = b(λy, t) − λ' y points
    outward on 1/2 ≤ |y| ≤ 1 (the minimum radial component is reported).
    """
    g = run.grid
    bfield = run.drift.sample(g)
    speeds = np.sqrt(_component_sum(bfield.samples**2)).max(axis=tuple(range(1, g.n + 1)))
    # cumulative trapezoid rule: the speed integral up to each stored time
    travelled = np.concatenate(
        [[0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1]) * np.diff(g.times))])
    if travelled[-1] > 0.125 + 1e-12:
        raise ValueError("total speed exceeds 1/8; rescaling precondition fails")
    lam = 1.0 - 2.0 * travelled
    lam_dot = -2.0 * speeds

    theta_t = np.empty_like(run.trajectory.samples)
    drift_t = np.empty_like(bfield.samples)
    Y = g.meshgrid()
    y = np.stack(Y, axis=-1)
    for j in range(g.nt):
        stencil = _stencil(g, (lam[j] * y).reshape(-1, g.n))
        theta_t[j] = _interpolate(g, stencil, run.trajectory.samples[j:j + 1]).reshape(g.shape)
        drift_t[j] = _interpolate(g, stencil, bfield.samples[j:j + 1]).reshape(y.shape)
        drift_t[j] -= lam_dot[j] * y

    r = np.sqrt(_sq_distance(Y, (0.0,) * g.n))
    ann = (r >= 0.5) & (r <= 1.0)
    rad = _component_sum(drift_t * y) / np.maximum(r, 1e-300)
    outward = float(rad[:, ann].min()) if ann.any() else np.inf
    return RescaleState(lam, lam_dot, SpaceTimeField(g, theta_t),
                        SpaceTimeField(g, drift_t, g.n), outward)
