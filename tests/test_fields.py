import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.fields import (
    Grid,
    SpaceTimeField,
    _ddx,
    _extend,
    _shell_geometry,
    _sphere_nodes,
    cell_to_face,
    default_shell_points,
    divergence,
    face_to_cell,
    gradient,
    grid_laplacian,
    laplacian,
    read_field,
    shell_restrict,
    sphere_points,
    write_field,
)


def box(n=2, N=64, bc="periodic", L=1.0, nt=1):
    return Grid(n, (-L,) * n, (L,) * n, (N,) * n, 0.0, max(1e-9, 0.1), nt, bc)


def gaussian_field(grid, sigma=0.3):
    X = grid.meshgrid()
    r2 = sum(x**2 for x in X)
    arr = np.exp(-r2 / (2 * sigma**2))
    return SpaceTimeField(grid, np.broadcast_to(arr, (grid.nt,) + arr.shape).copy())


def test_grid_basics():
    g = box(2, 32)
    assert g.h == (2.0 / 32, 2.0 / 32)
    assert g.axis(0)[0] == pytest.approx(-1.0 + g.h[0] / 2)
    with pytest.raises(ValueError):
        Grid(4, (0, 0, 0, 0), (1, 1, 1, 1), (8, 8, 8, 8))
    with pytest.raises(ValueError):
        Grid(2, (0, 0), (1, 1), (8, 8), bc="reflect")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_refuses_nonfinite_bounds(bad):
    for kw in ({"lo": (bad, 0.0)}, {"hi": (1.0, bad)}, {"t0": bad}, {"t1": bad}):
        args = {"lo": (0.0, 0.0), "hi": (1.0, 1.0), "t0": 0.0, "t1": 1.0} | kw
        with pytest.raises(ValueError, match="finite"):
            Grid(2, args["lo"], args["hi"], (8, 8), args["t0"], args["t1"], 2)


def test_field_shape_checks():
    g = box(2, 16)
    with pytest.raises(ValueError):
        SpaceTimeField(g, np.zeros((1, 16, 15)))
    with pytest.raises(ValueError):
        SpaceTimeField(g, np.full((1, 16, 16), np.nan))
    # singular snapshots can opt out of the finiteness check
    SpaceTimeField(g, np.full((1, 16, 16), np.inf), allow_nonfinite=True)


def test_divergence_constant_and_shear():
    g = box(2, 48)
    e1 = np.zeros((1, 48, 48, 2))
    e1[..., 0] = 1.0
    assert np.allclose(divergence(SpaceTimeField(g, e1, 2)).samples, 0.0)

    X, Y = g.meshgrid()
    shear = np.zeros((1, 48, 48, 2))
    shear[0, ..., 0] = np.sin(np.pi * Y)
    assert np.abs(divergence(SpaceTimeField(g, shear, 2)).samples).max() < 1e-12


def test_divergence_linear_field_order():
    # v = (x1, 0): div = 1 on the interior; O(h^2) convergence measured by
    # grid refinement on zero-extension grids (interior points only).
    errs = []
    for N in (32, 64, 128):
        g = box(2, N, bc="zero")
        X, _ = g.meshgrid()
        v = np.zeros((1, N, N, 2))
        v[0, ..., 0] = np.sin(X)  # smooth, analytic div = cos(x)
        d = divergence(SpaceTimeField(g, v, 2)).samples[0]
        interior = d[3:-3, 3:-3]
        truth = np.cos(X)[3:-3, 3:-3]
        errs.append(np.abs(interior - truth).max())
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8
    assert np.log2(errs[1] / errs[2]) > 1.8


def test_gradient_linear_exact_and_gaussian():
    g = box(2, 64, bc="zero")
    X, Y = g.meshgrid()
    f = SpaceTimeField(g, X[None].copy())
    gr = gradient(f).samples[0]
    assert np.allclose(gr[4:-4, 4:-4, 0], 1.0, atol=1e-12)
    assert np.allclose(gr[4:-4, 4:-4, 1], 0.0, atol=1e-12)

    sig = 0.3
    errs = []
    for N in (64, 128):
        gN = box(2, N, bc="zero")
        XN, _ = gN.meshgrid()
        gf = gaussian_field(gN, sig)
        grad = gradient(gf).samples[0]
        truth_x = -XN / sig**2 * gf.samples[0]
        errs.append(np.abs(grad[3:-3, 3:-3, 0] - truth_x[3:-3, 3:-3]).max())
    assert errs[1] < 5e-3
    assert np.log2(errs[0] / errs[1]) > 1.8  # O(h^2)


def test_laplacian_quadratic():
    g = box(2, 64, bc="zero")
    X, _ = g.meshgrid()
    f = SpaceTimeField(g, (X**2)[None].copy())
    lap = laplacian(f).samples[0]
    assert np.allclose(lap[4:-4, 4:-4], 2.0, atol=1e-10)
    const = SpaceTimeField(g, np.ones((1, 64, 64)))
    assert np.allclose(laplacian(const).samples[0][4:-4, 4:-4], 0.0)


def test_laplacian_loglog_profile():
    # radial log log(1/r) in 2D has Laplacian -(r log(1/r))^-2
    N = 1024
    g = Grid(2, (-0.5, -0.5), (0.5, 0.5), (N, N), bc="zero")
    X, Y = g.meshgrid()
    r = np.sqrt(X**2 + Y**2)
    r = np.maximum(r, 1e-12)
    f = SpaceTimeField(g, np.log(np.log(1.0 / r))[None].copy())
    lap = laplacian(f).samples[0]
    mask = (r > np.exp(-4)) & (r < np.exp(-1))
    truth = -1.0 / (r * np.log(1.0 / r)) ** 2
    rel = np.abs((lap[mask] - truth[mask]) / truth[mask])
    assert np.median(rel) < 0.01
    assert rel.max() < 0.02


def test_div_grad_matches_laplacian_under_refinement():
    orders = []
    prev = None
    for N in (32, 64, 128):
        g = box(2, N, bc="zero")
        f = gaussian_field(g)
        d = divergence(gradient(f)).samples[0][4:-4, 4:-4]
        l = laplacian(f).samples[0][4:-4, 4:-4]
        err = np.abs(d - l).max()
        if prev is not None:
            orders.append(np.log2(prev / max(err, 1e-300)))
        prev = err
    # div(grad) uses a wide centered stencil; it agrees with the compact
    # Laplacian to O(h^2)
    assert all(o > 1.8 for o in orders)


def test_operator_linearity():
    rng = np.random.default_rng(0)
    g = box(2, 32)
    a = SpaceTimeField(g, rng.standard_normal((1, 32, 32)))
    b = SpaceTimeField(g, rng.standard_normal((1, 32, 32)))
    lhs = laplacian(SpaceTimeField(g, 2.0 * a.samples - 3.0 * b.samples)).samples
    rhs = 2.0 * laplacian(a).samples - 3.0 * laplacian(b).samples
    assert np.allclose(lhs, rhs, atol=1e-12)
    lhs = gradient(SpaceTimeField(g, a.samples + b.samples)).samples
    rhs = gradient(a).samples + gradient(b).samples
    assert np.allclose(lhs, rhs, atol=1e-12)


def _shifted_reference(a, axis, off, bc):
    """a[i + off] along axis: np.roll on periodic grids, zero fill on zero grids."""
    if bc == "periodic":
        return np.roll(a, -off, axis=axis)
    out = np.zeros_like(a)
    dst, src = [slice(None)] * a.ndim, [slice(None)] * a.ndim
    if off > 0:
        dst[axis], src[axis] = slice(None, -off), slice(off, None)
    else:
        dst[axis], src[axis] = slice(-off, None), slice(None, off)
    out[tuple(dst)] = a[tuple(src)]
    return out


@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("shape", [(5, 7), (4, 5, 6)])
def test_stencils_bit_equal_to_shifted_copy_reference(shape, bc):
    """The boundary extension reads the same neighbours, in the same order of
    operations, as shifted copies and np.roll face pairs: bit for bit, with
    signed zeros and NaN in the data."""
    n = len(shape)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(shape)
    flat = a.reshape(-1)
    flat[::5], flat[1::7], flat[2::11] = -0.0, 0.0, np.nan
    g = Grid(n, (-1.0,) * n, tuple(1.0 + 0.5 * i for i in range(n)), shape, bc=bc)
    lap = np.zeros(shape)
    for axis in range(n):
        up, down = (_shifted_reference(a, axis, off, bc) for off in (1, -1))
        want = (up - down) / (2.0 * g.h[axis])
        assert _ddx(a, axis, g.h[axis], bc).tobytes() == want.tobytes()
        lap += (up - 2.0 * a + down) / g.h[axis] ** 2
        if bc == "periodic":
            faces = (a, np.roll(a, -1, axis)), (np.roll(a, 1, axis), a)
        else:
            pre = (slice(None),) * axis
            zero = np.zeros_like(a[pre + (slice(0, 1),)])
            faces = ((a[pre + (slice(None, -1),)], a[pre + (slice(1, None),)]),
                     (np.concatenate([zero, a], axis), np.concatenate([a, zero], axis)))
        for got, ref in zip((face_to_cell(a, axis, bc), cell_to_face(a, axis, bc)), faces):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]
    assert grid_laplacian(a, g).tobytes() == lap.tobytes()


def test_shell_weights_and_constant_field():
    for n, N in ((2, 96), (3, 48)):
        g = box(n, N, bc="zero")
        ones = SpaceTimeField(g, np.ones((1,) + (N,) * n))
        radii = [0.3, 0.6]
        sh = shell_restrict(ones, (0,) * n, radii)
        for j, r in enumerate(radii):
            area = 2 * np.pi * r if n == 2 else 4 * np.pi * r**2
            assert np.all(sh.weights[j] >= 0)
            assert abs(sh.weights[j].sum() - area) / area < 0.005
            integral = (sh.samples[j][0] * sh.weights[j]).sum()
            assert abs(integral - area) / area < 0.005


def test_shell_radius_and_gaussian_average():
    g = box(2, 128, bc="zero")
    X, Y = g.meshgrid()
    rf = SpaceTimeField(g, np.sqrt(X**2 + Y**2)[None].copy())
    sh = shell_restrict(rf, (0, 0), [0.5])
    assert np.abs(sh.samples[0] - 0.5).max() < 2e-4

    sig = 0.35
    gf = gaussian_field(g, sig)
    sh = shell_restrict(gf, (0, 0), [0.4])
    avg = (sh.samples[0][0] * sh.weights[0]).sum() / sh.weights[0].sum()
    truth = np.exp(-(0.4**2) / (2 * sig**2))
    assert abs(avg - truth) / truth < 0.01


def test_shell_exits_domain():
    g = box(2, 32, bc="zero")
    f = SpaceTimeField(g, np.zeros((1, 32, 32)))
    with pytest.raises(ValueError):
        shell_restrict(f, (0.8, 0.0), [0.5])


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_nodes_batch_matches_per_radius(n):
    rng = np.random.default_rng(40 + n)
    for radii in ([], [0.5], list(rng.uniform(0.01, 2.0, 25)), rng.uniform(0.01, 2.0, 7)):
        counts = [default_shell_points(n, r, 0.05) for r in radii]
        batch = _sphere_nodes(n, radii, counts)
        per_radius = [sphere_points(n, r, c) for r, c in zip(radii, counts)]
        for k, got in enumerate(batch):
            want = (np.concatenate([nodes[k] for nodes in per_radius]) if per_radius
                    else np.empty((0, n) if k < 2 else (0,)))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    f = gaussian_field(box(n, 16))
    sh = shell_restrict(f, (0,) * n, [])
    assert sh.values.shape == (1, 0) and sh.samples == [] and sh.weights == []


@pytest.mark.parametrize("bc,mode", [("periodic", "wrap"), ("zero", "constant")])
@pytest.mark.parametrize("width", [(1, 1), (1, 0), (0, 1)])
# 2D and 3D, and arrays with a zero-length axis: the faces of an empty support box
@pytest.mark.parametrize("shape", [(5, 4), (3, 4, 5), (1, 6), (0, 3), (3, 0), (2, 0, 4)])
def test_extend_bit_equal_to_np_pad(shape, width, bc, mode):
    rng = np.random.default_rng(len(shape) + sum(shape))
    a = rng.standard_normal(shape)
    a.reshape(-1)[::3] = -0.0
    for axis in range(a.ndim):
        if bc == "periodic" and shape[axis] == 0:
            continue  # np.pad cannot wrap an empty axis; a periodic box spans its axis
        pad = [(0, 0)] * a.ndim
        pad[axis] = width
        want = np.pad(a, pad, mode=mode)
        got = _extend(a, axis, bc, width)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _shell_case(bc="zero", lo=(-1.0, -0.6), hi=(1.2, 0.8)):
    """A vector field on an anisotropic 2D box and shells around its middle, the
    outer one within a fifth of a cell of the box on the narrow axis."""
    g = Grid(2, lo, hi, (24, 17), 0.0, 1.0, 3, bc)
    rng = np.random.default_rng(9)
    f = SpaceTimeField(g, rng.standard_normal((3, 24, 17, 2)), 2)
    center = (np.asarray(lo, dtype=float) + np.asarray(hi, dtype=float)) / 2
    radii = [0.25, (hi[1] - lo[1]) / 2 - 0.2 * g.h[1]]
    return f, center, radii


def _shell_arrays(sh):
    return sh.values, sh.point_weights, sh.point_normals, sh.ends


def test_shell_geometry_cache_reuses_only_geometry():
    _shell_geometry.cache_clear()
    f, center, radii = _shell_case()
    cold = shell_restrict(f, center, radii)
    warm = shell_restrict(f, center, radii)
    info = _shell_geometry.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for a, b in zip(_shell_arrays(cold), _shell_arrays(warm)):
        assert np.array_equal(a, b)
    # the geometry is read-only; the samples are read afresh on every call
    for a in _shell_arrays(warm)[1:]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    f.samples *= 2.0
    assert np.array_equal(shell_restrict(f, center, radii).values, 2.0 * cold.values)
    assert _shell_geometry.cache_info().hits == 2


def test_shell_geometry_cache_keys_on_extent_and_boundary_mode():
    _shell_geometry.cache_clear()
    f, center, radii = _shell_case()
    base = shell_restrict(f, center, radii)
    wider, _, _ = _shell_case(lo=(-1.1, -0.6), hi=(1.3, 0.8))  # same center, same shape
    periodic, _, _ = _shell_case(bc="periodic")
    for g in (wider, periodic):
        sh = shell_restrict(SpaceTimeField(g.grid, f.samples, 2), center, radii)
        assert not np.array_equal(sh.values, base.values)
    assert _shell_geometry.cache_info().misses == 3
    # list and ndarray bounds hash to the tuple grid's key and give its values
    for lo, hi in (([-1, -0.6], [1.2, 0.8]), (np.array([-1.0, -0.6]), np.array([1.2, 0.8]))):
        g = Grid(2, lo, hi, (24, 17), 0.0, 1.0, 3, "zero")
        sh = shell_restrict(SpaceTimeField(g, f.samples, 2), list(center), np.array(radii))
        for a, b in zip(_shell_arrays(sh), _shell_arrays(base)):
            assert np.array_equal(a, b)
    assert _shell_geometry.cache_info().misses == 3


def test_shell_exits_domain_with_cached_geometry():
    g = box(2, 32, bc="zero")
    f = SpaceTimeField(g, np.zeros((1, 32, 32)))
    # the geometry of a shell beyond the box, cached as if a call had built it
    _shell_geometry(2, g.lo, g.hi, g.shape, "zero", (0.8, 0.0), (0.5,))
    for _ in range(2):
        with pytest.raises(ValueError, match="exits the domain"):
            shell_restrict(f, (0.8, 0.0), [0.5])


def _map_coordinates_shells(f, center, sh):
    """Reference: map_coordinates(order=1) per time slice and component."""
    ndimage = pytest.importorskip("scipy.ndimage")
    g = f.grid
    mode = "grid-wrap" if g.bc == "periodic" else "constant"
    data = f.samples.reshape(f.samples.shape[:1 + g.n] + (f.ncomp,))
    out = []
    for r, w in zip(sh.radii, sh.weights):
        pts = sphere_points(g.n, r, len(w))[0] + center
        coords = [(pts[:, i] - g.lo[i]) / g.h[i] - 0.5 for i in range(g.n)]
        vals = np.array([[ndimage.map_coordinates(data[j, ..., c], coords, order=1,
                                                  mode=mode, cval=0.0)
                          for c in range(f.ncomp)] for j in range(g.nt)])
        vals = np.moveaxis(vals, 1, -1)
        out.append(vals[..., 0] if f.is_scalar else vals)
    return out


# anisotropic boxes; the last axis is the narrowest, so the zero-bc edge shell
# comes within half a cell of the box on it
_SHELL_BOXES = {2: ((-1.0, -0.6), (1.2, 0.8), (24, 17)),
                3: ((-1.0, -1.0, -0.5), (1.0, 1.2, 0.7), (10, 13, 8))}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("vector", [False, True])
def test_shell_restrict_matches_map_coordinates(n, bc, vector):
    lo, hi, shape = _SHELL_BOXES[n]
    g = Grid(n, lo, hi, shape, 0.0, 1.0, 3, bc)
    ncomp = n if vector else 1
    rng = np.random.default_rng(7 * n + vector)
    data = rng.standard_normal((3,) + shape + ((ncomp,) if vector else ()))
    if bc == "periodic":
        # near the top corner: every shell wraps the box edge on every axis
        center = np.array(hi) - 0.05
        radii = [0.2, 0.45]
    else:
        center = (np.array(lo) + np.array(hi)) / 2
        radii = [0.25, (hi[-1] - lo[-1]) / 2 - 0.2 * g.h[-1]]
    f = SpaceTimeField(g, data, ncomp)
    sh = shell_restrict(f, center, radii)
    ref = _map_coordinates_shells(f, center, sh)
    tol = 1e-13 * np.abs(data).max()
    for got, want in zip(sh.samples, ref):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol

    pts = sphere_points(n, radii[-1], len(sh.weights[-1]))[0] + center
    x = (pts - lo) / g.h - 0.5
    if bc == "periodic":
        assert ((x < 0) | (x > np.array(shape) - 1)).any()
    else:
        outside = (x[:, -1] < 0) | (x[:, -1] > shape[-1] - 1)
        assert outside.any() and np.all(sh.samples[-1][:, outside] == 0.0)

    # an infinite sample poisons only its own time slice
    i0 = np.floor(x[0]).astype(int) % shape
    data[(1,) + tuple(i0)] = np.inf
    f = SpaceTimeField(g, data, ncomp, allow_nonfinite=True)
    sh = shell_restrict(f, center, radii)
    ref = _map_coordinates_shells(f, center, sh)
    assert not np.isfinite(sh.samples[-1][1]).all()
    for got, want in zip(sh.samples, ref):
        assert np.isfinite(got[[0, 2]]).all()
        assert np.abs(got[[0, 2]] - want[[0, 2]]).max() <= tol


def test_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    g = Grid(2, (-1.0, -2.0), (1.0, 2.0), (16, 24), 0.0, 0.5, 3, "zero")
    f = SpaceTimeField(g, rng.standard_normal((3, 16, 24, 2)), 2)
    p = tmp_path / "f.dlf"
    write_field(p, f)
    back = read_field(p)
    assert back.grid == g
    assert back.ncomp == 2
    assert np.array_equal(back.samples, f.samples)
    with open(tmp_path / "junk.bin", "wb") as fh:
        fh.write(b"NOPE")
    with pytest.raises(ValueError):
        read_field(tmp_path / "junk.bin")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ncomp", ["scalar", "vector"])
def test_read_field_returns_one_writable_float64_copy(tmp_path, n, ncomp):
    rng = np.random.default_rng(n)
    g = Grid(n, (-1.0,) * n, (1.0, 2.0, 3.0)[:n], (5, 4, 3)[:n], 0.0, 0.5, 3, "periodic")
    k = 1 if ncomp == "scalar" else n
    f = SpaceTimeField(g, rng.standard_normal((3,) + g.shape + ((k,) if k > 1 else ())), k)
    write_field(tmp_path / "f.dlf1", f)
    back = read_field(tmp_path / "f.dlf1").samples
    assert back.dtype == np.float64 and back.flags.c_contiguous and back.flags.writeable
    assert back.tobytes() == f.samples.tobytes()
    assert (tmp_path / "f.dlf1").read_bytes().endswith(back.tobytes())


def test_read_field_refuses_trailing_bytes(tmp_path):
    raw = _dump_bytes(tmp_path)
    (tmp_path / "long.dlf1").write_bytes(raw + b"\0" * 8)
    with pytest.raises(ValueError, match="DLF1 dump has 876 bytes, header says 868"):
        read_field(tmp_path / "long.dlf1")


def test_read_field_refuses_a_huge_header_without_allocating(tmp_path):
    # 10^6 x 10^6 cells at one time: 8 TB of samples declared by a 868-byte file
    raw = bytearray(_dump_bytes(tmp_path))
    raw[12:28] = struct.pack("<2q", 1, 1)
    raw[28:44] = struct.pack("<2q", 10**6, 10**6)
    (tmp_path / "huge.dlf1").write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"has 868 bytes, header says {100 + 8 * 10**12}"):
            read_field(tmp_path / "huge.dlf1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _dump_bytes(tmp_path):
    g = Grid(2, (-1.0, -2.0), (1.0, 2.0), (4, 6), 0.0, 0.5, 2, "zero")
    f = SpaceTimeField(g, np.arange(2 * 4 * 6 * 2, dtype=float).reshape(2, 4, 6, 2), 2)
    write_field(tmp_path / "f.dlf1", f)
    return (tmp_path / "f.dlf1").read_bytes()


# header of a 2D dump: magic 4, n/ncomp/nt 24, shape 16, t0/t1 16, lo/hi 32, bc 8
# sizes cut the header, cut the samples, or (869) add one trailing byte
@pytest.mark.parametrize("size", [0, 3, 4, 10, 27, 28, 40, 43, 60, 99, 100, 108, 867, 869])
def test_truncated_dump_raises_value_error(tmp_path, size):
    raw = _dump_bytes(tmp_path)
    assert len(raw) == 100 + 8 * 96
    cut = tmp_path / "cut.dlf1"
    cut.write_bytes((raw + b"\0")[:size])
    with pytest.raises(ValueError):
        read_field(cut)


@pytest.mark.parametrize("offset,value", [(4, 4), (4, 1), (12, 3), (20, 0), (28, 0),
                                          (36, -6), (92, 2), (28, 1 << 40)])
def test_corrupt_dump_header_raises_value_error(tmp_path, offset, value):
    raw = bytearray(_dump_bytes(tmp_path))
    raw[offset:offset + 8] = struct.pack("<q", value)
    bad = tmp_path / "bad.dlf1"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_field(bad)


# float header fields of a 2D dump: t0 44, t1 52, lo_0 60, hi_0 68, lo_1 76, hi_1 84
@pytest.mark.parametrize("offset", [44, 52, 60, 68, 76, 84])
def test_dump_with_nonfinite_bounds_raises_value_error(tmp_path, offset):
    raw = bytearray(_dump_bytes(tmp_path))
    raw[offset:offset + 8] = struct.pack("<d", np.nan)
    bad = tmp_path / "bad.dlf1"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite"):
        read_field(bad)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_dump_raises_only_value_error(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("dump")
    raw = _dump_bytes(tmp)
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="size")]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        damaged = bytearray(raw)
        damaged[bit // 8] ^= 1 << (bit % 8)
    path = tmp / "damaged.dlf1"
    path.write_bytes(bytes(damaged))
    try:
        f = read_field(path)
    except ValueError:
        return
    # a flip in a sample, a float bound or the boundary mode can leave a readable dump
    assert f.samples.size == 96
