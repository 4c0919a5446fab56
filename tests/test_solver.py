import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.analysis import subsolution_residual
from driftlab.cli import trig_stream_field
from driftlab.drifts import assemble_selfsimilar
from driftlab.fields import Grid, SpaceTimeField, cell_to_face, curl, grid_laplacian
from driftlab.solver import (
    FieldDrift,
    PotentialDrift,
    SolverConfig,
    ZeroDrift,
    _Faces,
    _face_div,
    _fd_symbol,
    _poisson,
    _project_faces,
    _Upwind,
    dynamic_rescale,
    fundamental_solution,
    gaussian_blob,
    gaussian_comparison,
    solve,
)


def pgrid(N=64, L=np.pi, t0=0.0, t1=0.1, nt=2):
    return Grid(2, (-L, -L), (L, L), (N, N), t0, t1, nt, "periodic")


def zgrid(N=64, L=1.0, t0=0.0, t1=0.01, nt=2):
    return Grid(2, (-L, -L), (L, L), (N, N), t0, t1, nt, "zero")


def trig_stream(seed=0, amp=0.5):
    rng = np.random.default_rng(seed)
    modes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
              rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi),
              amp * rng.standard_normal()) for _ in range(4)]

    def fn(t, x, y):
        out = np.zeros_like(x)
        for kx, ky, px, py, a in modes:
            out += a * np.sin(kx * x + px) * np.sin(ky * y + py)
        return out

    return fn


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(safety=1.5)
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(dt=bad)


def test_potential_drift_face_divergence():
    for bc in ("periodic", "zero"):
        g = Grid(2, (-np.pi, -np.pi), (np.pi, np.pi), (48, 48), bc=bc)
        d = PotentialDrift(2, stream_fn=trig_stream(3))
        faces = d.face_velocities(g, 0.0)
        div = _face_div(g, faces)
        assert np.abs(div).max() < 1e-12 / min(g.h)


def test_potential_drift_3d_face_divergence():
    g = Grid(3, (-1.0,) * 3, (1.0,) * 3, (24, 24, 24), bc="periodic")

    def pot(t, x, y, z):
        return (np.sin(np.pi * y) * np.cos(np.pi * z),
                np.sin(np.pi * z) * np.cos(np.pi * x),
                np.sin(np.pi * x) * np.cos(np.pi * y))

    d = PotentialDrift(3, potential_fn=pot)
    div = _face_div(g, d.face_velocities(g, 0.0))
    assert np.abs(div).max() < 1e-11 / min(g.h)


def test_field_drift_projection():
    g = pgrid(48, nt=1)
    X, Y = g.meshgrid()
    b = np.zeros((1, 48, 48, 2))
    b[0, ..., 0] = np.sin(Y) + 0.3 * np.sin(2 * X) * np.cos(Y)
    b[0, ..., 1] = -0.6 * np.cos(X) * np.sin(Y) * 0.0
    # not exactly face-div-free before projection; exactly so after
    d = FieldDrift(SpaceTimeField(g, b, 2))
    div = _face_div(g, d.face_velocities(g, 0.0))
    assert np.abs(div).max() < 1e-10


def test_heat_kernel_oracle():
    # drift-free fundamental solution vs the analytic Gaussian at t = 0.1
    # box wide enough that periodic images are negligible at t = 0.1
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (256, 256), 0.0, 0.1, 2, "periodic")
    cfg = SolverConfig(dt=1e-4)
    run = fundamental_solution((0.0, 0.0), 0.0, None, g, cfg)
    width = 2.0 * min(g.h)
    truth = gaussian_comparison(g, (0.0, 0.0), width, 0.1, 2)
    err = np.abs(run.trajectory.samples[-1] - truth).max()
    assert err / truth.max() < 0.02
    # unit mass throughout
    assert np.abs(run.mass - 1.0).max() < 1e-10


def test_constants_are_solutions():
    g = pgrid(48, t1=0.05)
    run = solve(np.ones((48, 48)), PotentialDrift(2, stream_fn=trig_stream(1)), g,
                SolverConfig(dt=2e-4))
    assert np.abs(run.trajectory.samples[-1] - 1.0).max() < 1e-12


def test_mass_and_extremum_ledgers():
    g = pgrid(64, t1=0.05)
    rng = np.random.default_rng(5)
    theta0 = 1.0 + 0.5 * np.cos(2 * g.meshgrid()[0]) + 0.1 * rng.standard_normal((64, 64))
    run = solve(theta0, PotentialDrift(2, stream_fn=trig_stream(2, amp=1.0)), g)
    rel = np.abs(run.mass - run.mass[0]) / np.abs(run.mass[0])
    assert rel.max() < 1e-10
    assert np.all(np.diff(run.maximum) <= 1e-10 * np.abs(run.maximum[0]))
    assert np.all(np.diff(run.minimum) >= -1e-10 * max(abs(run.minimum[0]), 1.0))


def test_explicit_fv_ledgers():
    g = zgrid(64, t1=0.002)
    theta0 = gaussian_blob(g, (0.1, -0.2), 0.2, normalize=False)
    run = solve(theta0, PotentialDrift(2, stream_fn=trig_stream(4)), g,
                SolverConfig())
    assert np.all(np.diff(run.maximum) <= 1e-12)
    assert np.all(run.minimum >= -1e-14)


def test_comparison_principle_random_pairs():
    g = pgrid(48, t1=0.02)
    rng = np.random.default_rng(11)
    drift = PotentialDrift(2, stream_fn=trig_stream(7, amp=1.5))
    for _ in range(3):
        lo = rng.uniform(0.0, 1.0, (48, 48))
        hi = lo + rng.uniform(0.0, 1.0, (48, 48))
        r1 = solve(lo, drift, g)
        r2 = solve(hi, drift, g)
        gap = r2.trajectory.samples[-1] - r1.trajectory.samples[-1]
        assert gap.min() > -1e-12


def test_upwind_first_order_convergence():
    # theta = e^{-t} sin(x - t) solves the equation with b = (1, 0)
    errs = []
    for N in (48, 96, 192):
        g = pgrid(N, t1=0.5)
        X, Y = g.meshgrid()
        b = np.zeros((1, N, N, 2))
        b[..., 0] = 1.0
        bf = SpaceTimeField(Grid(2, g.lo, g.hi, g.shape, bc="periodic"), b, 2)
        cfg = SolverConfig(dt=0.2 * g.h[0])
        run = solve(np.sin(X), bf, g, cfg)
        truth = np.exp(-0.5) * np.sin(X - 0.5)
        errs.append(np.abs(run.trajectory.samples[-1] - truth).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.8 <= o <= 1.4 for o in orders)


def test_diffusion_second_order():
    errs = []
    for N in (48, 96):
        g = zgrid(N, t1=0.01)
        theta0 = gaussian_blob(g, (0.0, 0.0), 0.15, normalize=False)
        run = solve(theta0, None, g, SolverConfig())
        s2 = 0.15**2 + 2.0 * 0.01
        X, Y = g.meshgrid()
        truth = (0.15**2 / s2) * np.exp(-(X**2 + Y**2) / (2 * s2))
        errs.append(np.abs(run.trajectory.samples[-1] - truth).max())
    assert np.log2(errs[0] / errs[1]) > 1.7


def test_cfl_refusal():
    g = zgrid(64, t1=0.01)
    theta0 = gaussian_blob(g, (0.0, 0.0), 0.2)
    big_dt = SolverConfig(dt=1e-2)
    with pytest.raises(ValueError):
        solve(theta0, None, g, big_dt)


def test_nonsolenoidal_drift_rejected():
    g = pgrid(32, nt=1)
    X, Y = g.meshgrid()
    b = np.zeros((1, 32, 32, 2))
    b[0, ..., 0] = np.sin(X)  # div = cos(x) != 0
    run_grid = pgrid(32, t1=0.01)
    with pytest.raises(ValueError):
        solve(np.ones((32, 32)), SpaceTimeField(g, b, 2), run_grid)


def test_source_near_boundary_rejected():
    g = zgrid(64, t1=0.01)
    with pytest.raises(ValueError):
        fundamental_solution((0.95, 0.0), 0.0, None, g,
                             SolverConfig())


def test_nash_quotient_drift_free():
    g = Grid(2, (-np.pi, -np.pi), (np.pi, np.pi), (128, 128), 0.0, 0.1, 6, "periodic")
    run = fundamental_solution((0.0, 0.0), 0.0, None, g, SolverConfig(dt=2.5e-4))
    t = g.times[-1]
    q = t * run.trajectory.samples[-1].max()
    assert abs(q - 1.0 / (4 * np.pi)) / (1.0 / (4 * np.pi)) < 0.1


def test_dynamic_rescale_zero_drift():
    g = pgrid(48, t1=0.02, nt=3)
    theta0 = gaussian_blob(g, (0.0, 0.0), 0.3, normalize=False)
    run = solve(theta0, None, g)
    st = dynamic_rescale(run)
    assert np.allclose(st.lam, 1.0)
    assert np.allclose(st.theta_t.samples, run.trajectory.samples, atol=1e-12)


def test_dynamic_rescale_bounds_and_outward():
    g = Grid(2, (-1.3, -1.3), (1.3, 1.3), (96, 96), 0.0, 1.0, 9, "periodic")

    def stream(t, x, y):
        # compact bump vorticity well inside B_{1/2}; weak enough for the
        # total-speed precondition
        r2 = (x + 0.1) ** 2 + y**2
        return 0.01 * np.exp(-r2 / 0.02)

    drift = PotentialDrift(2, stream_fn=stream)
    theta0 = gaussian_blob(g, (0.0, 0.0), 0.25, normalize=False)
    run = solve(theta0, drift, g, SolverConfig(dt=5e-3))
    st = dynamic_rescale(run)
    assert st.lam[0] == 1.0
    assert np.all(st.lam <= 1.0 + 1e-15)
    assert np.all(st.lam >= 0.75)
    assert st.outward_min >= -1e-6


def test_dynamic_rescale_precondition():
    g = pgrid(48, t1=1.0, nt=5)
    drift = PotentialDrift(2, stream_fn=trig_stream(2, amp=2.0))
    theta0 = gaussian_blob(g, (0.0, 0.0), 0.4, normalize=False)
    run = solve(theta0, drift, g, SolverConfig(dt=2e-3))
    with pytest.raises(ValueError):
        dynamic_rescale(run)


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_dynamic_rescale_matches_map_coordinates(bc):
    ndimage = pytest.importorskip("scipy.ndimage")

    # each box leaves out the origin along x, so some points λy exit it:
    # they wrap on the periodic grid and sample 0 on the zero grid
    if bc == "periodic":
        g = Grid(2, (0.5, -np.pi), (0.5 + 2 * np.pi, np.pi), (64, 64), 0.0, 0.05, 6, bc)
        config, center = SolverConfig(), (2.0, 0.0)
    else:
        g = Grid(2, (0.3, -1.0), (2.7, 1.0), (48, 40), 0.0, 0.05, 6, bc)
        config, center = SolverConfig(), (1.5, 0.0)

    def stream(t, x, y):
        return np.sin(2.0 * x + 0.3) * np.cos(y + t)

    theta0 = gaussian_blob(g, center, 0.25, normalize=False)
    run = solve(theta0, PotentialDrift(2, stream_fn=stream), g, config)
    st = dynamic_rescale(run)

    # reference: per-slice, per-component order-1 map_coordinates
    theta = run.trajectory.samples
    b = run.drift.sample(g).samples
    speeds = np.array([np.sqrt((b[j] ** 2).sum(axis=-1)).max() for j in range(g.nt)])
    lam = 1.0 - 2.0 * np.concatenate(
        [[0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1]) * np.diff(g.times))])
    assert np.array_equal(st.lam, lam)
    assert lam[-1] < 0.85
    Y = g.meshgrid()
    mode = "grid-wrap" if bc == "periodic" else "constant"
    theta_ref = np.empty_like(theta)
    drift_ref = np.empty_like(b)
    for j in range(g.nt):
        coords = [(lam[j] * Y[i] - g.lo[i]) / g.h[i] - 0.5 for i in range(g.n)]
        theta_ref[j] = ndimage.map_coordinates(theta[j], coords, order=1, mode=mode, cval=0.0)
        for c in range(g.n):
            drift_ref[j, ..., c] = ndimage.map_coordinates(
                b[j, ..., c], coords, order=1, mode=mode, cval=0.0)
            drift_ref[j, ..., c] += 2.0 * speeds[j] * Y[c]
    assert (lam[-1] * Y[0] < g.axis(0)[0]).any()
    assert np.allclose(st.theta_t.samples, theta_ref, rtol=0,
                       atol=1e-13 * np.abs(theta).max())
    assert np.allclose(st.drift_t.samples, drift_ref, rtol=0,
                       atol=1e-13 * np.abs(b).max())


def test_simrun_csv(tmp_path):
    g = pgrid(32, t1=0.01)
    run = solve(np.ones((32, 32)), None, g, SolverConfig(dt=1e-3))
    p = tmp_path / "ledger.csv"
    run.write_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "step,time,mass,min,max"
    assert len(lines) == len(run.step_times) + 1


class FixedFaces:
    """Face-velocity provider returning the same (arbitrary) faces at every time."""

    def __init__(self, faces):
        self.faces = faces

    def face_velocities(self, grid, t):
        return self.faces


def buffer_frame(shape):
    frame = np.ones(shape, bool)
    frame[(slice(3, -3),) * len(shape)] = False
    return frame


def reference_step(theta, faces, grid, dt, scheme):
    """One step written with complex FFTs and np.roll: the reference for solve."""
    adv = np.zeros_like(theta)
    for a in range(grid.n):
        up, um = np.maximum(faces[a], 0.0), np.minimum(faces[a], 0.0)
        if grid.bc == "periodic":
            F = up * np.roll(theta, 1, a) + um * theta
            adv += (np.roll(F, -1, a) - F) / grid.h[a]
        else:
            widths = [(1, 1) if i == a else (0, 0) for i in range(grid.n)]
            pad = np.pad(theta, widths)
            F = up * np.delete(pad, -1, a) + um * np.delete(pad, 0, a)
            adv += np.diff(F, axis=a) / grid.h[a]
    if scheme == "explicit_fv":
        lap = sum((np.roll(theta, 1, a) - 2.0 * theta + np.roll(theta, -1, a)) / grid.h[a] ** 2
                  for a in range(grid.n))
        out = theta + dt * (lap - adv)
        out[buffer_frame(theta.shape)] = 0.0
        return out
    sym = np.zeros(theta.shape)
    for a in range(grid.n):
        m = np.fft.fftfreq(grid.shape[a]) * grid.shape[a]
        lam = -(2.0 - 2.0 * np.cos(2.0 * np.pi * m / grid.shape[a])) / grid.h[a] ** 2
        sym = sym + lam.reshape([-1 if i == a else 1 for i in range(grid.n)])
    star = theta - dt * adv
    return np.real(np.fft.ifftn(np.fft.fftn(star) / (1.0 - dt * sym)))


@pytest.mark.parametrize("shape,bc", [
    ((32, 32), "periodic"),
    ((15, 17), "periodic"),
    ((8, 8, 9), "periodic"),
    ((32, 32), "zero"),
    ((8, 9, 10), "zero"),
])
def test_step_matches_reference_formula(shape, bc):
    n = len(shape)
    dt = 1e-4
    g = Grid(n, (-1.0,) * n, (1.0,) * n, shape, 0.0, dt, 2, bc)
    rng = np.random.default_rng(sum(shape))
    faces = []
    for a in range(n):
        face_shape = list(shape)
        face_shape[a] += bc == "zero"
        faces.append(rng.standard_normal(face_shape))
    theta0 = rng.uniform(0.0, 1.0, shape)
    scheme = "semi_implicit_spectral" if bc == "periodic" else "explicit_fv"
    if bc == "zero":
        theta0[buffer_frame(shape)] = 0.0
    run = solve(theta0, FixedFaces(faces), g, SolverConfig(dt=dt))
    assert len(run.step_times) == 2
    np.testing.assert_allclose(run.trajectory.samples[-1],
                               reference_step(theta0, faces, g, dt, scheme),
                               rtol=1e-12, atol=0)


def test_field_drift_step_count_unchanged():
    # the advective bound limits dt here and varies in time; 211 ledger
    # entries (210 steps) is what the dt rule gives with speed = max |u|
    # over all faces
    g = Grid(2, (-np.pi, -np.pi), (np.pi, np.pi), (48, 48), 0.0, 0.2, 3, "periodic")

    def stream(t, x, y):
        return 8 * (1 + 4 * t) * (np.sin(x + 0.3) * np.sin(2 * y)
                                  + 0.5 * np.cos(3 * x - y))

    b = PotentialDrift(2, stream_fn=stream).sample(g.with_times(0.0, 0.2, 5))
    run = solve(gaussian_blob(g, (0.0, 0.0), 0.5, normalize=False), FieldDrift(b), g)
    assert len(run.step_times) == 211


def counting_projection(monkeypatch):
    import driftlab.solver as solver

    calls = []

    def project(grid, faces):
        calls.append(1)
        return _project_faces(grid, faces)

    monkeypatch.setattr(solver, "_project_faces", project)
    return calls


def slice_field(g, slices):
    """Vector field whose time slices are the given (cell, component) arrays."""
    return SpaceTimeField(g, np.stack(slices), 2)


def random_slice(rng, shape=(16, 16)):
    return rng.standard_normal(shape + (2,))


def test_steady_field_drift_projected_once(monkeypatch):
    calls = counting_projection(monkeypatch)
    g = pgrid(16, t1=1.0, nt=65)
    one = random_slice(np.random.default_rng(3))
    d = FieldDrift(slice_field(g, [one] * g.nt))
    faces = d.face_velocities(g, 0.0)
    for t in (0.0, 0.013, 0.5, 0.77, 1.0, 2.0):
        for got, want in zip(d.face_velocities(g, t), faces):
            assert np.array_equal(got, want)
    assert len(calls) == 1


def test_field_drift_shares_faces_inside_a_run(monkeypatch):
    calls = counting_projection(monkeypatch)
    rng = np.random.default_rng(4)
    g = pgrid(16, t0=0.0, t1=1.0, nt=6)  # slices at t = 0, 0.2, ..., 1
    s0, s1, s4, s5 = (random_slice(rng) for _ in range(4))
    field = slice_field(g, [s0, s1, s1.copy(), s1.copy(), s4, s5])
    f = {j: FieldDrift(field).face_velocities(g, 0.2 * j) for j in (0, 1, 4, 5)}
    # a forward pass of one drift: one projection per run of equal slices
    d, between = FieldDrift(field), {0.1: (0, 1, 0.5), 0.75: (1, 4, 0.75), 0.9: (4, 5, 0.5)}
    calls.clear()
    for t in (0.1, 0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9):
        got = d.face_velocities(g, t)
        if t not in between:  # inside the run of equal slices 1..3: the faces of slice 1
            for u, want in zip(got, f[1]):
                assert np.array_equal(u, want)
            continue
        # outside it: linear interpolation between the neighbouring slices
        lo, hi, w = between[t]
        for a in range(2):
            np.testing.assert_allclose(got[a], f[lo][a] * (1 - w) + f[hi][a] * w,
                                       rtol=1e-12, atol=1e-12)
    assert len(calls) == 4


def test_field_drift_interpolation_bit_for_bit():
    rng = np.random.default_rng(5)
    g = pgrid(16, t0=0.0, t1=1.0, nt=5)  # slices at t = 0, 0.25, ..., 1
    d = FieldDrift(slice_field(g, [random_slice(rng) for _ in range(g.nt)]))
    f1, f2 = d.face_velocities(g, 0.25), d.face_velocities(g, 0.5)
    got = d.face_velocities(g, 0.3125)  # a quarter of the way from slice 1 to 2
    for a in range(2):
        assert np.array_equal(got[a], f1[a] * 0.75 + f2[a] * 0.25)


def marching_drift(bc, n, slices):
    """A 12ⁿ run grid storing the times of a FieldDrift of random slices, where
    slices[j] names the random slice that time slice j repeats."""
    g = Grid(n, (-1.0,) * n, (1.0,) * n, (12,) * n, 0.0, 0.02, len(slices), bc)
    rng = np.random.default_rng(len(slices) + n)
    draws = {k: rng.standard_normal((12,) * n + (n,)) for k in sorted(set(slices))}
    return g, FieldDrift(SpaceTimeField(g, np.stack([draws[k] for k in slices]), n))


def blob_at_centre(g):
    return gaussian_blob(g, (0.0,) * g.n, 0.3)


@pytest.mark.parametrize("bc,n", [("periodic", 2), ("zero", 3)])
def test_field_drift_march_keeps_two_slices_alive(monkeypatch, bc, n):
    import weakref

    import driftlab.solver as solver
    g, d = marching_drift(bc, n, range(17))
    projected, alive = [], []

    def project(grid, faces):
        # the runs in the bracket record, and the projected slices alive, before this one
        alive.append((len(d._runs), sum(ref() is not None for ref in projected)))
        out = _project_faces(grid, faces)
        projected.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(solver, "_project_faces", project)
    solve(blob_at_centre(g), d, g)
    assert len(alive) == 17
    assert max(max(a) for a in alive) <= 2
    assert len(d._runs) <= 2
    assert sum(ref() is not None for ref in projected) <= 2


def test_field_drift_march_projects_each_run_once(monkeypatch):
    calls = counting_projection(monkeypatch)
    runs = [0, 1, 1, 1, 4, 5, 5, 7, 8, 8, 8, 8, 12, 13, 14, 14, 16]
    g, d = marching_drift("periodic", 2, runs)
    solve(blob_at_centre(g), d, g)
    assert len(calls) == len(set(runs))


def test_field_drift_solves_again_bit_for_bit():
    g, d = marching_drift("periodic", 2, range(17))
    first, again = (solve(blob_at_centre(g), d, g) for _ in range(2))
    for name in ("step_times", "mass", "minimum", "maximum"):
        assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
    assert first.trajectory.samples.tobytes() == again.trajectory.samples.tobytes()


def test_steady_field_drift_step_count_unchanged():
    # the advective bound limits dt; 151 ledger entries (150 steps) is what
    # the solver gave before equal slices shared their faces
    g = Grid(2, (-np.pi, -np.pi), (np.pi, np.pi), (48, 48), 0.0, 0.2, 3, "periodic")

    def stream(t, x, y):
        return 8 * (np.sin(x + 0.3) * np.sin(2 * y) + 0.5 * np.cos(3 * x - y))

    b = PotentialDrift(2, stream_fn=stream).sample(g.with_times(0.0, 0.2, 9))
    run = solve(gaussian_blob(g, (0.0, 0.0), 0.5, normalize=False), FieldDrift(b), g)
    assert len(run.step_times) == 151


def complex_fft_projection(grid, faces):
    """The periodic projection written with complex FFTs: the reference."""
    sym = np.zeros(grid.shape)
    for a in range(grid.n):
        m = np.fft.fftfreq(grid.shape[a]) * grid.shape[a]
        lam = -(2.0 - 2.0 * np.cos(2.0 * np.pi * m / grid.shape[a])) / grid.h[a] ** 2
        sym = sym + lam.reshape([-1 if i == a else 1 for i in range(grid.n)])
    dh = np.fft.fftn(_face_div(grid, faces))
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.real(np.fft.ifftn(np.where(sym != 0, dh / sym, 0.0)))
    return [faces[a] - (phi - np.roll(phi, 1, a)) / grid.h[a] for a in range(grid.n)]


@pytest.mark.parametrize("shape", [(48, 48), (15, 17), (8, 8, 9)])
def test_half_spectrum_projection_matches_complex_fft(shape):
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.5,) * n, shape, 0.0, 1.0, 2, "periodic")
    rng = np.random.default_rng(sum(shape))
    faces = [rng.standard_normal(shape) for _ in range(n)]
    got = _project_faces(g, faces)
    want = complex_fft_projection(g, faces)
    scale = max(np.abs(f).max() for f in faces)
    for a in range(n):
        np.testing.assert_allclose(got[a], want[a], rtol=0, atol=1e-13 * scale)
    assert np.abs(_face_div(g, got)).max() < 1e-10
    assert _fd_symbol(g.shape, g.h).shape == shape[:-1] + (shape[-1] // 2 + 1,)


@pytest.mark.parametrize("scheme,grid", [
    ("semi_implicit_spectral", pgrid(32, t1=0.01)),
    ("explicit_fv", zgrid(32, t1=0.001)),
])
def test_nan_initial_data_detected(scheme, grid):
    theta0 = np.zeros((32, 32))
    theta0[16, 16] = np.nan
    with pytest.raises(RuntimeError, match=r"NaN detected at step 1 "):
        solve(theta0, None, grid, SolverConfig())


def ghost_pad_div(theta, faces, grid):
    """Upwind flux divergence through a ghost-extended copy of theta per axis:
    the reference for _Upwind.div, with its order of operations."""
    out = np.zeros(theta.shape)
    for a in range(grid.n):
        up, um = np.maximum(faces[a], 0.0), np.minimum(faces[a], 0.0)
        if grid.bc == "periodic":
            pad = np.concatenate([np.take(theta, [-1], axis=a), theta], axis=a)
        else:
            widths = [(1, 1) if i == a else (0, 0) for i in range(grid.n)]
            pad = np.pad(theta, widths)
        nf = faces[a].shape[a]
        F = up * np.take(pad, range(nf), axis=a)
        F += um * np.take(pad, range(1, nf + 1), axis=a)
        if grid.bc == "periodic":
            F = np.concatenate([F, np.take(F, [0], axis=a)], axis=a)
        d = np.diff(F, axis=a)
        d /= grid.h[a]
        out = d if a == 0 else out + d
    return out


@pytest.mark.parametrize("shape,bc", [
    ((32, 32), "periodic"),
    ((15, 17), "periodic"),
    ((8, 8, 9), "periodic"),
    ((32, 32), "zero"),
    ((8, 9, 10), "zero"),
    ((2, 3), "periodic"),
    ((2, 2, 3), "zero"),  # two cells: the end hyperplanes are neighbours
])
def test_upwind_div_matches_ghost_pad_reference(shape, bc):
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.5,) * n, shape, 0.0, 1.0, 2, bc)
    rng = np.random.default_rng(len(shape) + sum(shape))
    faces = []
    for a in range(n):
        face_shape = list(shape)
        face_shape[a] += bc == "zero"
        faces.append(rng.standard_normal(face_shape))
        if bc == "zero":
            # an infinite end face times the zero cell outside is NaN, as in the reference
            corner = [0] * n
            faces[a][tuple(corner)] = np.inf
            corner[a] = -1
            faces[a][tuple(corner)] = -np.inf
    upwind = _Upwind(g)
    upwind.split(faces)
    for _ in range(2):  # the buffers are reused from one call to the next
        theta = rng.standard_normal(shape)
        with np.errstate(invalid="ignore"):
            want = ghost_pad_div(theta, faces, g)
            got = upwind.div(theta)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(want).any() == (bc == "zero")


@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("shape", [(2, 7), (15, 17), (24, 17), (31, 64), (67, 69), (128, 96),
                                   (2, 5, 3), (8, 8, 9), (10, 13, 8), (17, 6, 11)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_poisson_inverts_the_laplacian(shape, bc):
    # even and odd sizes, without scipy; a zero grid solves on its odd extension
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.5,) * n, shape, 0.0, 1.0, 2, bc)
    div = np.random.default_rng(sum(shape)).standard_normal(shape)
    phi = _poisson(g, div)
    assert phi.shape == shape
    want = div - div.mean() if bc == "periodic" else div
    np.testing.assert_allclose(grid_laplacian(phi, g), want, rtol=0,
                               atol=1e-12 * np.abs(div).max())


@pytest.mark.parametrize("data", ["uniform", "checkerboard"])
def test_checkerboard_drift_refuses_largest_cfl_dt(data):
    # h = 1/8 and a node checkerboard stream function of amplitude 2 put
    # every face at +-4/h, so the diffusion and advection bounds are equal
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (16, 16), 0.0, 0.05, 2, "zero")

    def stream(t, x, y):
        i = np.rint((x - g.lo[0]) / g.h[0]).astype(int)
        j = np.rint((y - g.lo[1]) / g.h[1]).astype(int)
        return 2.0 * (-1.0) ** (i + j)

    if data == "uniform":
        theta0 = np.random.default_rng(0).uniform(0.0, 1.0, g.shape)
    else:
        theta0 = np.indices(g.shape).sum(axis=0) % 2.0
    theta0[buffer_frame(g.shape)] = 0.0
    drift = PotentialDrift(2, stream_fn=stream)
    # 1.5625e-3 meets safety·h²/(2n) and safety·h/speed, but every interior
    # cell has outflow 8/h on two faces: max and min left [0, 1] with it
    with pytest.raises(ValueError, match="per-cell"):
        solve(theta0, drift, g, SolverConfig(dt=1.5625e-3))
    run = solve(theta0, drift, g, SolverConfig())
    assert run.minimum.min() >= 0.0
    assert run.maximum.max() <= 1.0


def admitted_dt(grid, faces, scheme, safety):
    """Largest dt the per-cell positivity rule admits, from the faces directly."""
    h = min(grid.h)
    speed = max(np.abs(f).max() for f in faces)
    rate = np.zeros(grid.shape)
    for a in range(grid.n):
        f = faces[a]
        if grid.bc == "periodic":
            f = np.concatenate([f, np.take(f, [0], axis=a)], axis=a)
        lo, hi = np.delete(f, -1, a), np.delete(f, 0, a)
        rate += (np.maximum(hi, 0.0) - np.minimum(lo, 0.0)) / grid.h[a]
    bounds = [safety * h / speed]
    if scheme == "explicit_fv":
        bounds.append(safety * h**2 / (2.0 * grid.n))
        rate += 2.0 * sum(1.0 / ha**2 for ha in grid.h)
    return min(bounds + [safety / rate.max()])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scheme=st.sampled_from(["explicit_fv",
                                                                "semi_implicit_spectral"]),
       amp=st.floats(0.01, 10.0), safety=st.floats(0.05, 0.95))
def test_admitted_dt_keeps_data_in_unit_interval(seed, scheme, amp, safety):
    bc = "zero" if scheme == "explicit_fv" else "periodic"
    g = Grid(2, (-1.0, -1.0), (1.0, 1.5), (12, 14), 0.0, 1.0, 2, bc)
    rng = np.random.default_rng(seed)
    psi = amp * rng.standard_normal((13, 15) if bc == "zero" else (12, 14))
    drift = PotentialDrift(2, stream_fn=lambda t, x, y: psi)
    dt = admitted_dt(g, drift.face_velocities(g, 0.0), scheme, safety)
    theta0 = rng.uniform(0.0, 1.0, g.shape)
    if bc == "zero":
        theta0[buffer_frame(g.shape)] = 0.0
    run_grid = g.with_times(0.0, 5 * dt, 2)
    run = solve(theta0, drift, run_grid, SolverConfig(dt=dt, safety=safety))
    assert len(run.step_times) == 6
    assert run.minimum.min() >= -1e-12
    assert run.maximum.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("width", [np.nan, np.inf, -1.0, 0.0])
def test_fundamental_solution_refuses_bad_width(width):
    with pytest.raises(ValueError, match="width"):
        fundamental_solution((0.0, 0.0), 0.0, None, pgrid(32, t1=0.01), width=width)


def stored_split_peaks(faces, h):
    """speed and outflow_bound as split() formed them from stored max(u, 0)
    and min(u, 0) copies of the faces."""
    peaks = [(np.maximum(u, 0.0).max(), -np.minimum(u, 0.0).min()) for u in faces]
    return max(max(p) for p in peaks), sum((p + m) / ha for (p, m), ha in zip(peaks, h))


def split_cases():
    rng = np.random.default_rng(17)
    mixed = [rng.standard_normal((12, 10)) for _ in range(2)]
    yield "mixed", mixed
    yield "one sign per axis", [np.abs(mixed[0]) + 0.5, -np.abs(mixed[1]) - 0.5]
    for sign in (1.0, -1.0):
        signed = [sign * np.abs(u) for u in mixed]
        for u in signed:
            u[rng.random(u.shape) < 0.3] = 0.0
            u[rng.random(u.shape) < 0.3] = -0.0
        yield f"sign {sign:+g} with signed zeros", signed
        yield f"sign {sign:+g} with -0.0", [np.where(u == 0.0, -0.0, u) for u in signed]
    with_nan = [u.copy() for u in mixed]
    with_nan[1][3, 4] = np.nan
    yield "nan face", with_nan


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_split_peaks_match_stored_split(bc):
    g = Grid(2, (-1.0, -1.0), (1.0, 1.5), (12, 10), 0.0, 1.0, 2, bc)
    upwind = _Upwind(g)

    def on_grid(faces):
        if bc == "periodic":
            return faces
        return [np.concatenate([u, np.take(u, [0], axis=a)], axis=a)
                for a, u in enumerate(faces)]

    for name, faces in split_cases():
        faces = on_grid(faces)
        got = (upwind.split(faces), upwind.outflow_bound)
        want = stored_split_peaks(faces, g.h)
        assert np.array(got).tobytes() == np.array(want).tobytes(), name
    # when every face is a signed zero only the sign of the zero speed can
    # differ, and the speed is only compared with 0
    zeros = on_grid([np.where(np.indices((12, 10)).sum(axis=0) % 3, -0.0, 0.0)] * 2)
    got = (upwind.split(zeros), upwind.outflow_bound)
    want = stored_split_peaks(zeros, g.h)
    assert got[0] == want[0] == 0.0
    assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()


def test_diffusion_multiplier_follows_a_short_step():
    # stored times 2.5 steps apart: two full steps and one cut short per interval,
    # so the backward-Euler multiplier must be rebuilt after each short step
    dt, span = 1e-3, 2.5e-3
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (64, 64), 0.0, 8 * span, len(BUMP_PATHS[2]),
             "periodic")
    drift, config = compact_curl_drift(g, 0.4), SolverConfig(dt=dt)
    run_grid = g.with_times(g.t0, g.t1, 9)
    theta0 = 1.0 + gaussian_blob(run_grid, (0.2, 0.2), 0.3, normalize=False)
    run = solve(theta0, drift, run_grid, config)
    steps = np.diff(run.step_times)
    assert len(steps) == 24
    np.testing.assert_allclose(steps, [dt, dt, span - 2 * dt] * 8, rtol=1e-9)
    theta, times = theta0, run_grid.times
    for k in range(run_grid.nt - 1):
        theta = solve(theta, drift, g.with_times(times[k], times[k + 1], 2),
                      config).trajectory.samples[-1]
        np.testing.assert_allclose(theta, run.trajectory.samples[k + 1], rtol=1e-12, atol=0)


def checkerboard_auto_dt_run(data, safety, bc):
    """The drift of test_checkerboard_drift_refuses_largest_cfl_dt on data in
    [0, 1], solved with the automatic step."""
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (16, 16), 0.0, 0.2, 2, bc)

    def stream(t, x, y):
        i = np.rint((x - g.lo[0]) / g.h[0]).astype(int)
        j = np.rint((y - g.lo[1]) / g.h[1]).astype(int)
        return 2.0 * (-1.0) ** (i + j)

    if data == "uniform":
        theta0 = np.random.default_rng(0).uniform(0.0, 1.0, g.shape)
    else:
        theta0 = np.indices(g.shape).sum(axis=0) % 2.0
    theta0[buffer_frame(g.shape)] = 0.0
    return solve(theta0, PotentialDrift(2, stream_fn=stream), g, SolverConfig(safety=safety))


@pytest.mark.parametrize("safety", [0.8, 0.9])
@pytest.mark.parametrize("data", ["uniform", "checkerboard"])
def test_explicit_fv_auto_dt_keeps_checkerboard_in_unit_interval(data, safety):
    # an automatic step that met the diffusion and advection bounds only one
    # at a time blew these data up to about 1e14 at safety 0.8
    run = checkerboard_auto_dt_run(data, safety, "zero")
    assert run.minimum.min() >= 0.0
    assert run.maximum.max() <= 1.0


@pytest.mark.parametrize("safety", [0.8, 0.9])
@pytest.mark.parametrize("data", ["uniform", "checkerboard"])
def test_periodic_auto_dt_keeps_checkerboard_in_unit_interval(data, safety):
    # the same drift and data on the periodic grid, through the same upwind kernel
    run = checkerboard_auto_dt_run(data, safety, "periodic")
    assert run.minimum.min() >= 0.0
    assert run.maximum.max() <= 1.0


@pytest.mark.parametrize("safety", [0.4, 0.9])
def test_drift_free_explicit_fv_auto_dt_unchanged(safety):
    # without a drift the automatic step stays safety·h²/(2n)
    g = zgrid(64, t1=0.05)
    run = solve(gaussian_blob(g, (0.0, 0.0), 0.2), None, g,
                SolverConfig(safety=safety))
    dt = safety * g.h[0] ** 2 / 4.0
    assert run.step_times[1] == dt
    assert np.allclose(np.diff(run.step_times)[:-1], dt, rtol=1e-9, atol=0.0)


def test_field_drift_sample_at_run_times():
    # a CLI-built run stores fewer times than its drift; the drift speeds up in time
    dgrid = pgrid(32, t1=0.02, nt=9)
    steady = trig_stream_field(dgrid, 3, 0.2).samples
    b = SpaceTimeField(dgrid, steady * (1.0 + 50.0 * dgrid.times)[:, None, None, None], 2)
    drift = FieldDrift(b)
    assert drift.sample(dgrid) is b
    # run times on drift slices 0, 2, 4, 6, 8, then between them
    assert np.array_equal(drift.sample(dgrid.with_times(0.0, 0.02, 5)).samples, b.samples[::2])
    g = dgrid.with_times(0.0, 0.02, 4)
    want = steady[:4] * (1.0 + 50.0 * g.times)[:, None, None, None]
    np.testing.assert_allclose(drift.sample(g).samples, want, rtol=1e-12, atol=1e-14)

    run = solve(gaussian_blob(g, (0.0, 0.0), 0.5), drift, g, SolverConfig())
    state = dynamic_rescale(run)
    assert state.drift_t.grid == g
    assert subsolution_residual(run).residual.grid == g


def streamed_assembly(n, N):
    """A periodic N^n drift grid of 9 slices, and two moving caps that cross it."""
    g = Grid(n, (-2.0,) * n, (2.0,) * n, (N,) * n, 0.0, 0.2, 9, "periodic")
    asm = assemble_selfsimilar([0.01, 0.08, 0.2], n=n, travel=0.5,
                               x_start=(-0.25, 0.1, -0.1)[:n])
    return g, asm


STREAMED = pytest.mark.parametrize("n,N", [(2, 32), (3, 16)])


@STREAMED
def test_streamed_drift_faces_match_stored(n, N):
    g, asm = streamed_assembly(n, N)
    stored = FieldDrift(asm.sample_drift(g))
    streamed = FieldDrift.from_function(g, asm.drift_function(g))
    # the stored times and three times between each two, forward, then backward
    # (which reads the slices again), then beyond either end
    times = np.linspace(g.t0, g.t1, 4 * (g.nt - 1) + 1)
    for t in [*times, *times[::-1], g.t0 - 1.0, g.t1 + 1.0]:
        for got, want in zip(streamed.face_velocities(g, t), stored.face_velocities(g, t)):
            assert np.array_equal(got, want)


@STREAMED
def test_streamed_drift_solves_bit_for_bit(n, N):
    g, asm = streamed_assembly(n, N)
    run_grid = g.with_times(g.t0, g.t1, 3)
    theta0 = gaussian_blob(run_grid, (0.0,) * n, 0.5)
    stored, streamed = (solve(theta0, d, run_grid) for d in (
        FieldDrift(asm.sample_drift(g)), FieldDrift.from_function(g, asm.drift_function(g))))
    assert len(stored.step_times) > 20
    for name in ("step_times", "mass", "minimum", "maximum"):
        assert getattr(stored, name).tobytes() == getattr(streamed, name).tobytes()
    assert stored.trajectory.samples.tobytes() == streamed.trajectory.samples.tobytes()


@STREAMED
def test_streamed_drift_march_reads_each_slice_once(monkeypatch, n, N):
    calls = counting_projection(monkeypatch)
    g, asm = streamed_assembly(n, N)
    fn, reads = asm.drift_function(g), []

    def counting(t, *X):
        reads.append(t)
        return fn(t, *X)

    run_grid = g.with_times(g.t0, g.t1, 3)
    solve(gaussian_blob(run_grid, (0.0,) * n, 0.5), FieldDrift.from_function(g, counting),
          run_grid)
    assert reads == list(g.times)
    assert len(calls) == g.nt  # no two consecutive slices are equal here


class RecordedDrift:
    """A FieldDrift's faces, recording after each request its bracket and the
    number of runs whose faces its record holds."""

    def __init__(self, drift):
        self.drift, self.brackets, self.held = drift, [], []

    def face_velocities(self, grid, t):
        faces = self.drift.face_velocities(grid, t)
        self.brackets.append(self.drift._at)
        self.held.append(len(self.drift._runs))
        return faces


def test_steps_longer_than_the_slice_spacing_read_each_slice_once(monkeypatch):
    calls = counting_projection(monkeypatch)
    g = pgrid(16, t0=0.0, t1=1.0, nt=65)  # slice spacing 1/64
    base = 0.1 * random_slice(np.random.default_rng(11))
    # slices 0..19 in equal pairs, then each its own: 10 + 45 runs
    run_of = [k // 2 if k < 20 else k for k in range(g.nt)]
    reads = []

    def slow(t, *X):  # slow enough that the automatic step is the run's span/50
        reads.append(t)
        return base * (1.0 + 0.01 * run_of[round(t * (g.nt - 1))])

    drift = RecordedDrift(FieldDrift.from_function(g, slow))
    run_grid = g.with_times(0.0, 1.1, 3)  # steps of 0.022, past the drift's last slice
    run = solve(gaussian_blob(run_grid, (0.0, 0.0), 0.5), drift, run_grid)
    assert np.allclose(np.diff(run.step_times)[:20], 1.1 / 50, rtol=1e-12)
    starts = [j0 for j0, _ in drift.brackets]
    assert any(b - a == 2 for a, b in zip(starts, starts[1:]))  # skipped brackets
    assert reads == list(g.times)
    assert len(calls) == len(set(run_of))
    assert max(drift.held) <= 2


@STREAMED
def test_streamed_drift_sample_is_sample_drift(n, N):
    g, asm = streamed_assembly(n, N)
    streamed = FieldDrift.from_function(g, asm.drift_function(g))
    assert streamed.sample(g).samples.tobytes() == asm.sample_drift(g).samples.tobytes()
    between = g.with_times(g.t0, g.t1, 7)  # times between the stored ones
    want = FieldDrift(asm.sample_drift(g)).sample(between).samples
    assert streamed.sample(between).samples.tobytes() == want.tobytes()


@STREAMED
def test_nonfinite_drift_slice_refused_before_projection(monkeypatch, n, N):
    calls = counting_projection(monkeypatch)
    g, asm = streamed_assembly(n, N)
    fn, k = asm.drift_function(g), 5

    def poisoned(t, *X):
        b = fn(t, *X)
        if t == g.times[k]:
            b[(2,) * n + (n - 1,)] = np.nan
        return b

    run_grid = g.with_times(g.t0, g.t1, 3)
    theta0 = gaussian_blob(run_grid, (0.0,) * n, 0.5)
    with pytest.raises(ValueError, match=rf"drift slice {k} has a non-finite sample "
                                         rf"\(nan\) at index \({', '.join(['2'] * n)}, {n - 1}\)"):
        solve(theta0, FieldDrift.from_function(g, poisoned), run_grid)
    assert len(calls) == k  # slices 0..k-1 were projected, slice k was not
    # a stored field takes the same path
    samples = asm.sample_drift(g).samples
    samples[k, 0] = np.inf
    stored = FieldDrift(SpaceTimeField(g, samples, n, allow_nonfinite=True))
    with pytest.raises(ValueError, match=f"drift slice {k} has a non-finite sample"):
        stored.face_velocities(g, g.times[k])


def test_max_outflow_one_pass_per_faces_object(monkeypatch):
    # a steady FieldDrift hands the solver one cached faces list, so the
    # per-cell bound needs one pass over it, not one per step
    import driftlab.solver as solver
    from driftlab.fields import face_to_cell
    g = zgrid(32, t1=0.02)
    b = trig_stream_field(g.with_times(0.0, 0.02, 2), 5, 20.0)
    calls = []

    def counting(*args):
        calls.append(args[1])
        return face_to_cell(*args)

    monkeypatch.setattr(solver, "face_to_cell", counting)
    run = solve(gaussian_blob(g, (0.0, 0.0), 0.3), FieldDrift(b), g)
    assert len(run.step_times) > 10
    assert sorted(calls) == [0, 0, 1, 1]
    # a configured dt at the per-cell bound, which split()'s peak sum cannot
    # clear, costs the same one pass; a quarter of it costs none
    dt = run.step_times[1]
    for config, want in ((SolverConfig(dt=dt), [0, 0, 1, 1]), (SolverConfig(dt=dt / 4), [])):
        calls.clear()
        run = solve(gaussian_blob(g, (0.0, 0.0), 0.3), FieldDrift(b), g, config)
        assert len(run.step_times) > 10
        assert sorted(calls) == want


def test_step_count_cap_is_inclusive(monkeypatch):
    # drift-free on a periodic grid the step is span/50: 50 steps reach t1
    import driftlab.solver as solver
    g = pgrid(32, t1=0.01)
    theta0 = gaussian_blob(g, (0.0, 0.0), 0.5)
    monkeypatch.setattr(solver, "MAX_STEPS", 50)
    assert len(solve(theta0, None, g).step_times) == 51
    monkeypatch.setattr(solver, "MAX_STEPS", 49)
    with pytest.raises(ValueError, match="needs more than 49 steps to reach t1"):
        solve(theta0, None, g)


def zeroed_outside(faces, box, bc):
    """Copies of faces that are 0 outside box (a slice per axis) and on its
    end faces inside the grid; a box spanning a periodic axis keeps every face."""
    out = []
    for a, u in enumerate(faces):
        N, (lo, hi) = u.shape[a] - (bc == "zero"), (box[a].start, box[a].stop)
        idx = list(box)
        if bc == "periodic" and hi - lo < N:
            idx[a] = slice(lo + 1, hi)
        elif bc == "zero":
            idx[a] = slice(lo + (lo > 0), hi + (hi == N))
        z = np.zeros_like(u)
        z[tuple(idx)] = u[tuple(idx)]
        out.append(z)
    return out


def face_block(box, a, shape, bc):
    """The faces along axis a of box's cells, as a slice per axis of the
    grid's faces: both end faces, unless the box spans a periodic axis."""
    idx = list(box)
    wrap = bc == "periodic" and box[a].stop - box[a].start == shape[a]
    idx[a] = slice(box[a].start, box[a].stop + (not wrap))
    return tuple(idx)


def box_face_shape(box, a, shape, bc):
    return tuple(s.stop - s.start for s in face_block(box, a, shape, bc))


def on_box(faces, box, shape, bc):
    """Whole-grid faces cut to box, as a _Faces."""
    out = _Faces(u[face_block(box, a, shape, bc)] for a, u in enumerate(faces))
    out.box = box
    return out


def embedded(faces, shape, bc):
    """A _Faces's arrays placed in zero faces of the whole grid."""
    out = []
    for a, u in enumerate(faces):
        face_shape = list(shape)
        face_shape[a] += bc == "zero"
        z = np.zeros(face_shape)
        z[face_block(faces.box, a, shape, bc)] = u
        out.append(z)
    return out


def random_box(rng, shape, bc):
    box = []
    for N in shape:
        if rng.random() < 0.3:
            box.append(slice(0, N))
            continue
        # a box that does not span a periodic axis ends inside it
        lo = int(rng.integers(0, N - 2))
        hi = int(rng.integers(lo + 2, N + (bc == "zero")))
        box.append(slice(lo, hi))
    return tuple(box)


def box_cases(shape, bc):
    n = len(shape)
    yield "empty", (slice(0, 0),) * n
    yield "interior", tuple(slice(1, N - 2) for N in shape)
    yield "whole", tuple(slice(0, N) for N in shape)
    # at the low end of axis 0, and spanning the last axis (wrap on periodic grids)
    yield "edge", (slice(0, 3),) + tuple(slice(2, N - 1) for N in shape[1:-1]) + (
        slice(0, shape[-1]),)
    yield "high edge", tuple(slice(N - 4, N - (bc == "periodic")) for N in shape)
    rng = np.random.default_rng(sum(shape) + len(bc))
    for k in range(12):
        yield f"random {k}", random_box(rng, shape, bc)


@pytest.mark.parametrize("shape,bc", [((20, 18), "periodic"), ((20, 18), "zero"),
                                      ((9, 8, 10), "periodic"), ((9, 8, 10), "zero")])
def test_upwind_box_matches_whole_grid(shape, bc):
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.5,) * n, shape, 0.0, 1.0, 2, bc)
    rng = np.random.default_rng(n + len(bc))
    whole, boxed = _Upwind(g), _Upwind(g)
    for name, box in box_cases(shape, bc):
        faces = []
        for a in range(n):
            face_shape = list(shape)
            face_shape[a] += bc == "zero"
            faces.append(rng.standard_normal(face_shape))
        faces = zeroed_outside(faces, box, bc)
        with_box = on_box(faces, box, shape, bc)
        assert all(np.array_equal(e, u) for e, u in zip(embedded(with_box, shape, bc), faces))
        assert whole.split(faces) == boxed.split(with_box), name
        assert whole.outflow_bound == boxed.outflow_bound, name
        assert whole.max_outflow() == boxed.max_outflow(), name
        for _ in range(2):  # the buffers are reused from one call to the next
            theta = rng.standard_normal(shape)
            want = whole.div(theta)
            div = boxed.div(theta)
            assert div.shape == tuple(s.stop - s.start for s in box), name
            got = np.zeros(shape)  # the box's div in the whole grid
            got[box] = div
            assert np.array_equal(got, want), name


def compact_bump(g, center, radius):
    r2 = sum((x - c) ** 2 for x, c in zip(g.meshgrid(), center)) / radius**2
    return np.where(r2 < 1.0, (1.0 - r2) ** 4, 0.0)


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_compact_curl_slice_gets_interior_box(bc):
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (32, 32), 0.0, 1.0, 2, bc)
    slices = [curl(compact_bump(g, c, 0.4), g) for c in ((-0.2, 0.1), (0.1, 0.0))]
    d = FieldDrift(slice_field(g, slices))
    f0, f1 = d.face_velocities(g, 0.0), d.face_velocities(g, 1.0)
    for cells, faces in ((slices[0], f0), (slices[1], f1)):
        nonzero = np.argwhere((cells != 0).any(axis=-1))
        want = tuple(slice(lo - 1, hi + 2) for lo, hi in zip(nonzero.min(0), nonzero.max(0)))
        assert faces.box == want
        assert all(0 < s.start and s.stop < 32 for s in want)
        interpolated = []
        for a in range(2):
            lo, hi = cell_to_face(cells[..., a], a, bc)
            interpolated.append(0.5 * (lo + hi))
        projected = _project_faces(g, interpolated)
        kept = zeroed_outside(projected, want, bc)
        for a, u in enumerate(on_box(kept, want, g.shape, bc)):
            assert faces[a].shape == u.shape
            assert np.array_equal(faces[a], u)
            assert np.abs(projected[a] - kept[a]).max() <= 1e-16 * np.abs(projected[a]).max()
    # between the two slices: the union of their boxes, exactly 0 outside it
    mid = d.face_velocities(g, 0.3)
    assert mid.box == tuple(slice(min(s.start, t.start), max(s.stop, t.stop))
                            for s, t in zip(f0.box, f1.box))
    e0, e1 = embedded(f0, g.shape, bc), embedded(f1, g.shape, bc)
    for a, u in enumerate(embedded(mid, g.shape, bc)):
        assert mid[a].shape == box_face_shape(mid.box, a, g.shape, bc)
        assert u.tobytes() == (e0[a] * 0.7 + e1[a] * 0.3).tobytes()


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_compact_non_solenoidal_slice_keeps_whole_grid(bc):
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (32, 32), 0.0, 1.0, 2, bc)
    cells = np.zeros((32, 32, 2))
    cells[..., 0] = compact_bump(g, (0.0, 0.1), 0.4)  # a bump times e1
    faces = FieldDrift(slice_field(g, [cells, cells])).face_velocities(g, 0.0)
    interpolated = []
    for a in range(2):
        lo, hi = cell_to_face(cells[..., a], a, bc)
        interpolated.append(0.5 * (lo + hi))
    want = _project_faces(g, interpolated)
    assert faces.box == (slice(0, 32), slice(0, 32))
    for a in range(2):
        assert faces[a].tobytes() == want[a].tobytes()


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_drift_free_solve_uses_one_empty_box(bc):
    g = pgrid(32, t1=0.01) if bc == "periodic" else zgrid(32, t1=0.001)
    zero = ZeroDrift()
    faces = zero.face_velocities(g, 0.0)
    assert zero.face_velocities(g, 0.5) is faces
    assert faces.box == (slice(0, 0),) * 2
    assert [u.shape for u in faces] == [(1, 0), (0, 1)]  # the box's faces: none
    assert not any(u.flags.writeable for u in faces)
    theta0 = gaussian_blob(g, (0.0, 0.0), 0.3)
    still = PotentialDrift(2, stream_fn=lambda t, x, y: np.zeros_like(x))
    run, want = solve(theta0, None, g), solve(theta0, still, g)
    assert np.array_equal(run.trajectory.samples, want.trajectory.samples)
    assert np.array_equal(run.mass, want.mass)


def seam_bump(g, center, radius):
    """compact_bump, with distances taken across the seam of a periodic grid."""
    r2 = 0.0
    for x, c, lo, hi in zip(g.meshgrid(), center, g.lo, g.hi):
        d = x - c
        if g.bc == "periodic":
            d = (d + (hi - lo) / 2) % (hi - lo) - (hi - lo) / 2
        r2 = r2 + (d / radius) ** 2
    return np.where(r2 < 1.0, (1.0 - r2) ** 4, 0.0)


# per stored time, the centre of a bump (None: no drift), on [-1, 1]^n: inside,
# on a grid edge, across the seam (or the zero grid's edge) and at a corner
BUMP_PATHS = {2: [(-0.3, 0.2), (-0.95, 0.1), None, (0.2, 0.97), (0.96, -0.97), (0.1, -0.2)],
              3: [(0.0, 0.1, 0.0), (0.97, 0.0, -0.1), None, (0.1, -0.96, 0.95), (0.0, 0.2, 0.1)]}


def compact_curl_drift(g, radius, amp=1.0):
    """A FieldDrift of amp times curls of compact bumps moving along BUMP_PATHS."""
    slices = []
    for c in BUMP_PATHS[g.n]:
        bump = np.zeros(g.shape) if c is None else seam_bump(g, c, radius)
        slices.append(amp * curl(bump if g.n == 2 else (bump, -0.5 * bump, 0.25 * bump), g))
    return FieldDrift(SpaceTimeField(g, np.stack(slices), g.n))


@pytest.mark.parametrize("shape,bc", [((32, 28), "periodic"), ((32, 28), "zero"),
                                      ((12, 14, 12), "periodic"), ((12, 14, 12), "zero")])
def test_box_faces_solve_as_whole_grid_faces(monkeypatch, shape, bc):
    import driftlab.solver as solver
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.0,) * n, shape, 0.0, 0.004, len(BUMP_PATHS[n]), bc)
    run_grid = g.with_times(g.t0, g.t1, 3)
    theta0 = gaussian_blob(run_grid, (0.1,) * n, 0.3)
    faces_at = FieldDrift.face_velocities
    boxes = []

    def checked(drift, grid, t):
        faces = faces_at(drift, grid, t)
        for a, u in enumerate(faces):
            assert u.shape == box_face_shape(faces.box, a, shape, bc)
        boxes.append(faces.box)
        return faces

    monkeypatch.setattr(FieldDrift, "face_velocities", checked)
    on_boxes = solve(theta0, compact_curl_drift(g, 0.4), run_grid)
    # the same run on whole-grid faces: each slice's box faces placed in zeros
    project = solver._project_faces

    def whole_grid(grid, faces):
        return _Faces(embedded(project(grid, faces), shape, bc),
                      tuple(slice(0, N) for N in shape))

    # the march met empty boxes, boxes inside the grid and boxes at its edges
    edges = {tuple((s.start == 0, s.stop == N) for s, N in zip(box, shape))
             for box in boxes if box[0].stop}
    assert (slice(0, 0),) * n in boxes
    assert ((False, False),) * n in edges
    assert any(True in axis for e in edges for axis in e)
    monkeypatch.setattr(solver, "_project_faces", whole_grid)
    whole = solve(theta0, compact_curl_drift(g, 0.4), run_grid)
    assert len(on_boxes.step_times) > 20
    for name in ("step_times", "mass", "minimum", "maximum"):
        assert getattr(on_boxes, name).tobytes() == getattr(whole, name).tobytes(), name
    assert on_boxes.trajectory.samples.tobytes() == whole.trajectory.samples.tobytes()


@pytest.mark.parametrize("bad", [(17, 16), (15, 16)])
def test_faces_off_their_box_refused(bad):
    g = pgrid(16, t1=0.01)
    faces = [np.zeros(bad), np.zeros((16, 16))]
    with pytest.raises(ValueError, match=rf"faces along axis 0 have shape \({bad[0]}, 16\)"
                                         r".* needs \(16, 16\)"):
        solve(gaussian_blob(g, (0.0, 0.0), 0.5), FixedFaces(faces), g)
    boxed = on_box([np.zeros((16, 16))] * 2, (slice(2, 9), slice(0, 16)), (16, 16), "periodic")
    boxed[1] = np.zeros((7, 17))
    with pytest.raises(ValueError, match=r"axis 1 have shape \(7, 17\).* needs \(7, 16\)"):
        _Upwind(g).split(boxed)


@pytest.mark.parametrize("count", [1, 3])
def test_face_list_of_the_wrong_length_refused(count):
    g = pgrid(16, t1=0.01)
    faces = [np.zeros((16, 16))] * count
    with pytest.raises(ValueError, match=rf"^{count} face arrays, but the grid needs 2$"):
        solve(gaussian_blob(g, (0.0, 0.0), 0.5), FixedFaces(faces), g)


def test_drift_on_another_space_refused():
    g = Grid(2, (-4.0, -4.0), (4.0, 4.0), (16, 16), 0.0, 1.0, 3, "periodic")
    d = FieldDrift(slice_field(g, [random_slice(np.random.default_rng(8))] * 3))
    run_grid = pgrid(16, L=1.0, t1=0.01)
    theta0 = gaussian_blob(run_grid, (0.0, 0.0), 0.3)
    with pytest.raises(ValueError, match=r"lo \(-4\.0, -4\.0\), hi \(4\.0, 4\.0\).*"
                                         r"lo \(-1\.0, -1\.0\), hi \(1\.0, 1\.0\)"):
        solve(theta0, d, run_grid)
    # another time span is clamped to the drift's, by design
    solve(gaussian_blob(g, (0.0, 0.0), 0.3), d, g.with_times(0.5, 2.0, 2))


def whole_grid_averages(g, cells):
    """The face average of each axis' cells, on the whole grid."""
    out = []
    for a in range(g.n):
        lo, hi = cell_to_face(cells[..., a], a, g.bc)
        out.append(0.5 * (lo + hi))
    return out


def whole_grid_projection(g, faces):
    """The Poisson projection of whole-grid faces, run whatever their divergence:
    the reference for faces that _project_faces projects."""
    phi = _poisson(g, _face_div(g, faces))
    out = []
    for a in range(g.n):
        lo, hi = cell_to_face(phi, a, g.bc)
        out.append(faces[a] - (hi - lo) / g.h[a])
    return out


def counting_transforms(monkeypatch):
    """The grid shapes of the Poisson solves the solver makes from now on."""
    import driftlab.solver as solver
    calls, poisson = [], solver._poisson

    def counted(grid, div):
        calls.append(div.shape)
        return poisson(grid, div)

    monkeypatch.setattr(solver, "_poisson", counted)
    return calls


def curl_slice(g, center, radius=0.4):
    """The centered curl of a compact bump at center: a 2D stream function or a
    3D vector potential."""
    bump = seam_bump(g, center, radius)
    return curl(bump if g.n == 2 else (bump, -0.5 * bump, 0.25 * bump), g)


CURL_SLICES = pytest.mark.parametrize("shape,bc,center", [
    ((32, 28), "periodic", (-0.3, 0.2)), ((32, 28), "periodic", (0.96, -0.1)),
    ((32, 28), "zero", (-0.3, 0.2)), ((32, 28), "zero", (0.8, -0.9)),
    ((12, 14, 12), "periodic", (0.97, 0.0, -0.1)), ((12, 14, 12), "zero", (0.0, 0.1, 0.0))])


@CURL_SLICES
def test_curl_slice_faces_are_its_averages_with_no_transform(monkeypatch, shape, bc, center):
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.0,) * n, shape, 0.0, 1.0, 2, bc)
    cells = curl_slice(g, center)
    calls = counting_transforms(monkeypatch)
    faces = FieldDrift(SpaceTimeField(g, np.stack([cells, cells]), n)).face_velocities(g, 0.0)
    assert calls == []
    nonzero = np.argwhere((cells != 0).any(axis=-1))
    lo, hi = nonzero.min(0) - 1, nonzero.max(0) + 2
    want = tuple(slice(0, N) if bc == "periodic" and (a <= 0 or b >= N)
                 else slice(max(a, 0), min(b, N)) for a, b, N in zip(lo, hi, shape))
    assert faces.box == want
    kept = zeroed_outside(whole_grid_averages(g, cells), want, bc)
    for a, u in enumerate(on_box(kept, want, shape, bc)):
        assert faces[a].tobytes() == u.tobytes()


def gradient_slice(g, scale):
    """The cells of a compact curl plus scale times the centered gradient of a
    compact bump, and the ratio max|div|·min(h)/max|u| of their face averages to
    the round-off bound 2n·ε of _project_faces."""
    from driftlab.fields import gradient
    phi = seam_bump(g, (0.1, -0.2), 0.3)
    grad = gradient(SpaceTimeField(g.with_times(0.0, 1.0, 1), phi[None])).samples[0]
    cells = curl_slice(g, (-0.1, 0.0)) + scale * grad
    faces = whole_grid_averages(g, cells)
    ratio = np.abs(_face_div(g, faces)).max() * min(g.h) / max(np.abs(u).max() for u in faces)
    return cells, ratio / (2 * g.n * np.finfo(float).eps)


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_slice_at_the_round_off_bound(monkeypatch, bc):
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (32, 28), 0.0, 1.0, 2, bc)
    calls = counting_transforms(monkeypatch)
    # just above the bound: projected as on the whole grid, and kept on it
    cells, ratio = gradient_slice(g, 6e-16)
    assert 1.0 < ratio < 1.5
    faces = FieldDrift(slice_field(g, [cells, cells])).face_velocities(g, 0.0)
    assert calls
    want = whole_grid_projection(g, whole_grid_averages(g, cells))
    assert faces.box == tuple(slice(0, N) for N in g.shape)
    for got, u in zip(faces, want):
        assert got.tobytes() == u.tobytes()
    # just below it: the face averages as they are
    calls.clear()
    cells, ratio = gradient_slice(g, 4e-16)
    assert 0.75 < ratio <= 1.0
    faces = FieldDrift(slice_field(g, [cells, cells])).face_velocities(g, 0.0)
    assert calls == []
    kept = zeroed_outside(whole_grid_averages(g, cells), faces.box, bc)
    for got, u in zip(faces, on_box(kept, faces.box, g.shape, bc)):
        assert got.tobytes() == u.tobytes()


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_interpolated_faces_follow_the_bracket(monkeypatch, bc):
    import driftlab.solver as solver
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (32, 28), 0.0, 5.0, 6, bc)  # slices at 0, 1, ..., 5
    a, b, c, d = (curl_slice(g, x) for x in ((-0.4, 0.1), (0.0, 0.0), (0.9, -0.3), (0.2, 0.6)))
    drift = FieldDrift(slice_field(g, [a, b, b.copy(), b.copy(), c, d]))
    single = {j: embedded(drift.face_velocities(g, float(j)), g.shape, bc) for j in range(6)}
    embed, built = solver._embed, []
    monkeypatch.setattr(solver, "_embed", lambda *args: built.append(1) or embed(*args))
    # (time, the slices interpolated between, or None for one slice's faces, rebuilt)
    steps = [(0.25, (0, 1), True), (0.75, (0, 1), False),   # one bracket: built once
             (1.5, None, False),                            # inside the run of b
             (3.5, (1, 4), True), (3.75, (1, 4), False),    # across that run
             (4.5, (4, 5), True),                           # forward
             (9.0, None, False), (4.25, (4, 5), False),     # past the end and back
             (0.5, (0, 1), True),                           # backward
             (-2.0, None, False), (0.5, (0, 1), False),     # past the start and back
             (4.5, (4, 5), True)]
    for t, pair, rebuilt in steps:
        built.clear()
        faces = drift.face_velocities(g, t)
        assert len(built) == (2 if rebuilt else 0), t
        if pair is None:
            continue
        assert drift._pair[0] == pair  # the run starts of the bracket
        s = (t - g.t0) / (g.t1 - g.t0) * (g.nt - 1)  # as FieldDrift._bracket
        j0 = math.floor(s)
        w = s - j0
        e0, e1 = single[j0], single[j0 + 1]
        for u, u0, u1 in zip(embedded(faces, g.shape, bc), e0, e1):
            assert u.tobytes() == (u0 * (1 - w) + u1 * w).tobytes(), t


@pytest.mark.parametrize("other", [
    Grid(2, (-4.0, -4.0), (4.0, 4.0), (8, 8), 0.0, 1.0, 3, "periodic"),
    Grid(2, (-4.0, -4.0), (4.0, 4.0), (16, 16), 0.0, 1.0, 3, "zero"),
    Grid(2, (-1.0, -1.0), (1.0, 1.0), (16, 16), 0.0, 1.0, 3, "periodic")],
    ids=["shape", "mode", "extent"])
def test_drift_sample_refuses_another_grid(other):
    g = Grid(2, (-4.0, -4.0), (4.0, 4.0), (16, 16), 0.0, 1.0, 3, "periodic")
    d = FieldDrift(slice_field(g, [random_slice(np.random.default_rng(9))] * 3))
    with pytest.raises(ValueError, match="drift grid"):
        d.sample(other)
    assert d.sample(g).grid == g


# the configured dt keeps 300 steps within the compact curl drift's per-cell bound
@pytest.mark.parametrize("n,N,dt", [(2, 64, 1e-3), (3, 16, 2e-3)])
@pytest.mark.parametrize("moving", [True, False], ids=["compact-curl", "zero-drift"])
def test_kept_row_spectra_match_one_step_solves(n, N, dt, moving):
    steps = 300
    g = Grid(n, (-1.0,) * n, (1.0,) * n, (N,) * n, 0.0, steps * dt, len(BUMP_PATHS[n]),
             "periodic")
    drift = compact_curl_drift(g, 0.4) if moving else ZeroDrift()
    run_grid, config = g.with_times(g.t0, g.t1, steps + 1), SolverConfig(dt=dt)
    theta0 = 1.0 + gaussian_blob(run_grid, (0.2,) * n, 0.3, normalize=False)
    run = solve(theta0, drift, run_grid, config)
    assert len(run.step_times) == steps + 1
    # the same march as one-step solves, each starting its row spectra from θ
    theta, times = theta0, run_grid.times
    for k in range(steps):
        theta = solve(theta, drift, g.with_times(times[k], times[k + 1], 2),
                      config).trajectory.samples[-1]
        np.testing.assert_allclose(theta, run.trajectory.samples[k + 1], rtol=1e-12, atol=0)
    assert np.abs(run.mass / run.mass[0] - 1.0).max() <= 1e-10
    assert (np.diff(run.maximum) <= 0.0).all()


@pytest.mark.parametrize("moving", [True, False], ids=["compact-curl", "zero-drift"])
def test_step_transforms_only_the_rows_it_changed(monkeypatch, moving):
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (64, 64), 0.0, 0.3, len(BUMP_PATHS[2]), "periodic")
    drift = compact_curl_drift(g, 0.4) if moving else ZeroDrift()
    div, rfft = _Upwind.div, np.fft.rfft
    # per step: the rows of θ it re-transformed, and the span of the rows where its
    # dt·div(uθ) is nonzero, read before the next step's div overwrites the buffer
    initial, steps, last = [], [], []

    def changed_rows():
        box, adv = last.pop()
        hits = np.flatnonzero(adv.any(axis=-1)) + box[0].start
        steps[-1][1].extend([range(hits[0], hits[-1] + 1)] if hits.size else [])

    def recording_div(self, theta):
        if last:
            changed_rows()
        adv = div(self, theta)
        steps.append(([], []))
        last.append((self.box, adv))
        return adv

    def recording_rfft(x, *args, **kwargs):
        first = (x.ctypes.data - x.base.ctypes.data) // x.strides[0] if steps else 0
        (steps[-1][0] if steps else initial).append(range(first, first + x.shape[0]))
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(_Upwind, "div", recording_div)
    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    run = solve(gaussian_blob(g, (0.1, 0.0), 0.3), drift, g.with_times(g.t0, g.t1, 3))
    changed_rows()
    assert initial == [range(64)]  # the first transform takes every row
    assert len(steps) == len(run.step_times) - 1
    for got, want in steps:
        assert got == want
    spans = [len(got[0]) if got else 0 for got, _ in steps]
    if moving:  # boxes inside the grid, and bumps across its seam
        assert 0 < min(spans) < 32 and max(spans) == 64
    else:
        assert spans == [0] * len(steps)


class FreshFaces:
    """A drift that hands the solver copies of another drift's faces in a new
    list at every request, so _Upwind builds its views and peaks at every step."""

    def __init__(self, drift):
        self.drift, self.boxes = drift, []

    def face_velocities(self, grid, t):
        f = self.drift.face_velocities(grid, t)
        self.boxes.append(tuple((s.start, s.stop) for s in f.box))
        return _Faces([u.copy() for u in f], f.box)


@pytest.mark.parametrize("shape,bc", [((32, 28), "periodic"), ((12, 14, 12), "periodic"),
                                      ((32, 28), "zero")])
@pytest.mark.parametrize("kind", ["compact-curl", "steady", "zero-drift"])
def test_kept_views_solve_as_fresh_views(shape, bc, kind):
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.0,) * n, shape, 0.0, 0.004, len(BUMP_PATHS[n]), bc)
    run_grid = g.with_times(g.t0, g.t1, 3)
    theta0 = gaussian_blob(run_grid, (0.1,) * n, 0.3)

    def drift():  # fast enough that the advective bound sets dt
        if kind == "compact-curl":
            return compact_curl_drift(g, 0.4, 100.0)
        if kind == "steady":
            cells = 100.0 * curl_slice(g, (0.2,) * n)
            return FieldDrift(SpaceTimeField(g, np.stack([cells] * g.nt), n))
        return ZeroDrift()

    fresh = FreshFaces(drift())
    kept, again = solve(theta0, drift(), run_grid), solve(theta0, fresh, run_grid)
    assert len(kept.step_times) > 50
    for name in ("step_times", "mass", "minimum", "maximum"):
        assert getattr(kept, name).tobytes() == getattr(again, name).tobytes(), name
    assert kept.trajectory.samples.tobytes() == again.trajectory.samples.tobytes()
    boxes = set(fresh.boxes)
    if kind == "compact-curl":  # the union box changes between brackets
        assert len(boxes) > 3
        if bc == "periodic":  # and one spans a periodic axis
            assert any(hi - lo == N for box in boxes for (lo, hi), N in zip(box, shape))
    else:
        assert len(boxes) == 1


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_interpolated_faces_are_the_brackets_arrays(bc):
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (32, 28), 0.0, 3.0, 4, bc)  # slices at 0, 1, 2, 3
    drift = FieldDrift(slice_field(g, [curl_slice(g, x) for x in
                                       ((-0.4, 0.1), (0.0, 0.0), (0.9, -0.3), (0.2, 0.6))]))
    single = {j: embedded(drift.face_velocities(g, float(j)), g.shape, bc) for j in range(4)}
    arrays = {}
    for t in (0.25, 0.5, 0.75, 1.5, 1.25, 2.5):
        faces = drift.face_velocities(g, t)
        s = (t - g.t0) / (g.t1 - g.t0) * (g.nt - 1)  # as FieldDrift._bracket
        j0, w = math.floor(s), s - math.floor(s)
        for u, u0, u1 in zip(embedded(faces, g.shape, bc), single[j0], single[j0 + 1]):
            assert u.tobytes() == (u0 * (1 - w) + u1 * w).tobytes(), t
        # a new list at each request, over the arrays its bracket owns
        if j0 in arrays:
            assert faces is not arrays[j0][0]
            assert all(u is v for u, v in zip(faces, arrays[j0][1]))
        else:
            assert not any(u is v for f in arrays.values() for u, v in zip(faces, f[1]))
        arrays[j0] = faces, list(faces)


def test_steady_drift_peaks_found_once():
    # a steady FieldDrift hands the solver one faces list, whose peaks split()
    # finds once: a max and a min per axis
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (32, 28), 0.0, 0.02, 3, "periodic")
    drift = FieldDrift(slice_field(g, [curl_slice(g, (0.2, -0.1))] * 3))
    faces, calls = drift.face_velocities(g, 0.0), []

    class Counted(np.ndarray):
        def max(self, *args, **kwargs):
            calls.append("max")
            return super().max(*args, **kwargs)

        def min(self, *args, **kwargs):
            calls.append("min")
            return super().min(*args, **kwargs)

    faces[:] = [u.view(Counted) for u in faces]
    run = solve(gaussian_blob(g, (0.1, 0.0), 0.3), drift, g)
    assert len(run.step_times) > 20
    assert sorted(calls) == ["max", "max", "min", "min"]


def test_dynamic_rescale_builds_one_stencil_per_slice(monkeypatch):
    # θ and b are sampled at the same points λ(t)y, so they share a stencil
    import driftlab.solver as solver
    from driftlab.fields import _stencil

    g = pgrid(32, t1=0.02, nt=4)
    run = solve(gaussian_blob(g, (0.0, 0.0), 0.3, normalize=False), None, g)
    built = []

    def counting_stencil(grid, pts):
        built.append(pts)
        return _stencil(grid, pts)

    monkeypatch.setattr(solver, "_stencil", counting_stencil)
    dynamic_rescale(run)
    assert len(built) == g.nt
