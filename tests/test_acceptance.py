"""End-to-end acceptance checks for the whole laboratory.

Each test exercises one headline capability at desk scale: classification,
counterexample constructions, conservation-law solver behaviour, and the
heat-kernel diagnostics, at the tolerances the library promises.
"""

import numpy as np
import pytest

from driftlab.analysis import (
    davies_energy,
    davies_probe,
    drift_free_params,
    fbc_tilde_test,
    fundsol_params,
    moser_trace,
    subsolution_residual,
    tail_check,
)
from driftlab.cli import blowup_probe_series, main as cli_main, trig_stream_field
from driftlab.drifts import (
    C0_DEFAULT,
    AssemblyBlock,
    DriftAssembly,
    assemble_borderline,
    assemble_selfsimilar,
    borderline_partial_sums,
    borderline_schedule,
    build_bogovskii_cap,
    build_elliptic,
    envelope_integral,
    heat_kernel,
    heat_subsolution,
    hodge_decompose,
    loglog_profile,
    subsolution_level,
    subsolution_radius,
    u_of_t,
)
from driftlab.fields import Grid, SpaceTimeField
from driftlab.norms import (
    Annulus,
    Box,
    MixedNormSpec,
    criticality_index,
    fbc_params_radial,
    fbc_test,
    mixed_norm,
)
from driftlab.solver import (
    FieldDrift,
    SolverConfig,
    fundamental_solution,
    gaussian_blob,
    solve,
)

INF = np.inf


# ---------------------------------------------------------------------------
# helpers


def random_solenoidal(grid, seed, amplitude=1.0, kmax=3):
    """Band-limited periodic stream field, spectrally divergence-free."""
    rng = np.random.default_rng(seed)
    X, Y = grid.meshgrid()
    L = grid.hi[0] - grid.lo[0]
    psi = np.zeros(grid.shape)
    for _ in range(4):
        kx, ky = rng.integers(1, kmax + 1, 2)
        px, py = rng.uniform(0, 2 * np.pi, 2)
        psi += amplitude * rng.standard_normal() * \
            np.sin(2 * np.pi * kx * X / L + px) * np.sin(2 * np.pi * ky * Y / L + py)
    psih = np.fft.fftn(psi)
    ks = [np.fft.fftfreq(s, d=h) * 2 * np.pi for s, h in zip(grid.shape, grid.h)]
    KX, KY = np.meshgrid(*ks, indexing="ij")
    bx = np.real(np.fft.ifftn(-1j * KY * psih))
    by = np.real(np.fft.ifftn(1j * KX * psih))
    b = np.zeros((grid.nt,) + tuple(grid.shape) + (2,))
    b[..., 0] = bx
    b[..., 1] = by
    return SpaceTimeField(grid, b, 2)


def smooth_positive_scalar(grid, rng, modes=3):
    X, Y = grid.meshgrid()
    out = np.full(grid.shape, 0.2)
    for _ in range(modes):
        cx, cy = rng.uniform(-0.5, 0.5, 2)
        w = rng.uniform(0.1, 0.4)
        out += rng.uniform(0.2, 1.5) * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / w**2)
    return SpaceTimeField(grid, np.broadcast_to(out, (grid.nt,) + tuple(grid.shape)).copy())


# ---------------------------------------------------------------------------
# 1. criticality classifier table


CLASSIFY_TABLE = [
    # (order, n, q, p, expected class)
    ("time_outer", 2, INF, 2, "subcritical_or_critical"),
    ("time_outer", 3, INF, 3, "subcritical_or_critical"),
    ("time_outer", 4, INF, 4, "subcritical_or_critical"),
    ("time_outer", 2, INF, INF, "subcritical_or_critical"),
    ("time_outer", 2, 4, 4, "subcritical_or_critical"),
    ("time_outer", 3, 2, INF, "subcritical_or_critical"),
    ("time_outer", 3, INF, 4, "subcritical_or_critical"),
    ("time_outer", 3, 8, 3, "supercritical_bounded"),
    ("time_outer", 3, 4, 3, "supercritical_bounded"),
    ("time_outer", 2, 10, 2, "supercritical_bounded"),
    ("time_outer", 2, 3, 2, "supercritical_bounded"),
    ("time_outer", 3, 3, 4, "supercritical_bounded"),
    ("time_outer", 2, 1, INF, "bounded_total_speed"),
    ("time_outer", 3, 1, INF, "bounded_total_speed"),
    ("time_outer", 5, 1, INF, "bounded_total_speed"),
    ("time_outer", 2, 2, 2, "unbounded_line"),
    ("time_outer", 4, 3, 3, "unbounded_line"),
    ("time_outer", 2, 2, 2, "unbounded_line"),
    ("time_outer", 3, 1.5, 3, "unbounded_line"),
    ("time_outer", 3, 2, 2, "unbounded_line"),
    ("time_outer", 2, 1, 1, "unbounded_line"),
    ("space_outer", 3, INF, 1, "dimension_reduced_fail"),
    ("space_outer", 5, INF, 2, "dimension_reduced_fail"),
    ("space_outer", 3, 2.5, 2.5, "dimension_reduced_fail"),
    ("space_outer", 2, 2, 2, "dimension_reduced_fail"),
    ("space_outer", 3, 6, 3, "dimension_reduced_ok"),
    ("space_outer", 3, 4, 4, "dimension_reduced_ok"),
    ("space_outer", 2, 8, 2, "dimension_reduced_ok"),
    ("space_outer", 3, 12, 1.2, "dimension_reduced_ok"),
    ("space_outer", 3, 2, 1, "dimension_reduced_fail"),
    ("space_outer", 3, 3, 1.5, "dimension_reduced_fail"),
    ("space_outer", 2, 2, 1, "dimension_reduced_fail"),
    ("space_outer", 3, 3, 2, "unknown"),
]


def test_criticality_table():
    assert len(CLASSIFY_TABLE) >= 30
    for order, n, q, p, expected in CLASSIFY_TABLE:
        rep = criticality_index(MixedNormSpec(order, n, p=p, q=q))
        assert rep.cls == expected, (order, n, q, p, rep)


# ---------------------------------------------------------------------------
# 2. divergence-free cap


def _check_cap(cap, resolution):
    g = cap.field.grid
    X = g.meshgrid()
    r = np.sqrt(sum(x**2 for x in X))
    U = cap.field.samples[0]
    e1 = np.zeros(g.n)
    e1[0] = 1.0
    inner = r <= 2.0
    assert np.abs(U[inner] - e1).max() < 1e-12
    outer = r >= 4.0
    assert np.abs(U[outer]).max() == 0.0
    assert cap.div_residual <= 1e-6


def test_cap_2d_128():
    _check_cap(build_bogovskii_cap(resolution=128, n=2), 128)


def test_cap_3d_96():
    _check_cap(build_bogovskii_cap(resolution=96, n=3), 96)


# ---------------------------------------------------------------------------
# 3. heat subsolution geometry


def test_subsolution_kink_identity_and_support():
    for n in (2, 3):
        ts = np.linspace(0.1, 1.9, 19)
        cn = subsolution_level(n)
        for t in ts:
            R = subsolution_radius(t, n)
            x = np.zeros((1, n))
            x[0, 0] = R
            gamma = heat_kernel(x, t, n)[0]
            assert abs(gamma - cn) < 1e-14

    # numerical support radius on a grid
    g = Grid(2, (-2.5, -2.5), (2.5, 2.5), (256, 256), bc="zero")
    pts = np.stack(g.meshgrid(), axis=-1)
    r = np.sqrt((pts**2).sum(axis=-1))
    h = g.h[0]
    for t in np.linspace(0.1, 1.9, 10):
        E, _ = heat_subsolution(pts, t, 2)
        supp = r[E > 0].max() if (E > 0).any() else 0.0
        assert abs(supp - subsolution_radius(t, 2)) <= 2 * h


# ---------------------------------------------------------------------------
# 4. speed schedule integrals


def test_schedule_integrals():
    for a in (1e-3, 1e-4, 1e-5):
        val = envelope_integral(a, C0_DEFAULT)
        target = u_of_t(a) - u_of_t(C0_DEFAULT)
        assert abs(val - target) < 1e-6
    sched = borderline_schedule(12, n=2)
    for blk in sched.blocks:
        assert abs(blk.integral() - 40.0) < 1e-6


# ---------------------------------------------------------------------------
# 5. borderline norm dichotomy


def test_partial_sum_dichotomy():
    cap = build_bogovskii_cap(resolution=128, n=2)
    cap_sup = cap.sup_norm
    cap_lp = cap.lp_norm(2.0)
    sched = borderline_schedule(12, n=2, ramp_frac=0.05, gap_frac=0.01)
    l1, lq = borderline_partial_sums(sched, q=2.0, n=2, cap_lp=cap_lp,
                                     cap_sup=cap_sup)
    # L^1_t L^inf_x growth tracks the triple-log span of the block times
    span = sched.blocks[-1].u_lo - sched.blocks[0].u_lo
    assert l1[-1] - l1[0] >= 0.9 * span
    # critical-line L^q_t L^p_x partial sums are Cauchy
    tail = lq[-1] - lq[6]
    assert tail < 0.05 * lq[-1]


# ---------------------------------------------------------------------------
# 6. comparison principle and subsolution residual on assembled scenarios


def _scenario_fields(asm, blk, tau0, tau1, nt, resolution, extent):
    t0 = blk.t0 + tau0 * blk.width
    t1 = blk.t0 + tau1 * blk.width
    g = Grid(2, (-extent, -extent), (extent, extent),
             (resolution, resolution), t0, t1, nt, "periodic")
    E = asm.sample_subsolution(g)
    b = asm.sample_drift(g)
    return g, E, b


def _kink_mask(g, blk):
    pts = np.stack(g.meshgrid(), axis=-1)
    h = g.h[0]
    mask = np.zeros((g.nt,) + tuple(g.shape), dtype=bool)
    for j, t in enumerate(g.times):
        if not blk.active(t):
            continue
        X = blk.position(float(t))
        tau = (t - blk.t0) / blk.R**2
        rim = subsolution_radius(tau, blk.n) * blk.R
        d = np.sqrt(((pts - X) ** 2).sum(axis=-1))
        mask[j] = np.abs(d - rim) < 4 * h
    return mask


def _assert_scenario(asm):
    for blk in asm.blocks:
        # fine grid for the residual
        g, E, b = _scenario_fields(asm, blk, 0.5, 0.9, 201, 512, 2.2)
        rep = subsolution_residual(E, b, exclude=_kink_mask(g, blk))
        assert rep.max_residual <= 1e-3, rep.max_residual
        # coarser stored times for the comparison run
        g2, E2, b2 = _scenario_fields(asm, blk, 0.2, 0.9, 5, 512, 2.2)
        run = solve(E2.samples[0], b2, g2)
        gap = (run.trajectory.samples - E2.samples).min()
        assert gap >= -(1e-3 + 5 * g2.h[0])


def test_comparison_and_residual_borderline_block():
    blk = AssemblyBlock(0.1, 0.1 + 0.25, 0.5, 1.0, 0.05, np.zeros(2), 2)
    _assert_scenario(DriftAssembly([blk], 2, "borderline"))


def test_comparison_and_residual_selfsimilar():
    asm = assemble_selfsimilar([0.1, 0.35, 0.6], amplitudes=[1.0, 0.8],
                               travel=0.05, x_start=(0.0, 0.0))
    _assert_scenario(asm)


# ---------------------------------------------------------------------------
# 7. Nash drift-independence ensemble (built-in scenario)


def test_nash_ensemble_scenario(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    from pathlib import Path
    cfg = Path(__file__).resolve().parent.parent / "configs" / "nash-ensemble.cfg"
    assert cli_main(["run", str(cfg), "--jobs", "4"]) == 0
    summary = (tmp_path / "out" / "nash-ensemble" / "summary.csv").read_text()
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in summary.strip().splitlines()[1:]}
    assert float(rows["nash_spread"][0]) < 2.0
    assert float(rows["drift_free_vs_gaussian"][0]) < 0.1
    members = (tmp_path / "out" / "nash-ensemble" / "members.csv").read_text()
    assert members.count("\n") == 11  # header + 10 members
    assert "borderline_assembly" in members and "selfsimilar_assembly" in members


# ---------------------------------------------------------------------------
# 8. blow-up trend


def test_blowup_trend_8_blocks():
    asm = assemble_borderline(8, amplitudes=0.9 ** np.arange(8), scale0=0.3,
                              ratio=0.85, travel=1.2, end_time=0.98,
                              x_start=(-0.6, 0.0))
    sups, regs = blowup_probe_series(asm, resolution=384, extent=2.0, jobs=2)
    slope = float(np.polyfit(np.log(regs), np.log(sups), 1)[0])
    assert 0.75 <= slope <= 1.25, slope
    running = np.maximum.accumulate(sups)
    assert np.all(np.diff(running[-5:]) > 0)


# ---------------------------------------------------------------------------
# 9. self-similar per-block norm scaling


def _block_norm(R, travel, spec):
    blk = AssemblyBlock(0.0, R**2, R, 1.0, travel, np.zeros(2), 2)
    ext = 4.2 * R + travel + 0.1
    g = Grid(2, (-ext, -ext), (ext, ext), (128, 128), 0.0, R**2, 33, "periodic")

    def fn(t, X, Y):
        return blk.velocity(t, np.stack([X, Y], axis=-1))

    b = SpaceTimeField.from_function(g, fn, ncomp=2)
    region = Box(g.lo, g.hi, 0.0, R**2)
    return mixed_norm(b, spec, region)


def test_selfsimilar_block_norm_exponents():
    # supercritical space-outer points, p <= q: the block family scales like
    # R^(n/p + 2/q - 2)
    points = [(1.0, 1.0), (1.0, 2.0), (1.5, 2.0)]
    Rs = np.array([0.4, 0.3, 0.2, 0.15])
    for p, q in points:
        assert 3.0 / q + 1.0 / p > 2.0 and p <= q
        spec = MixedNormSpec("space_outer", 2, p=p, q=q)
        norms = [_block_norm(R, 0.2, spec) for R in Rs]
        slope = float(np.polyfit(np.log(Rs), np.log(norms), 1)[0])
        eps = 2.0 / p + 2.0 / q - 2.0
        assert abs(slope - eps) <= 0.2 * max(abs(eps), 1.0), (p, q, slope, eps)


# ---------------------------------------------------------------------------
# 10. elliptic counterexample


def test_elliptic_vnorm_and_sup_growth():
    R0 = C0_DEFAULT
    vnorms = [build_elliptic(n=3, R0=R0, eps=R0 * 2.0**-j).v_norm()
              for j in (3, 4, 5)]
    vn = np.array(vnorms)
    assert np.ptp(vn) / vn.mean() < 0.1

    js = np.arange(3, 46, 3)
    sups = np.array([build_elliptic(n=3, R0=R0, eps=R0 * 2.0**-float(j)).sup_lower()
                     for j in js])
    assert np.all(np.diff(sups) > 0)
    assert sups[-1] / sups[0] > 2.0


def test_elliptic_laplacian_footnote_identity():
    # discrete radial Laplacian of loglog(1/r) in the plane vs -(r log 1/r)^-2
    r = np.geomspace(1e-6, 0.05, 4096)
    u = loglog_profile(r)
    du = np.gradient(u, r)
    d2u = np.gradient(du, r)
    lap = d2u + du / r
    target = -1.0 / (r * np.log(1.0 / r)) ** 2
    m = slice(32, -32)  # drop one-sided edge stencils
    rel = np.abs(lap[m] - target[m]) / np.abs(target[m])
    assert np.median(rel) < 0.01


# ---------------------------------------------------------------------------
# 11. Hodge decomposition


def test_hodge_20_random_fields():
    g = Grid(2, (-np.pi, -np.pi), (np.pi, np.pi), (64, 64), 0.0, 0.1, 2, "periodic")
    for seed in range(20):
        b = random_solenoidal(g, seed)
        dec = hodge_decompose(b)
        swap = np.swapaxes(dec.a, -1, -2)
        assert np.abs(dec.a + swap).max() == 0.0
        recon = dec.reconstruct()
        scale = np.abs(b.samples).max()
        assert np.abs(recon.samples - b.samples).max() / scale < 1e-6


def test_hodge_shear_recovery():
    g = Grid(2, (-np.pi, -np.pi), (np.pi, np.pi), (64, 64), 0.0, 0.1, 2, "periodic")
    X, Y = g.meshgrid()
    b = np.zeros((2, 64, 64, 2))
    b[..., 0] = np.sin(Y)
    dec = hodge_decompose(SpaceTimeField(g, b, 2))
    assert np.abs(dec.a[..., 0, 1] - np.cos(Y)).max() < 1e-10


# ---------------------------------------------------------------------------
# 12. FBC and FBC-tilde ensembles


def test_fbc_ensembles():
    rng = np.random.default_rng(23)
    g = Grid(2, (-1.2, -1.2), (1.2, 1.2), (64, 64), 0.0, 1.0, 5, "zero")
    X, Y = g.meshgrid()

    drifts = []
    drifts.append(SpaceTimeField(g, np.zeros((5, 64, 64, 2)), 2))  # zero
    rot = np.zeros((5, 64, 64, 2))
    rot[..., 0], rot[..., 1] = -Y, X
    drifts.append(SpaceTimeField(g, rot, 2))                        # rotation
    drifts.append(random_solenoidal(g, 101, amplitude=0.5))
    drifts.append(random_solenoidal(g, 202, amplitude=0.5))
    asm = assemble_selfsimilar([0.1, 0.9], amplitudes=[1.0], travel=0.1,
                               x_start=(-0.05, 0.0))
    drifts.append(asm.sample_drift(g))                              # moving cap

    spec_r = MixedNormSpec("sliced_rt", 2, p=2, q=3, kappa=2)
    region = Annulus((0, 0), 0.45, 0.9, 0.0, 1.0)
    spec_t = MixedNormSpec("time_outer", 2, p=3.0, q=3.0)
    box = Box(g.lo, g.hi, 0.0, 1.0)

    us = [smooth_positive_scalar(g, rng) for _ in range(50)]
    for b in drifts:
        bn_r = mixed_norm(b, spec_r, region)
        params = fbc_params_radial(spec_r, bn_r, R0=0.9)
        bn_t = mixed_norm(b, spec_t, box)
        tpars = fundsol_params(spec_t, bn_t)
        for u in us:
            rep = fbc_test(b, u, params, (0, 0), 0.45, 0.9, 0.0, 1.0,
                           slice_q=spec_r.q, slice_p=spec_r.p, kappa=spec_r.kappa)
            assert rep.satisfied, (rep.lhs, rep.rhs)
            trep = fbc_tilde_test(b, u, tpars, (0, 0), 0.9, 0.0, 1.0)
            assert trep.satisfied


# ---------------------------------------------------------------------------
# shared solver runs for the heat-kernel diagnostics


_RUNS = {}


def _diag_run(tag):
    if tag in _RUNS:
        return _RUNS[tag]
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (128, 128), 0.0, 0.15, 7, "periodic")
    if tag == "free":
        b = None
    elif tag == "stream":
        b = trig_stream_field(g, 31, 0.8)
    elif tag == "assembly":
        asm = assemble_selfsimilar([0.01, 0.08, 0.15], travel=0.5,
                                   x_start=(-0.25, 0.0))
        b = asm.sample_drift(g.with_times(0.0, 0.15, 33))
    theta0 = gaussian_blob(g, (0.0, 0.0), 0.25, normalize=False)
    run = solve(theta0, b, g)
    _RUNS[tag] = (run, b)
    return _RUNS[tag]


def _params_for(b):
    if b is None:
        return drift_free_params()
    spec = MixedNormSpec("time_outer", 2, p=4.0, q=4.0)
    g = b.grid
    bn = mixed_norm(b, spec, Box(g.lo, g.hi, g.t0, g.t1))
    return fundsol_params(spec, bn)


# ---------------------------------------------------------------------------
# 13. Moser iteration trace


def test_moser_trace_run_ensemble():
    spec_r = MixedNormSpec("sliced_rt", 2, p=2, q=3, kappa=2)
    for tag in ("free", "stream", "assembly"):
        run, b = _diag_run(tag)
        g = run.trajectory.grid
        # clip solver round-off negatives (order 1e-16) for the power ladder
        th = SpaceTimeField(g, np.maximum(run.trajectory.samples, 0.0))
        if b is None:
            fbc = fbc_params_radial(spec_r, 0.0, R0=0.8)
        else:
            bn = mixed_norm(b, spec_r, Annulus((0, 0), 0.4, 0.8, g.t0, g.t1))
            fbc = fbc_params_radial(spec_r, bn, R0=0.8)
        tr = moser_trace(th, (0, 0), 0.4, 0.8, 0.0, 0.05, 0.15, fbc, kmax=8)
        assert np.all(np.diff(tr.Ms) >= -1e-9 * tr.Ms[0])
        assert abs(tr.Ms[-1] - tr.sup_inner**2) <= 0.1 * tr.sup_inner**2
        assert tr.sup_inner <= tr.predicted_sup


# ---------------------------------------------------------------------------
# 14. Davies weighted energy


def test_davies_single_constant():
    fits = []
    for tag in ("stream", "assembly"):
        run, b = _diag_run(tag)
        params = _params_for(b)
        for x0 in ((1.2, 0.0), (0.0, -1.1)):
            for gamma in (0.5, 1.0, 2.0):
                probe = davies_probe(b, x0, gamma)
                rep = davies_energy(run, probe, params)
                assert rep.bound_ok
                fits.append(rep.C_fit)
    assert max(fits) <= 10.0, fits


# ---------------------------------------------------------------------------
# 15. two-exponential tail bound


def test_tail_bounds():
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (128, 128), 0.0, 0.1, 6, "periodic")
    run = fundamental_solution((0.0, 0.0), 0.0, None, g, SolverConfig(dt=5e-4))
    rep = tail_check(run, drift_free_params(), (0.0, 0.0), 0.0)
    assert rep.c >= 0.2
    assert rep.gauss_active.all()
    assert (rep.margins >= 1.0 - 1e-9).all()

    b = trig_stream_field(g, 77, 0.8)
    run2 = fundamental_solution((0.0, 0.0), 0.0, b, g, SolverConfig(dt=5e-4))
    rep2 = tail_check(run2, _params_for(b), (0.0, 0.0), 0.0)
    assert rep2.c > 0.0
    assert (rep2.margins >= 1.0 - 1e-9).all()


def test_tail_dimensional_invariance():
    fits = []
    for lam in (1.0, 2.0):
        g = Grid(2, (-2.0 * lam,) * 2, (2.0 * lam,) * 2, (128, 128),
                 0.0, 0.1 * lam**2, 6, "periodic")
        run = fundamental_solution((0.0, 0.0), 0.0, None, g,
                                   SolverConfig(dt=5e-4 * lam**2))
        fits.append(tail_check(run, drift_free_params(), (0.0, 0.0), 0.0))
    assert abs(fits[0].c - fits[1].c) / fits[0].c < 0.05
    assert abs(fits[0].C - fits[1].C) / fits[0].C < 0.05


# ---------------------------------------------------------------------------
# 16. determinism


def test_scenario_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_OUT", str(tmp_path))
    from pathlib import Path
    cfg = Path(__file__).resolve().parent.parent / "configs" / "heat-2d.cfg"
    assert cli_main(["run", str(cfg)]) == 0
    out = tmp_path / "out" / "heat-2d"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli_main(["run", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
