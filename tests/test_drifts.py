import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.drifts import (
    AssemblyBlock,
    C0_DEFAULT,
    DriftAssembly,
    assemble_borderline,
    assemble_selfsimilar,
    borderline_block_lqlp,
    borderline_partial_sums,
    borderline_schedule,
    build_bogovskii_cap,
    build_elliptic,
    cap_velocity,
    envelope_integral,
    heat_kernel,
    heat_subsolution,
    hminus1_proxy,
    hodge_decompose,
    loglog_laplacian,
    loglog_profile,
    rescaled_schedule,
    speed_envelope,
    subsolution_level,
    subsolution_radius,
    t_of_u,
    u_of_t,
    _half_weights,
    _radial_mollify,
    _wavenumbers,
)
from driftlab.cli import trig_stream_field
from driftlab.fields import Grid, SpaceTimeField, curl, divergence, face_to_cell
from driftlab.solver import FieldDrift, PotentialDrift, as_drift


# ---------------------------------------------------------------------------
# cap


def test_cap_2d_invariants():
    cap = build_bogovskii_cap(128, n=2)
    g = cap.field.grid
    X, Y = g.meshgrid()
    r = np.sqrt(X**2 + Y**2)
    U = cap.field.samples[0]
    plug = r <= 2.0
    assert np.abs(U[plug][:, 0] - 1.0).max() < 1e-12
    assert np.abs(U[plug][:, 1]).max() < 1e-12
    outside = r >= 4.0
    assert np.abs(U[outside]).max() == 0.0
    assert cap.div_residual < 1e-6


def test_cap_3d_invariants():
    cap = build_bogovskii_cap(96, n=3)
    g = cap.field.grid
    X, Y, Z = g.meshgrid()
    r = np.sqrt(X**2 + Y**2 + Z**2)
    U = cap.field.samples[0]
    plug = r <= 2.0
    assert np.abs(U[plug][:, 0] - 1.0).max() < 1e-12
    assert np.abs(U[plug][:, 1:]).max() < 1e-12
    assert np.abs(U[r >= 4.0]).max() == 0.0
    assert cap.div_residual < 1e-6


def test_cap_matches_analytic_velocity():
    errs = []
    for N in (128, 256):
        cap = build_bogovskii_cap(N, n=2)
        g = cap.field.grid
        X, Y = g.meshgrid()
        pts = np.stack([X, Y], axis=-1)
        exact = cap_velocity(pts, *cap.ramp, n=2)
        errs.append(np.abs(cap.field.samples[0] - exact).max())
    # discrete curl converges to the analytic curl at second order (up to the
    # kink of the quintic cutoff's third derivative)
    assert np.log2(errs[0] / errs[1]) > 1.5
    assert errs[1] < 0.05 * cap.sup_norm


def test_cap_norms_converge():
    n128 = build_bogovskii_cap(128, n=2).lp_norm(2)
    n256 = build_bogovskii_cap(256, n=2).lp_norm(2)
    assert abs(n128 - n256) / n256 < 0.01
    assert build_bogovskii_cap(128, n=2).sup_norm >= 1.0


def test_cap_validation():
    with pytest.raises(ValueError):
        build_bogovskii_cap(16, n=2)
    with pytest.raises(ValueError):
        build_bogovskii_cap(128, n=2, ramp=(1.0, 3.9))


# ---------------------------------------------------------------------------
# subsolution


def test_subsolution_values_and_support():
    for n in (2, 3):
        c = subsolution_level(n)
        t = 0.3
        val, R = heat_subsolution(np.zeros((1, n)), t, n)
        assert val[0] == pytest.approx((4 * np.pi * t) ** (-n / 2) - c)
        # the kernel equals the truncation level exactly on the support edge
        edge = np.zeros((1, n))
        edge[0, 0] = R
        assert heat_kernel(edge, t, n)[0] == pytest.approx(c, rel=1e-12)
        beyond = edge * 1.01
        assert heat_subsolution(beyond, t, n)[0][0] == 0.0
    assert subsolution_radius(2.5, 2) == 0.0
    val, _ = heat_subsolution(np.zeros((1, 2)), 2.5, 2)
    assert val[0] == 0.0


def test_subsolution_mass_below_one():
    # sup_t || (Gamma - c_n)_+ ||_L1 < 1 justifies the amplitude pruning rule
    for n in (2, 3):
        for t in (0.05, 0.2, 0.5, 1.0, 1.9):
            R = float(subsolution_radius(t, n))
            if R == 0:
                continue
            r = np.linspace(0, R, 2000)
            pts = np.zeros((r.size, n))
            pts[:, 0] = r
            e, _ = heat_subsolution(pts, t, n)
            surf = 2 * np.pi * r if n == 2 else 4 * np.pi * r**2
            mass = np.trapezoid(e * surf, r)
            assert mass < 1.0


# ---------------------------------------------------------------------------
# schedules


def test_envelope_antiderivative():
    pytest.importorskip("scipy.integrate")  # the envelope integrals use its quad
    # int_a^b S dt = u(a) - u(b) with u = logloglog(1/t), exactly
    a = float(t_of_u(0.8))
    b = C0_DEFAULT
    assert envelope_integral(a, b) == pytest.approx(0.8, abs=1e-9)
    assert u_of_t(C0_DEFAULT) == pytest.approx(0.0, abs=1e-12)


def test_borderline_schedule_blocks():
    pytest.importorskip("scipy.integrate")  # the envelope integrals use its quad
    K, M = 12, 40.0
    sched = borderline_schedule(K, M=M, n=2)
    assert len(sched.blocks) == K
    prev_hi = -np.inf
    for blk in sched.blocks:
        assert blk.u_lo > prev_hi - 1e-12
        prev_hi = blk.u_hi
        assert blk.integral() == pytest.approx(M, abs=1e-8)
    assert sched.total_speed() == pytest.approx(K * M, abs=1e-5)


def test_borderline_speed_below_envelope():
    sched = borderline_schedule(3, M=40.0)
    blk = sched.blocks[0]
    # representable times inside the first block
    us = np.linspace(0.01, 1.5, 40)
    ts = t_of_u(us)
    s = blk.speed(ts)
    env = speed_envelope(ts)
    assert np.all(s <= env * (1 + 1e-12))
    assert np.any(s > 0)
    # outside the support the block is silent
    assert blk.speed(np.array([C0_DEFAULT * 1.5])) == 0.0


def test_block_lqlp_against_direct_time_quadrature():
    quad = pytest.importorskip("scipy.integrate").quad
    # small-mass single block stays in representable times, so the u-space
    # formula can be checked against brute-force integration in t
    sched = borderline_schedule(1, M=0.5, n=2)
    blk = sched.blocks[0]
    q = 2.0
    n = 2
    p = n * q / (2 * q - 2)  # on the line 2/q + n/p = 2
    cap_lp = 3.7  # arbitrary positive stand-in for ||U||_p
    t_lo, t_hi = blk.t_interval
    assert t_lo > 0

    def integrand(t):
        S = float(blk.speed(np.array([t]))[0])
        R = float(subsolution_radius(t, n))  # R^2 = 2 n t log(2/t)
        return (S * R ** (n / p)) ** q

    direct, _ = quad(integrand, t_lo, t_hi, limit=400)
    direct = cap_lp * direct ** (1 / q)
    assert borderline_block_lqlp(blk, q, n, cap_lp) == pytest.approx(direct, rel=1e-6)


def test_partial_sum_growth_and_cauchy():
    pytest.importorskip("scipy.integrate")  # the envelope integrals use its quad
    sched = borderline_schedule(10, M=40.0, n=2)
    l1, lq = borderline_partial_sums(sched, q=2.0, n=2, cap_lp=1.0, cap_sup=1.0)
    # L1_t Linf_x partial sums grow linearly (mass M per block)
    assert np.allclose(np.diff(l1), 40.0, atol=1e-7)
    # critical-line partial sums are Cauchy: late tail is tiny
    assert lq[-1] - lq[4] < 0.05 * lq[-1]
    assert np.all(np.diff(lq) >= -1e-12)


def test_schedule_validation():
    pytest.importorskip("scipy.integrate")  # the envelope integrals use its quad
    with pytest.raises(ValueError):
        borderline_schedule(0)
    with pytest.raises(ValueError):
        borderline_schedule(2, c0=0.5)
    with pytest.raises(ValueError):
        borderline_schedule(2, M=-1.0)
    with pytest.raises(ValueError):
        rescaled_schedule([(0.0, 0.5), (0.4, 0.8)], M=1.0)
    sched = rescaled_schedule([(0.0, 0.5), (0.6, 0.8)], M=2.5)
    for blk in sched.blocks:
        assert blk.integral() == pytest.approx(2.5, abs=1e-9)


# ---------------------------------------------------------------------------
# assemblies


def test_assemble_borderline_layout():
    pytest.importorskip("scipy.integrate")  # the envelope integrals use its quad
    asm = assemble_borderline(5, travel=2.4)
    assert len(asm.blocks) == 5
    prev = -1.0
    for k, blk in enumerate(asm.blocks):
        assert blk.t0 >= prev
        prev = blk.t1
        assert blk.R == pytest.approx(0.3 * 0.85**k)
        assert blk.t1 - blk.t0 == pytest.approx(blk.R**2)
    assert asm.blocks[-1].t1 <= 0.98 + 1e-12
    # each block traverses the requested distance
    for blk in asm.blocks:
        assert asm.total_displacement(blk) == pytest.approx(2.4, rel=1e-8)


def test_assembly_drift_divfree_and_plug_speed():
    asm = assemble_borderline(2, travel=2.4, scale0=0.3)
    blk = asm.blocks[0]
    tmid = 0.5 * (blk.t0 + blk.t1)
    g = Grid(2, (-2.5, -2.5), (2.5, 2.5), (160, 160), tmid, tmid + 1e-9, 1, "zero")
    b = asm.sample_drift(g)
    scale = np.abs(b.samples).max()
    assert scale > 0
    div = np.abs(divergence(b).samples).max()
    assert div < 1e-8 * scale / g.h[0]
    # inside the plug (minus one stencil cell) the sampled drift is S(t) e1
    X = blk.position(tmid)
    S = float(blk.speed(tmid))
    XX, YY = g.meshgrid()
    plug = np.sqrt((XX - X[0]) ** 2 + (YY - X[1]) ** 2) < blk.ramp[0] * blk.R - 2 * g.h[0]
    assert np.abs(b.samples[0][plug][:, 0] - S).max() < 1e-10 * S
    assert np.abs(b.samples[0][plug][:, 1]).max() < 1e-10 * S


def test_assembly_subsolution_scaling():
    asm = assemble_borderline(3, travel=2.4)
    blk = asm.blocks[1]
    tau = 0.3
    t = blk.t0 + tau * blk.R**2
    X = blk.position(t)
    val = blk.subsolution(t, X[None, :])[0]
    peak = blk.A * blk.R ** (-blk.n) * ((4 * np.pi * tau) ** (-blk.n / 2)
                                        - subsolution_level(blk.n))
    assert val == pytest.approx(peak, rel=1e-12)
    # vanishes outside the active window and outside the moving support
    assert blk.subsolution(blk.t1 + 1e-6, X[None, :])[0] == 0.0
    far = X + np.array([10.0, 0.0])
    assert blk.subsolution(t, far[None, :])[0] == 0.0


def test_assembly_manifest_roundtrip():
    asm = assemble_borderline(3, travel=2.4, amplitudes=[1.0, 0.3, 0.2])
    back = DriftAssembly.from_manifest(asm.manifest())
    blk = asm.blocks[0]
    t = 0.5 * (blk.t0 + blk.t1)
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (64, 64), t, t + 1e-9, 1, "zero")
    assert np.array_equal(asm.sample_drift(g).samples, back.sample_drift(g).samples)
    assert back.kind == asm.kind


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _assemblies(draw):
    """Small valid assemblies from either builder, in 2D or 3D."""
    n = draw(st.sampled_from([2, 3]))
    K = draw(st.integers(1, 3))
    kw = dict(n=n, travel=draw(st.none() | _FINITE),
              amplitudes=draw(st.none() | st.lists(st.floats(0.0, 1e6), min_size=K,
                                                   max_size=K)),
              x_start=draw(st.none() | st.lists(_FINITE, min_size=n, max_size=n)))
    if draw(st.booleans()):
        return assemble_borderline(K, scale0=draw(st.floats(0.01, 0.5)),
                                   ratio=draw(st.floats(0.3, 1.0)),
                                   end_time=draw(st.floats(0.8, 10.0)),
                                   gap_frac=draw(st.floats(0.0, 0.1)), **kw)
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=K, max_size=K))
    return assemble_selfsimilar(draw(_FINITE) + np.cumsum([0.0] + steps), **kw)


@settings(max_examples=60, deadline=None)
@given(_assemblies())
def test_manifest_roundtrip_is_bit_exact(asm):
    back = DriftAssembly.from_manifest(asm.manifest())
    assert (back.kind, back.n, len(back.blocks)) == (asm.kind, asm.n, len(asm.blocks))
    for a, b in zip(asm.blocks, back.blocks):
        for f in dataclasses.fields(AssemblyBlock):
            x, y = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name


@pytest.mark.parametrize("shape,lo,hi", [((128, 64), (-2.0, -2.0), (2.0, 2.0)),
                                         ((64, 64), (-2.0, -1.0), (2.0, 1.0))])
def test_curl_drifts_divfree_on_anisotropic_grids(shape, lo, hi):
    # the curl must use each axis' own spacing, or as_drift refuses the field
    g = Grid(2, lo, hi, shape, 0.0, 0.1, 5, "periodic")
    asm = assemble_borderline(3, n=2, scale0=0.2, travel=0.6, end_time=0.1,
                              x_start=(-0.3, 0.0))
    for b in (asm.sample_drift(g), trig_stream_field(g, 5, 1.0)):
        sup = np.abs(b.samples).max()
        assert sup > 0
        assert np.abs(divergence(b).samples).max() <= 1e-10 * sup
        assert isinstance(as_drift(b, g), FieldDrift)


def test_assemble_selfsimilar():
    asm = assemble_selfsimilar([0.0, 0.25, 0.5, 1.0], travel=2.0)
    for blk, w in zip(asm.blocks, (0.25, 0.25, 0.5)):
        assert blk.R**2 == pytest.approx(w)
    with pytest.raises(ValueError):
        assemble_selfsimilar([0.0, 0.5, 0.4])
    with pytest.raises(ValueError):
        DriftAssembly([AssemblyBlock(0.0, 0.5, 0.7, 1.0, 1.0, np.zeros(2), 2),
                       AssemblyBlock(0.3, 0.8, 0.7, 1.0, 1.0, np.zeros(2), 2)],
                      2, "block_rescaled")


@pytest.mark.parametrize("amplitudes", [[1.0], [1.0, 0.5, 0.2], [1.0, -0.5], [1.0, np.nan]])
def test_assemble_selfsimilar_refuses_bad_amplitudes(amplitudes):
    with pytest.raises(ValueError, match="amplitudes"):
        assemble_selfsimilar([0.0, 0.5, 1.0], amplitudes=amplitudes, travel=2.0)
    with pytest.raises(ValueError, match="amplitudes"):
        assemble_borderline(2, amplitudes=amplitudes, travel=2.0)


# ---------------------------------------------------------------------------
# elliptic counterexample


def test_radial_mollify_exact_oracles():
    r = np.geomspace(1e-4, 0.05, 200)
    # constants are fixed points
    ones = _radial_mollify(lambda s: np.ones_like(s), r, 1e-3, 2)
    assert np.abs(ones - 1.0).max() < 1e-12
    # |x|^2 mollifies to r^2 + const (mean of |y|^2 over the mollifier)
    sq = _radial_mollify(lambda s: s**2, r, 1e-3, 2)
    shift = sq - r**2
    assert np.abs(shift - shift.mean()).max() < 1e-14


def test_elliptic_profile_invariants():
    ex = build_elliptic(n=3)
    assert np.all(ex.V_eps <= 0.0)
    assert np.all(ex.u_eps > 0.0)
    # away from the mollification scale the profile matches loglog(1/r)
    m = (ex.r > 4 * ex.eps) & (ex.r < ex.R0)
    rel = np.abs(ex.u_eps[m] - loglog_profile(ex.r[m])) / loglog_profile(ex.r[m])
    assert rel.max() < 5e-3
    lap_rel = np.abs(ex.lap_u_eps[m] - loglog_laplacian(ex.r[m])) / np.abs(
        loglog_laplacian(ex.r[m]))
    assert np.median(lap_rel) < 0.05


def test_elliptic_laplacian_consistency():
    # (Lap u)_eps equals Lap(u_eps): check against finite differences of the
    # stored profile on the log grid
    ex = build_elliptic(n=3, eps=build_elliptic(n=3).R0 / 8)
    r, u = ex.r, ex.u_eps
    du = np.gradient(u, r)
    d2u = np.gradient(du, r)
    lap_fd = d2u + du / r
    m = (r > ex.eps) & (r < ex.R0 / 2)
    rel = np.abs(lap_fd[m] - ex.lap_u_eps[m]) / np.abs(ex.lap_u_eps[m]).max()
    assert np.median(rel) < 0.05


def test_elliptic_vnorm_stable_and_sup_growth():
    R0 = C0_DEFAULT
    sups, vnorms = [], []
    for j in (3, 4, 5):
        ex = build_elliptic(n=3, R0=R0, eps=R0 * 2.0**-j)
        vnorms.append(ex.v_norm())
        sups.append(ex.sup_lower())
    vn = np.array(vnorms)
    assert np.ptp(vn) / vn.mean() < 0.1
    assert np.all(np.diff(sups) > 0)


def test_elliptic_slab_fields():
    ex = build_elliptic(n=3)
    g = Grid(3, (-ex.R0, -ex.R0, 0.0), (ex.R0, ex.R0, 1.0), (24, 24, 16), bc="zero")
    b, lower, upper = ex.slab_fields(g)
    assert np.all(b.samples[..., 2] <= 0)
    assert np.abs(b.samples[..., :2]).max() == 0.0
    assert np.all(lower.samples <= upper.samples + 1e-12)
    with pytest.raises(ValueError):
        build_elliptic(n=2)
    with pytest.raises(ValueError):
        build_elliptic(n=3, R0=0.9)


# ---------------------------------------------------------------------------
# Hodge-type decomposition


def _pgrid(N=64, nt=1):
    return Grid(2, (-np.pi, -np.pi), (np.pi, np.pi), (N, N), 0.0, 1.0, nt)


def test_hodge_shear():
    g = _pgrid()
    X, Y = g.meshgrid()
    b = np.zeros((1, 64, 64, 2))
    b[0, ..., 0] = np.sin(Y)
    dec = hodge_decompose(SpaceTimeField(g, b, 2))
    assert np.abs(dec.a[0, ..., 0, 1] - np.cos(Y)).max() < 1e-10
    assert np.abs(dec.a[0] + np.swapaxes(dec.a[0], -1, -2)).max() < 1e-14
    assert np.abs(dec.b2.samples).max() < 1e-10
    assert dec.residual < 1e-10


def test_hodge_constant_mode():
    g = _pgrid(32)
    b = np.zeros((1, 32, 32, 2))
    b[..., 0] = 2.0
    b[..., 1] = -1.0
    dec = hodge_decompose(SpaceTimeField(g, b, 2))
    assert np.abs(dec.a).max() < 1e-14
    assert np.allclose(dec.b2.samples, b)
    assert dec.residual < 1e-12


def test_hodge_random_solenoidal():
    rng = np.random.default_rng(7)
    g = _pgrid(64)
    X, Y = g.meshgrid()
    psi = np.zeros((64, 64))
    for _ in range(6):
        kx, ky = rng.integers(1, 5, size=2)
        psi += rng.standard_normal() * np.sin(kx * X + rng.uniform(0, 2 * np.pi)) \
            * np.cos(ky * Y + rng.uniform(0, 2 * np.pi))
    # spectral curl so the samples are solenoidal to round-off spectrally
    ph = np.fft.fftn(psi)
    kxs = np.fft.fftfreq(64, d=2 * np.pi / 64) * 2 * np.pi
    KX, KY = np.meshgrid(kxs, kxs, indexing="ij")
    b = np.zeros((1, 64, 64, 2))
    b[0, ..., 0] = np.real(np.fft.ifftn(-1j * KY * ph))
    b[0, ..., 1] = np.real(np.fft.ifftn(1j * KX * ph))
    dec = hodge_decompose(SpaceTimeField(g, b, 2))
    assert dec.residual < 1e-12
    assert np.abs(dec.b2.samples).max() < 1e-10 * np.abs(b).max()


def test_hminus1_proxy_unit_mode():
    g = _pgrid(64)
    X, Y = g.meshgrid()
    b = np.zeros((1, 64, 64, 2))
    b[0, ..., 0] = np.sin(Y)
    f = SpaceTimeField(g, b, 2)
    # |k| = 1 modes: the proxy coincides with the L2 norm
    l2 = np.sqrt((b**2).sum() * g.cell_volume)
    assert hminus1_proxy(f) == pytest.approx(l2, rel=1e-10)


# The complex-FFT decomposition that the half-spectrum one replaced, kept as an
# oracle: full-spectrum wavenumbers, with np.real dropping the odd Nyquist terms.
def _oracle_wavenumbers(grid):
    ks = []
    for i in range(grid.n):
        L = grid.hi[i] - grid.lo[i]
        ks.append(2.0 * np.pi * np.fft.fftfreq(grid.shape[i], d=L / grid.shape[i]))
    return np.meshgrid(*ks, indexing="ij")


def _oracle_minus_div(a, K):
    n = len(K)
    out = np.empty(a.shape[:-1])
    for i in range(n):
        tot = np.zeros(a.shape[:n], dtype=complex)
        for l in range(n):
            if l != i:
                tot += 1j * K[l] * np.fft.fftn(a[..., i, l])
        out[..., i] = np.real(np.fft.ifftn(-tot))
    return out


def _oracle_hodge(b):
    """(a, b2, residual, a_l2, reconstruction) by the complex-FFT formulas."""
    g = b.grid
    K = _oracle_wavenumbers(g)
    k2 = sum(k**2 for k in K)
    inv = np.zeros_like(k2)
    nz = k2 > 0
    inv[nz] = 1.0 / k2[nz]
    n = g.n
    a = np.zeros((g.nt,) + tuple(g.shape) + (n, n))
    b1 = np.zeros_like(b.samples)
    denom = 0.0
    for j in range(g.nt):
        bh = [np.fft.fftn(b.samples[j, ..., c]) for c in range(n)]
        for c in range(n):
            denom += (np.abs(bh[c]) ** 2).sum()
        for i in range(n):
            for l in range(i + 1, n):
                arr = np.real(np.fft.ifftn(-(1j * K[i] * bh[l] - 1j * K[l] * bh[i]) * inv))
                a[j, ..., i, l] = arr
                a[j, ..., l, i] = -arr
        b1[j] = _oracle_minus_div(a[j], K)
    rem = b.samples - b1
    leak = 0.0
    for j in range(g.nt):
        rh = [np.fft.fftn(rem[j, ..., c]) for c in range(n)]
        div = sum(1j * K[c] * rh[c] for c in range(n))
        for c in range(n):
            sol = rh[c] - 1j * K[c] * div * inv
            sol[tuple(0 for _ in range(g.n))] = 0.0
            leak += float((np.abs(sol) ** 2).sum())
    res = 0.0 if denom == 0 else float(np.sqrt(leak / denom))
    a_l2 = float(np.sqrt((a**2).sum() * g.cell_volume * (g.dt if g.nt > 1 else 1.0)))
    recon = np.array(rem)
    for j in range(g.nt):
        recon[j] += _oracle_minus_div(a[j], K)
    return a, rem, res, a_l2, recon


def _oracle_hminus1(b):
    g = b.grid
    k2 = sum(k**2 for k in _oracle_wavenumbers(g))
    wgt = np.where(k2 > 0, 1.0 / np.maximum(k2, 1e-300), 1.0)
    npts = float(np.prod(g.shape))
    tw = g.dt if g.nt > 1 else 1.0
    total = sum(((np.abs(np.fft.fftn(b.samples[j, ..., c]) / npts) ** 2) * wgt).sum() * tw
                for j in range(g.nt) for c in range(g.n))
    return float(np.sqrt(total * np.prod([g.hi[i] - g.lo[i] for i in range(g.n)])))


def _gradient_plus_solenoidal(g, rng):
    """grad phi plus the Leray projection of a random field, every mode present
    (the Nyquist entries too), so both parts and the Nyquist rule are probed."""
    K = _oracle_wavenumbers(g)
    k2 = sum(k**2 for k in K)
    inv = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    b = np.empty((g.nt,) + tuple(g.shape) + (g.n,))
    for j in range(g.nt):
        ph = np.fft.fftn(rng.standard_normal(g.shape))
        vh = [np.fft.fftn(rng.standard_normal(g.shape)) for _ in range(g.n)]
        kv = sum(k * v for k, v in zip(K, vh))
        for c in range(g.n):
            b[j, ..., c] = np.real(np.fft.ifftn(1j * K[c] * ph + vh[c] - K[c] * kv * inv))
    return SpaceTimeField(g, b, g.n)


@pytest.mark.parametrize("shape,nt", [((16, 16), 2), ((15, 17), 3), ((12, 9), 2),
                                      ((8, 6, 7), 2), ((7, 9, 5), 2), ((6, 6, 6), 1)],
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"nt{v}")
@pytest.mark.parametrize("kind", ["random", "gradient_plus_solenoidal"])
def test_hodge_half_spectrum_matches_complex_fft_oracle(shape, nt, kind):
    """The real-FFT decomposition gives the complex-FFT one's a, b2, residual,
    a_l2, reconstruction and H^-1 proxy to 1e-12, with every mode populated."""
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.5,) * n, shape, 0.0, 0.5, nt)
    rng = np.random.default_rng(sum(shape) + nt)
    if kind == "random":
        b = SpaceTimeField(g, rng.standard_normal((nt,) + shape + (n,)), n)
    else:
        b = _gradient_plus_solenoidal(g, rng)
    a, b2, res, a_l2, recon = _oracle_hodge(b)
    dec = hodge_decompose(b)

    def close(x, y):
        return np.abs(x - y).max() <= 1e-12 * np.abs(y).max()

    assert close(dec.a, a)
    assert close(dec.b2.samples, b2)
    assert close(dec.reconstruct().samples, recon)
    assert dec.residual == pytest.approx(res, rel=1e-12, abs=0.0)
    assert dec.a_l2() == pytest.approx(a_l2, rel=1e-12, abs=0.0)
    assert hminus1_proxy(b) == pytest.approx(_oracle_hminus1(b), rel=1e-12, abs=0.0)


# The two-pass decomposition that the one-pass one replaced, kept as its
# reference: b1 from the real samples of a, transformed again, the residual
# from the spectra of b2, and the CLI's error from reconstruct().
def _two_pass_minus_div(a, d):
    n = len(d)
    tot = [0.0] * n
    for i in range(n):
        for l in range(i + 1, n):
            ah = np.fft.rfftn(a[..., i, l], axes=tuple(range(n)))
            tot[i] = tot[i] - d[l] * ah
            tot[l] = tot[l] + d[i] * ah
    return np.stack([np.fft.irfftn(t, s=a.shape[:n], axes=tuple(range(n))) for t in tot], axis=-1)


def _two_pass_hodge(b):
    """(a, b2, residual, reconstruction_error) by the two-pass formulas."""
    g = b.grid
    d, k2, nyq = _wavenumbers(g)
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    w = _half_weights(g.shape[-1])
    n, axes = g.n, tuple(range(g.n))
    a = np.zeros((g.nt,) + tuple(g.shape) + (n, n))
    b1 = np.zeros_like(b.samples)
    denom = 0.0
    for j in range(g.nt):
        bh = [np.fft.rfftn(b.samples[j, ..., c], axes=axes) for c in range(n)]
        for c in range(n):
            denom += (w * np.abs(bh[c]) ** 2).sum()
        for i in range(n):
            for l in range(i + 1, n):
                arr = np.fft.irfftn(-(d[i] * bh[l] - d[l] * bh[i]) * inv, s=g.shape, axes=axes)
                a[j, ..., i, l] = arr
                a[j, ..., l, i] = -arr
        b1[j] = _two_pass_minus_div(a[j], d)
    rem = b.samples - b1
    leak = 0.0
    for j in range(g.nt):
        rh = [np.fft.rfftn(rem[j, ..., c], axes=axes) for c in range(n)]
        div = sum(d[c] * rh[c] for c in range(n))
        top = sum(nyq[c] * rh[c] for c in range(n))
        sol2 = sum(np.abs(r) ** 2 for r in rh) + 3.0 * (np.abs(div) ** 2 + np.abs(top) ** 2) * inv
        sol2[(0,) * n] = 0.0
        leak += float((w * sol2).sum())
    res = 0.0 if denom == 0 else float(np.sqrt(leak / denom))
    recon = np.array(rem)
    for j in range(g.nt):
        recon[j] += _two_pass_minus_div(a[j], d)
    err = np.abs(recon - b.samples).max() / max(np.abs(b.samples).max(), 1e-300)
    return a, rem, res, err


@pytest.mark.parametrize("shape,nt", [((16, 16), 1), ((15, 17), 3), ((12, 9), 2),
                                      ((8, 6, 7), 2), ((7, 9, 5), 3), ((6, 6, 6), 1)],
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"nt{v}")
@pytest.mark.parametrize("kind", ["random", "gradient_plus_solenoidal"])
def test_hodge_one_pass_matches_two_pass(shape, nt, kind):
    """b1's spectrum taken from a's, not from a's samples, leaves a bit-identical,
    moves b2 and the residual by round-off only, and gives the CLI's error."""
    n = len(shape)
    g = Grid(n, (-1.0,) * n, (1.5,) * n, shape, 0.0, 0.5, nt)
    rng = np.random.default_rng(3 * sum(shape) + nt)
    if kind == "random":
        b = SpaceTimeField(g, rng.standard_normal((nt,) + shape + (n,)), n)
    else:
        b = _gradient_plus_solenoidal(g, rng)
    a, b2, res, err = _two_pass_hodge(b)
    dec = hodge_decompose(b)
    scale = np.abs(b.samples).max()
    assert np.array_equal(dec.a, a)
    assert np.abs(dec.b2.samples - b2).max() <= 1e-15 * scale
    assert abs(dec.residual - res) <= max(1e-12 * res, 1e-15)
    assert dec.reconstruction_error <= 1e-15 and err <= 1e-15
    assert not hasattr(dec, "b1")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
def test_hodge_residual_of_a_gradient_is_round_off():
    # b = grad(sin x cos 2y) has no solenoidal part, so b2 = b; the residual
    # measures rh + K(K·rh)/|K|², not the solenoidal part, and reads 2.0
    g = _pgrid(64)
    X, Y = g.meshgrid()
    b = np.stack([np.cos(X) * np.cos(2 * Y), -2.0 * np.sin(X) * np.sin(2 * Y)], axis=-1)[None]
    dec = hodge_decompose(SpaceTimeField(g, b, 2))
    assert np.abs(dec.b2.samples - b).max() <= 1e-14
    assert dec.residual <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hodge_and_hminus1_refuse_nonfinite_samples(bad):
    g = _pgrid(16, nt=2)
    b = np.ones((2, 16, 16, 2))
    b[1, 3, 5, 0] = bad
    f = SpaceTimeField(g, b, 2, allow_nonfinite=True)
    msg = rf"non-finite sample \({bad}\) at index \(1, 3, 5, 0\)"
    with pytest.raises(ValueError, match="the drift has a " + msg):
        hodge_decompose(f)
    with pytest.raises(ValueError, match="the field has a " + msg):
        hminus1_proxy(f)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hodge_and_hminus1_name_a_drawn_non_finite_index(data):
    g = _pgrid(8, nt=2)
    b = np.ones((2, 8, 8, 2))
    idx = tuple(data.draw(st.integers(0, s - 1), label="index") for s in b.shape)
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="bad")
    b[idx] = bad
    f = SpaceTimeField(g, b, 2, allow_nonfinite=True)
    msg = re.escape(f"non-finite sample ({bad}) at index {idx}")
    with pytest.raises(ValueError, match="the drift has a " + msg):
        hodge_decompose(f)
    with pytest.raises(ValueError, match="the field has a " + msg):
        hminus1_proxy(f)


@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("n", [2, 3])
def test_samplers_bit_equal_to_per_slice_loop(n, bc):
    """The four samplers fill their slices exactly as a hand-written loop over
    the stored times does."""
    asm = assemble_borderline(2, n=n, scale0=0.3, travel=1.0, end_time=0.95,
                              x_start=(-0.5,) + (0.0,) * (n - 1))
    g = Grid(n, (-2.0,) * n, (2.0,) * n, (12,) * n, asm.blocks[0].t0, asm.blocks[-1].t1, 5, bc)
    X = g.meshgrid()
    pts = np.stack(X, axis=-1)
    b = asm.sample_drift(g)
    assert b.samples.tobytes() == np.stack(
        [curl(asm.potential(t, X), g) for t in g.times]).tobytes()
    assert asm.sample_subsolution(g).samples.tobytes() == np.stack(
        [asm.subsolution_at(t, pts) for t in g.times]).tobytes()

    # compact support, so the face velocities hold signed zeros outside it
    def bump(t, *X):
        return np.maximum(1.0 - sum(x * x for x in X), 0.0) ** 2 * np.sin(X[0] + t)

    if n == 2:
        pd = PotentialDrift(2, stream_fn=bump)
    else:
        pd = PotentialDrift(3, potential_fn=lambda t, *X: (
            bump(t, *X) * X[2], -bump(t, *X), bump(t, *X) * X[1]))
    want = np.zeros((g.nt,) + tuple(g.shape) + (n,))
    for j, t in enumerate(g.times):
        for a, f in enumerate(pd.face_velocities(g, t)):
            lo, hi = face_to_cell(f, a, bc)
            want[j, ..., a] = 0.5 * (lo + hi)
    assert pd.sample(g).samples.tobytes() == want.tobytes()

    fd = FieldDrift(b)
    assert fd.sample(g) is b
    g2 = g.with_times(g.t0, g.t1, 9)
    want = np.empty((g2.nt,) + b.samples.shape[1:])
    for j, t in enumerate(g2.times):
        pos = min(max((t - g.t0) / (g.t1 - g.t0) * (g.nt - 1), 0.0), g.nt - 1.0)
        j0 = int(np.floor(pos))
        w = pos - j0
        want[j] = b.samples[j0] * (1 - w) + b.samples[min(j0 + 1, g.nt - 1)] * w
    assert fd.sample(g2).samples.tobytes() == want.tobytes()


def cap_blocks(n, centers, windows):
    """A DriftAssembly of caps of scale 0.06 (cutoff radius 0.228) centered at
    the given points, each moving 0.02 along e1 in its time window."""
    return DriftAssembly([AssemblyBlock(t0, t1, 0.06, 1.0, 0.02, np.array(c, dtype=float), n)
                          for c, (t0, t1) in zip(centers, windows)], n, "block_rescaled")


# per case: the cap centres on [-1, 1]^n, the windows, and a time in them; the
# two-block cases use windows that overlap by the 1e-12 the assembly allows
CAP_CASES = {
    "interior": ([(-0.3, 0.2, 0.1)], [(0.0, 1.0)], 0.5),
    "seam or edge": ([(0.95, 0.1, 0.0)], [(0.0, 1.0)], 0.5),
    "corner": ([(-0.97, 0.96, -0.9)], [(0.0, 1.0)], 0.3),
    "two apart": ([(-0.5, 0.4, 0.0), (0.5, -0.3, 0.2)], [(0.0, 2e-12), (1e-12, 3e-12)], 1.5e-12),
    "two overlapping": ([(-0.1, 0.0, 0.0), (0.05, 0.1, 0.0)], [(0.0, 2e-12), (1e-12, 3e-12)],
                        1.5e-12),
    "none active": ([(-0.3, 0.2, 0.1)], [(0.0, 1.0)], 1.5),
}


@pytest.mark.parametrize("case", list(CAP_CASES))
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("n", [2, 3])
def test_box_sampled_drift_is_the_whole_grid_curl(n, bc, case):
    centers, windows, t = CAP_CASES[case]
    asm = cap_blocks(n, [c[:n] for c in centers], windows)
    g = Grid(n, (-1.0,) * n, (1.0,) * n, (32, 28) if n == 2 else (12, 14, 10), bc=bc)
    X = g.meshgrid()
    assert sum(b.active(t) for b in asm.blocks) == len(centers) * (case != "none active")
    got, want = asm.drift_function(g)(t, *X), curl(asm.potential(t, X), g)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # the signs of zero too
    # the cap reaches across the seam of a periodic grid and to the edge of a zero one
    if case == "seam or edge":
        assert np.any(got[0] != 0) == (bc == "periodic") and np.any(got[-1] != 0)
