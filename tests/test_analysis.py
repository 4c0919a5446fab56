import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import analysis
from driftlab.analysis import (
    Cylinder,
    FundSolBoundParams,
    davies_energy,
    davies_probe,
    drift_free_params,
    fbc_tilde_test,
    fundsol_params,
    harnack_quotient,
    local_boundedness_quotient,
    moser_trace,
    subsolution_residual,
    tail_check,
)
from driftlab.drifts import (
    build_elliptic,
    heat_kernel,
    heat_subsolution,
    hodge_decompose,
    subsolution_level,
    subsolution_radius,
)
from driftlab.fields import Grid, SpaceTimeField
from driftlab.norms import FbcParams, MixedNormSpec
from driftlab.solver import SolverConfig, fundamental_solution, gaussian_blob, solve


def evolved_gaussian(grid, sigma2):
    X = grid.meshgrid()
    r2 = sum(x**2 for x in X)
    return (2 * np.pi * sigma2) ** (-grid.n / 2) * np.exp(-r2 / (2 * sigma2))


# ---------------------------------------------------------------------------
# parameters


def test_fundsol_params():
    spec = MixedNormSpec("time_outer", 2, p=4.0, q=4.0)  # zeta0 = 1.0
    par = fundsol_params(spec, 0.0)
    assert par.alpha0 == 0.0
    assert par.M0 == pytest.approx(0.25)
    spec = MixedNormSpec("time_outer", 2, p=2.0, q=4.0)  # zeta0 = 1.5
    par = fundsol_params(spec, 1.0)
    assert par.theta2 == pytest.approx(0.25)
    assert par.alpha0 == pytest.approx(0.5 / 0.25)
    with pytest.raises(ValueError):
        fundsol_params(MixedNormSpec("time_outer", 2, p=1.0, q=1.0), 1.0)
    with pytest.raises(ValueError):
        FundSolBoundParams(-1.0, 1.0, 1.0, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["alpha0", "M0", "C0"])
def test_fundsol_params_refuse_a_non_finite_constant(name, bad):
    # M0 = nan passed M0 <= 0 and made every C(c) of tail_check NaN
    consts = dict(alpha0=0.5, M0=1.0, C0=1.0, theta2=0.5) | {name: bad}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {bad}")):
        FundSolBoundParams(**consts)


# ---------------------------------------------------------------------------
# residuals


def test_residual_heat_kernel():
    errs = []
    for N, nt in ((64, 9), (128, 17)):
        g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (N, N), 0.1, 0.2, nt, "periodic")
        th = np.stack([evolved_gaussian(g, 2.0 * t) for t in g.times])
        rep = subsolution_residual(SpaceTimeField(g, th))
        errs.append(np.abs(rep.residual.samples[rep.checked]).max())
    assert errs[1] < 0.05
    assert errs[0] / errs[1] > 3.0  # O(h^2 + dt^2)


def test_residual_subsolution_kink_exclusion():
    n = 2
    g = Grid(2, (-2.5, -2.5), (2.5, 2.5), (160, 160), 0.2, 0.4, 9, "zero")
    X = np.stack(g.meshgrid(), axis=-1)
    th = np.stack([heat_subsolution(X, t, n)[0] for t in g.times])
    r = np.sqrt((X**2).sum(axis=-1))
    kink = np.stack([np.abs(r - subsolution_radius(t, n)) < 3 * g.h[0]
                     for t in g.times])
    rep = subsolution_residual(SpaceTimeField(g, th), exclude=kink)
    scale = np.abs(rep.residual.samples[rep.checked]).max()
    # one-sided: no violation beyond discretization noise
    assert rep.max_residual <= 1e-2 * max(scale, 1.0)


def test_residual_elliptic_steady():
    ex = build_elliptic(n=3)
    R0 = ex.R0
    g = Grid(3, (-R0, -R0, 0.0), (R0, R0, 1.0), (48, 48, 24), 0.0, 0.1, 3, "zero")
    b, lower, _ = ex.slab_fields(g)
    X, Y, Z = g.meshgrid()
    r = np.sqrt(X**2 + Y**2)
    # exclude the mollification core where the grid cannot resolve curvature
    core = np.broadcast_to(r < 2.5 * ex.eps, (g.nt,) + tuple(g.shape))
    rep = subsolution_residual(lower, b, exclude=core)
    expected = (1.0 - Z) * ex.interp_V(r) * ex.interp_u(r)
    scale = np.abs(expected).max()
    assert rep.max_residual <= 0.05 * scale
    # and the residual really tracks (1 - z) V u where checked
    got = rep.residual.samples[1][rep.checked[1]]
    want = expected[rep.checked[1]]
    assert np.median(np.abs(got - want)) < 0.05 * scale


def test_residual_nan_drift_refused_where_checked_only():
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (32, 32), 0.1, 0.2, 5, "periodic")
    th = SpaceTimeField(g, np.stack([evolved_gaussian(g, 2.0 * t) for t in g.times]))
    b = np.zeros(th.samples.shape + (2,))
    want = subsolution_residual(th, SpaceTimeField(g, b, 2)).max_residual
    # the first and last stored times and the three-cell frame are not checked
    for idx, checked in (((2, 16, 16, 1), True), ((0, 16, 16, 0), False),
                         ((3, 31, 5, 0), False)):
        b2 = b.copy()
        b2[idx] = np.nan
        drift = SpaceTimeField(g, b2, 2, allow_nonfinite=True)
        if checked:
            with pytest.raises(ValueError, match=re.escape(
                    f"b has a non-finite sample (nan) at index {idx}")):
                subsolution_residual(th, drift)
        else:
            assert subsolution_residual(th, drift).max_residual == want
    # θ enters every stencil, so a NaN anywhere in it is refused
    samples = th.samples.copy()
    samples[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        subsolution_residual(SpaceTimeField(g, samples, allow_nonfinite=True))


@pytest.mark.parametrize("idx,value", [((0, 0, 0), np.nan), ((2, 16, 7), -np.inf)])
def test_residual_nonfinite_theta_named(idx, value):
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (32, 32), 0.1, 0.2, 5, "periodic")
    samples = np.stack([evolved_gaussian(g, 2.0 * t) for t in g.times])
    samples[idx] = value
    th = SpaceTimeField(g, samples, allow_nonfinite=True)
    with pytest.raises(ValueError, match=re.escape(
            f"theta has a non-finite sample ({value}) at index {idx}")):
        subsolution_residual(th)


def test_residual_grid_mismatch():
    g = Grid(2, (-1, -1), (1, 1), (32, 32), 0.0, 0.1, 3, "periodic")
    g2 = Grid(2, (-1, -1), (1, 1), (16, 16), 0.0, 0.1, 3, "periodic")
    th = SpaceTimeField(g, np.zeros((3, 32, 32)))
    b = SpaceTimeField(g2, np.zeros((3, 16, 16, 2)), 2)
    with pytest.raises(ValueError):
        subsolution_residual(th, b)


# ---------------------------------------------------------------------------
# quotients


def test_local_boundedness_constant():
    g = Grid(2, (-1, -1), (1, 1), (128, 128), 0.0, 1.0, 21, "periodic")
    th = SpaceTimeField(g, np.ones((21, 128, 128)))
    inner = Cylinder((0.0, 0.0), 0.3, 0.4, 0.8)
    outer = Cylinder((0.0, 0.0), 0.6, 0.2, 1.0)
    got = local_boundedness_quotient(th, inner, outer, gamma=1.0)
    measure = np.pi * 0.6**2 * 0.8 - np.pi * 0.3**2 * 0.4
    assert got == pytest.approx(1.0 / measure, rel=0.03)


def test_quotient_scale_invariance():
    rng = np.random.default_rng(3)
    g = Grid(2, (-1, -1), (1, 1), (64, 64), 0.0, 1.0, 9, "periodic")
    th = SpaceTimeField(g, rng.uniform(0.1, 2.0, (9, 64, 64)))
    inner = Cylinder((0.0, 0.0), 0.3, 0.4, 0.8)
    outer = Cylinder((0.0, 0.0), 0.6, 0.2, 1.0)
    for gamma in (0.7, 1.0, 2.0):
        q1 = local_boundedness_quotient(th, inner, outer, gamma)
        c = 3.7
        th2 = SpaceTimeField(g, c * th.samples)
        q2 = local_boundedness_quotient(th2, inner, outer, gamma)
        assert q2 == pytest.approx(q1 / c ** (1.0 - 1.0), rel=1e-12)
        assert q2 == pytest.approx(q1, rel=1e-12)
    with pytest.raises(ValueError):
        local_boundedness_quotient(th, outer, inner, 1.0)


def test_harnack_basics():
    g = Grid(2, (-1, -1), (1, 1), (64, 64), 0.0, 1.0, 11, "periodic")
    ones = SpaceTimeField(g, np.ones((11, 64, 64)))
    rep = harnack_quotient(ones, (0, 0), 0.5, (0.0, 0.3), (0.6, 1.0))
    assert rep.value == pytest.approx(1.0, rel=1e-9)
    rng = np.random.default_rng(8)
    th = SpaceTimeField(g, rng.uniform(0.5, 2.0, (11, 64, 64)))
    r1 = harnack_quotient(th, (0, 0), 0.5, (0.0, 0.3), (0.6, 1.0))
    r2 = harnack_quotient(SpaceTimeField(g, 5.0 * th.samples), (0, 0), 0.5,
                          (0.0, 0.3), (0.6, 1.0))
    assert r2.value == pytest.approx(r1.value, rel=1e-9)
    with pytest.raises(ValueError):
        harnack_quotient(th, (0, 0), 0.5, (0.0, 0.7), (0.6, 1.0))


# ---------------------------------------------------------------------------
# Moser trace


FBC = FbcParams(M=1.0, N=0.25, alpha=2.0, delta=1.0, epsilon=0.25, theta2=0.5)


def test_moser_constant_field():
    g = Grid(2, (-1, -1), (1, 1), (96, 96), 0.0, 1.0, 11, "periodic")
    th = SpaceTimeField(g, np.full((11, 96, 96), 1.7))
    tr = moser_trace(th, (0, 0), 0.3, 0.8, 0.1, 0.5, 1.0, FBC)
    assert np.allclose(tr.Ms, 1.7**2, rtol=1e-12)
    assert np.all(np.diff(tr.betas) > 0)
    assert tr.chi == pytest.approx(2.0)


def test_moser_gaussian_blob():
    g = Grid(2, (-1, -1), (1, 1), (192, 192), 0.0, 1.0, 11, "periodic")
    X, Y = g.meshgrid()
    blob = np.exp(-(X**2 + Y**2) / (2 * 0.5**2))
    th = SpaceTimeField(g, np.broadcast_to(blob, (11, 192, 192)).copy())
    tr = moser_trace(th, (0, 0), 0.3, 0.8, 0.1, 0.5, 1.0, FBC)
    assert np.all(np.diff(tr.Ms) >= -1e-12)
    assert abs(tr.Ms[-1] - tr.sup_inner**2) / tr.sup_inner**2 < 0.1
    assert tr.sup_inner <= tr.predicted_sup
    with pytest.raises(ValueError):
        moser_trace(SpaceTimeField(g, th.samples - 2.0), (0, 0), 0.3, 0.8,
                    0.1, 0.5, 1.0, FBC)


# ---------------------------------------------------------------------------
# Davies energy


def drift_free_run(t1=0.2, N=96, nt=6, width=0.25):
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (N, N), 0.0, t1, nt, "periodic")
    theta0 = gaussian_blob(g, (0.0, 0.0), width, normalize=False)
    return solve(theta0, None, g, SolverConfig(dt=2e-3))


def test_davies_probe_invariants():
    probe = davies_probe(None, (1.2, 0.0), 0.8)
    assert probe.psi(0.0) == 0.0
    assert probe.psi(0.5) == 0.0
    assert probe.psi_at_x0 >= 0.8 * 1.2 / 4.0
    slopes = np.diff(probe.psi_knots) / np.diff(probe.r_knots)
    assert slopes.max() <= 0.8 * (1 + 1e-9)
    # constant beyond |x0|
    assert probe.psi(5.0) == probe.psi_at_x0


def test_davies_gamma_zero_decay():
    run = drift_free_run()
    probe = davies_probe(None, (1.2, 0.0), 0.0)
    rep = davies_energy(run, probe)
    assert np.all(np.diff(rep.J) <= 1e-12 * rep.J[0])


def test_davies_drift_free_fit():
    run = drift_free_run()
    probe = davies_probe(None, (1.2, 0.0), 1.0)
    rep = davies_energy(run, probe)
    assert rep.bound_ok
    assert rep.C_fit <= 4.0


def test_davies_hodge_reconstruction_fidelity():
    N = 64
    g = Grid(2, (-np.pi, -np.pi), (np.pi, np.pi), (N, N), 0.0, 0.1, 4, "periodic")
    X, Y = g.meshgrid()
    psi = 0.4 * np.sin(X) * np.cos(2 * Y) + 0.2 * np.cos(2 * X) * np.sin(Y)
    h = g.h[0]
    b = np.zeros((g.nt, N, N, 2))
    b[..., 0] = -(np.roll(psi, -1, 1) - np.roll(psi, 1, 1)) / (2 * h)
    b[..., 1] = (np.roll(psi, -1, 0) - np.roll(psi, 1, 0)) / (2 * h)
    bf = SpaceTimeField(g, b, 2)
    theta0 = gaussian_blob(g, (0.0, 0.0), 0.4, normalize=False)
    cfg = SolverConfig(dt=1e-3)
    run1 = solve(theta0, bf, g, cfg)
    recon = hodge_decompose(bf).reconstruct()
    run2 = solve(theta0, recon, g, cfg)
    probe = davies_probe(bf, (1.5, 0.0), 0.7)
    J1 = davies_energy(run1, probe).J
    J2 = davies_energy(run2, probe).J
    assert np.abs(J1 - J2).max() / J1.max() < 1e-6


# ---------------------------------------------------------------------------
# tail check


def test_tail_drift_free():
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (128, 128), 0.0, 0.1, 6, "periodic")
    run = fundamental_solution((0.0, 0.0), 0.0, None, g, SolverConfig(dt=5e-4))
    rep = tail_check(run, drift_free_params(), (0.0, 0.0), 0.0)
    assert rep.c >= 0.2
    assert rep.gauss_active.all()
    assert (rep.margins >= 1.0 - 1e-9).all()


def test_tail_rescaling_invariance():
    fits = []
    for lam in (1.0, 2.0):
        g = Grid(2, (-2.0 * lam,) * 2, (2.0 * lam,) * 2, (128, 128),
                 0.0, 0.1 * lam**2, 6, "periodic")
        run = fundamental_solution((0.0, 0.0), 0.0, None, g,
                                   SolverConfig(dt=5e-4 * lam**2))
        fits.append(tail_check(run, drift_free_params(), (0.0, 0.0), 0.0))
    assert abs(fits[0].c - fits[1].c) / fits[0].c < 0.05
    assert abs(fits[0].C - fits[1].C) / fits[0].C < 0.05


def _tail_check_per_rate(run, params, source, s):
    """tail_check as it was before its powers were hoisted out of the sweep:
    every power of r and τ taken again at each of the 60 rates."""
    from driftlab.analysis import TailReport, _trajectory
    from driftlab.fields import _sq_distance

    def shape_at(r, tau, c):
        p0 = 1.0 + 1.0 / (1.0 + params.alpha0)
        gauss = np.exp(-c * r**2 / tau)
        stretched = np.exp(-c * r**p0 / (tau * params.M0) ** (1.0 / (1.0 + params.alpha0)))
        return tau ** (-g.n / 2.0) * (gauss + stretched), gauss >= stretched

    field = _trajectory(run)
    g = field.grid
    tau_min = 40.0 * min(g.h) ** 2
    rmax = 0.4 * min(g.hi[i] - g.lo[i] for i in range(g.n))
    r = np.sqrt(_sq_distance(g.meshgrid(), np.asarray(source, dtype=float)))
    taus = g.times - s
    sel_t = taus >= tau_min
    sel = field.samples[sel_t]
    m = (r <= rmax) & (sel > 1e-10 * sel.max())
    rs = np.broadcast_to(r, sel.shape)[m]
    ts = np.broadcast_to(taus[sel_t].reshape((-1,) + (1,) * g.n), sel.shape)[m]
    vals = sel[m]
    c_sweep = np.geomspace(1e-3, 1.0, 60)
    Cs = np.array([(vals / shape_at(rs, ts, c)[0]).max() for c in c_sweep])
    i_star = np.where(Cs <= 4.0 * Cs.min())[0].max()
    shape, gauss = shape_at(rs, ts, c_sweep[i_star])
    margins = Cs[i_star] * shape / np.maximum(vals, 1e-300)
    if params.alpha0 > 0:
        outer = params.M0 ** (1.0 / params.alpha0) * rs / ts >= 16.0
    else:
        outer = rs >= 16.0 * np.sqrt(ts)
    return TailReport(float(Cs[i_star]), float(c_sweep[i_star]), rs, ts, vals, gauss,
                      outer, margins)


@pytest.mark.parametrize("params", [drift_free_params(), FundSolBoundParams(0.7, 2.5, 1.0, 0.5)],
                         ids=["drift-free", "alpha0-0.7"])
def test_tail_check_bit_equal_to_per_rate_loop(params):
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (64, 64), 0.0, 0.4, 5, "periodic")
    run = fundamental_solution((0.1, -0.2), 0.0, None, g, SolverConfig(dt=4e-3))
    rep = tail_check(run, params, (0.1, -0.2), 0.0)
    ref = _tail_check_per_rate(run, params, (0.1, -0.2), 0.0)
    for f in dataclasses.fields(rep):
        assert np.array_equal(getattr(rep, f.name), getattr(ref, f.name)), f.name


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tail_check_bisection_equals_the_rate_scan(data):
    # analytic heat kernels from a random source, one on a cell center (so one
    # sample has r = 0) or within 1e-9 of one, at random stored times
    g0 = Grid(2, (-1.0, -1.0), (1.0, 1.0), (64, 64), 0.0, 1.0, 2, "periodic")
    where = data.draw(st.sampled_from(["random", "center", "near-center"]), label="source")
    if where == "random":
        source = np.array(data.draw(st.tuples(*[st.floats(-0.3, 0.3)] * 2), label="at"))
    else:
        cell = data.draw(st.tuples(*[st.integers(22, 41)] * 2), label="cell")
        source = np.array([g0.axis(i)[c] for i, c in enumerate(cell)])
        if where == "near-center":
            source += data.draw(st.tuples(*[st.floats(-1e-9, 1e-9)] * 2), label="offset")
    t1 = data.draw(st.floats(0.05, 0.3), label="t1")
    t0 = data.draw(st.floats(0.005, t1), label="t0")
    nt = 1 if t0 == t1 else data.draw(st.integers(2, 8), label="nt")
    g = Grid(2, g0.lo, g0.hi, g0.shape, t0, t1, nt, "periodic")
    pts = np.stack(g.meshgrid(), axis=-1) - source
    run = SpaceTimeField(g, np.stack([heat_kernel(pts, t, 2) for t in g.times]))
    params = data.draw(st.sampled_from([drift_free_params(), None]), label="params") or \
        FundSolBoundParams(data.draw(st.floats(0.05, 2.0), label="alpha0"),
                           data.draw(st.floats(0.25, 5.0), label="M0"), 1.0, 0.5)
    rep = tail_check(run, params, source, 0.0)
    ref = _tail_check_per_rate(run, params, source, 0.0)
    for f in dataclasses.fields(rep):
        assert np.array_equal(getattr(rep, f.name), getattr(ref, f.name)), f.name


def _stand_in_tail_shape(rates, last):
    """A `_tail_shape` stand-in whose C(c) is C(10⁻³) at the first rate, exactly
    4 times that up to rates[last], and 8 times it beyond."""
    def tail_shape(r, tau, params, n):
        def shape(c):
            i = int(np.flatnonzero(rates == c)[0])
            return np.full(r.shape, 1.0 if i == 0 else 0.25 if i <= last else 0.125), \
                np.ones(r.shape, bool)
        return shape
    return tail_shape


def test_tail_check_ends_the_fit_at_every_rate(monkeypatch):
    # wherever the admissible prefix ends, the bisection finds that end, a C
    # of exactly 4 times the best included
    rates = np.geomspace(1e-3, 1.0, 60)
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (32, 32), 0.05, 0.2, 3, "periodic")
    pts = np.stack(g.meshgrid(), axis=-1)
    run = SpaceTimeField(g, np.stack([heat_kernel(pts, t, 2) for t in g.times]))
    for last in range(len(rates)):
        monkeypatch.setattr(analysis, "_tail_shape", _stand_in_tail_shape(rates, last))
        rep = tail_check(run, drift_free_params(), (0.0, 0.0), 0.0)
        assert rep.c == rates[last]
        assert rep.C == (4.0 if last else 1.0) * rep.values.max()


def test_tail_resolution_floor():
    g = Grid(2, (-2.0, -2.0), (2.0, 2.0), (64, 64), 0.0, 0.001, 3, "periodic")
    run = fundamental_solution((0.0, 0.0), 0.0, None, g, SolverConfig(dt=2e-4))
    with pytest.raises(ValueError):
        tail_check(run, drift_free_params(), (0.0, 0.0), 0.0)


# ---------------------------------------------------------------------------
# FBC-tilde


def test_fbc_tilde_zero_and_tangential():
    g = Grid(2, (-1.5, -1.5), (1.5, 1.5), (96, 96), 0.0, 0.5, 5, "zero")
    X, Y = g.meshgrid()
    u = SpaceTimeField(
        g, np.broadcast_to(np.exp(-(X**2 + Y**2)), (5, 96, 96)).copy())
    par = drift_free_params()
    zero = SpaceTimeField(g, np.zeros((5, 96, 96, 2)), 2)
    rep = fbc_tilde_test(zero, u, par, (0.0, 0.0), 1.0, 0.0, 0.5)
    assert rep.satisfied and rep.lhs == 0.0
    rot = np.zeros((5, 96, 96, 2))
    rot[..., 0] = -Y
    rot[..., 1] = X
    rep = fbc_tilde_test(SpaceTimeField(g, rot, 2), u, par, (0.0, 0.0), 1.0,
                         0.0, 0.5)
    assert abs(rep.lhs) < 1e-6
    assert rep.satisfied


def test_fbc_tilde_random_ensemble():
    rng = np.random.default_rng(17)
    g = Grid(2, (-1.5, -1.5), (1.5, 1.5), (96, 96), 0.0, 0.5, 5, "zero")
    X, Y = g.meshgrid()
    spec = MixedNormSpec("time_outer", 2, p=3.0, q=3.0)  # zeta0 = 4/3
    for _ in range(5):
        b = np.zeros((5, 96, 96, 2))
        for c in range(2):
            b[..., c] = rng.standard_normal() * np.exp(
                -((X - rng.uniform(-0.3, 0.3)) ** 2 + Y**2) / 0.5)
        bf = SpaceTimeField(g, b, 2)
        mag = np.sqrt((b**2).sum(axis=-1))
        bn = ((mag**3).sum(axis=(1, 2)) * g.cell_volume)  # L3 in x
        b_norm = float(((bn) * (0.5 / 4)).sum() ** (1 / 3.0))
        par = fundsol_params(spec, b_norm)
        u = SpaceTimeField(
            g, np.abs(rng.standard_normal((5, 96, 96))) * np.exp(-(X**2 + Y**2)))
        rep = fbc_tilde_test(bf, u, par, (0.0, 0.0), 1.0, 0.0, 0.5)
        assert rep.satisfied


@pytest.mark.parametrize("ndim", [2, 3, 4])
def test_dilate_matches_ndimage(ndim):
    ndimage = pytest.importorskip("scipy.ndimage")

    from driftlab.analysis import _dilate
    rng = np.random.default_rng(ndim)
    for _ in range(20):
        shape = tuple(rng.integers(1, 9, size=ndim))
        mask = rng.random(shape) < rng.choice([0.02, 0.1, 0.4])
        assert np.array_equal(_dilate(mask), ndimage.binary_dilation(mask, iterations=2))
    # a read-only broadcast mask, as a steady kink set over all stored times
    mask = np.broadcast_to(rng.random((1, 9, 7)) < 0.1, (4, 9, 7))
    assert np.array_equal(_dilate(mask), ndimage.binary_dilation(mask, iterations=2))


# ---------------------------------------------------------------------------
# non-finite trajectories


# Each diagnostic on a heat-kernel trajectory Γ(x, t), t in [0.01, 0.15], 64²
# cells on [-1, 1]².  One bad sample must be refused by name, not turned into a
# NaN, an inf, a -0.0 or numpy's zero-size reduction error.
TRAJECTORY_DIAGNOSTICS = {
    "tail_check": lambda th: tail_check(th, drift_free_params(), (0.0, 0.0), 0.0),
    "moser_trace": lambda th: moser_trace(th, (0.0, 0.0), 0.4, 0.8, 0.01, 0.05, 0.15, FBC),
    "davies_energy": lambda th: davies_energy(th, davies_probe(None, (0.6, 0.3), 1.0),
                                              drift_free_params()),
    "local_boundedness_quotient": lambda th: local_boundedness_quotient(
        th, Cylinder((0.0, 0.0), 0.3, 0.05, 0.1), Cylinder((0.0, 0.0), 0.6, 0.01, 0.15)),
    "harnack_quotient": lambda th: harnack_quotient(th, (0.0, 0.0), 0.5, (0.01, 0.05),
                                                    (0.08, 0.15)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(TRAJECTORY_DIAGNOSTICS))
@settings(max_examples=10, deadline=None)
@given(idx=st.tuples(st.integers(0, 7), st.integers(0, 63), st.integers(0, 63)))
def test_trajectory_diagnostics_refuse_a_non_finite_sample(name, bad, idx):
    g = Grid(2, (-1.0, -1.0), (1.0, 1.0), (64, 64), 0.01, 0.15, 8, "periodic")
    pts = np.stack(g.meshgrid(), axis=-1)
    samples = np.stack([heat_kernel(pts, t, 2) for t in g.times])
    samples[idx] = bad
    th = SpaceTimeField(g, samples, allow_nonfinite=True)
    with pytest.raises(ValueError, match=re.escape(
            f"theta has a non-finite sample ({bad}) at index {idx}")):
        TRAJECTORY_DIAGNOSTICS[name](th)
