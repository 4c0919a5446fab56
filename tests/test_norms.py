import copy
import gc
import math
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import norms
from driftlab.analysis import drift_free_params, fbc_tilde_test
from driftlab.fields import (Grid, SpaceTimeField, _component_sum, _sq_distance, gradient,
                             shell_restrict, sphere_points)
from driftlab.norms import (
    Annulus,
    Box,
    FbcParams,
    MixedNormSpec,
    _time_selection,
    ball,
    criticality_index,
    fbc_params_radial,
    fbc_params_sliced,
    fbc_test,
    good_slices,
    mixed_norm,
)

INF = np.inf


def grid2(N=96, nt=9, L=1.2, bc="zero", t1=1.0):
    return Grid(2, (-L, -L), (L, L), (N, N), 0.0, t1, nt, bc)


def const_field(g, c=1.0):
    return SpaceTimeField(g, np.full((g.nt,) + tuple(g.shape), float(c)))


def smooth_random_scalar(g, rng, modes=3):
    X = g.meshgrid()
    out = np.zeros((g.nt,) + tuple(g.shape))
    for _ in range(modes):
        k = rng.integers(1, 4, size=g.n)
        ph = rng.uniform(0, 2 * np.pi, size=g.n + 1)
        sp = np.ones(g.shape)
        for i in range(g.n):
            sp = sp * np.sin(k[i] * X[i] + ph[i])
        for j, t in enumerate(g.times):
            out[j] += np.cos(t + ph[-1]) * sp
    return SpaceTimeField(g, out)


def smooth_random_vector(g, rng, modes=3):
    comps = [smooth_random_scalar(g, rng, modes).samples for _ in range(g.n)]
    return SpaceTimeField(g, np.stack(comps, axis=-1), g.n)


# ---------------------------------------------------------------- mixed_norm


def test_constant_on_ball():
    g = grid2(128, nt=5)
    f = const_field(g)
    for p, q in ((2.0, 3.0), (1.0, INF), (INF, 2.0)):
        spec = MixedNormSpec("time_outer", 2, p=p, q=q)
        val = mixed_norm(f, spec, ball((0, 0), 1.0, 0.0, 1.0))
        vol = np.pi if not np.isinf(p) else 1.0
        want = vol ** (1.0 / p) if not np.isinf(p) else 1.0
        # then L^q of a constant over unit time interval is the constant
        assert val == pytest.approx(want, rel=0.02)


def test_time_singular_profile():
    # f = t^(-1/2), constant in x: L^1_t L^inf_x over [a, 1] is 2(1 - sqrt(a))
    a = 0.01
    g = Grid(2, (-1.2, -1.2), (1.2, 1.2), (32, 32), a, 1.0, 1601)
    t = g.times
    f = SpaceTimeField(g, np.broadcast_to((t**-0.5)[:, None, None], (g.nt, 32, 32)).copy())
    spec = MixedNormSpec("time_outer", 2, p=INF, q=1.0)
    val = mixed_norm(f, spec, ball((0, 0), 1.0, a, 1.0))
    assert val == pytest.approx(2.0 * (1.0 - np.sqrt(a)), rel=2e-3)


def test_homogeneity_and_monotonicity():
    rng = np.random.default_rng(3)
    g = grid2(48, nt=5)
    f = smooth_random_scalar(g, rng)
    reg = ball((0, 0), 1.0, 0.0, 1.0)
    for spec in (
        MixedNormSpec("time_outer", 2, p=3, q=2),
        MixedNormSpec("space_outer", 2, p=2, q=4),
        MixedNormSpec("sliced_tr", 2, q=2, beta=3, gamma=4),
        MixedNormSpec("sliced_rt", 2, p=2, q=3, kappa=0.5),
    ):
        region = reg if spec.order in ("time_outer", "space_outer") else \
            Annulus((0, 0), 0.3, 0.9, 0.0, 1.0)
        v = mixed_norm(f, spec, region)
        v3 = mixed_norm(SpaceTimeField(g, -3.0 * f.samples), spec, region)
        assert v3 == pytest.approx(3.0 * v, rel=1e-12)
        bigger = SpaceTimeField(g, np.abs(f.samples) + 0.1)
        assert mixed_norm(bigger, spec, region) >= v


def test_fubini_case_orders_agree():
    rng = np.random.default_rng(4)
    g = grid2(48, nt=7)
    f = smooth_random_scalar(g, rng)
    reg = ball((0, 0), 1.0, 0.0, 1.0)
    for p in (1.0, 2.0, 3.5):
        a = mixed_norm(f, MixedNormSpec("time_outer", 2, p=p, q=p), reg)
        b = mixed_norm(f, MixedNormSpec("space_outer", 2, p=p, q=p), reg)
        assert a == pytest.approx(b, rel=1e-12)


def test_refinement_convergence():
    # smooth field: norm converges with observed order >= 1 in h
    sig, L = 0.4, 1.2
    truth = np.sqrt((sig * np.sqrt(np.pi) * math.erf(L / sig)) ** 2)
    errs = []
    for N in (16, 32, 64):
        g = grid2(N, nt=5, L=L)
        X, Y = g.meshgrid()
        arr = np.exp(-(X**2 + Y**2) / (2 * sig**2))
        f = SpaceTimeField(g, np.broadcast_to(arr, (g.nt, N, N)).copy())
        v = mixed_norm(f, MixedNormSpec("time_outer", 2, p=2, q=2),
                       Box((-L, -L), (L, L), 0.0, 1.0))
        errs.append(abs(v - truth))
    assert np.log2(errs[0] / errs[1]) > 1.0
    assert np.log2(errs[1] / errs[2]) > 1.0


NORM_REGIONS = [
    (MixedNormSpec("time_outer", 2, p=3, q=2), ball((0, 0), 1.0, 0.0, 1.0)),
    (MixedNormSpec("space_outer", 2, p=2, q=INF), ball((0, 0), 1.0, 0.0, 1.0)),
    (MixedNormSpec("sliced_tr", 2, q=2, beta=3, gamma=4), Annulus((0, 0), 0.3, 0.9, 0.0, 1.0)),
    (MixedNormSpec("sliced_rt", 2, p=2, q=3, kappa=0.5), Annulus((0, 0), 0.3, 0.9, 0.0, 1.0)),
]


@pytest.mark.parametrize("spec,region", NORM_REGIONS, ids=lambda v: getattr(v, "order", ""))
def test_nan_sample_refused_inside_region_only(spec, region):
    g = grid2(48, nt=5)
    clean = smooth_random_scalar(g, np.random.default_rng(8))
    want = mixed_norm(clean, spec, region)
    # cell (35, 24) sits at r = 0.58 in slice 2 (t = 0.5); cell (0, 0) at r = 1.6
    for idx, inside in (((2, 35, 24), True), ((0, 0, 0), False), ((4, 47, 47), False)):
        samples = clean.samples.copy()
        samples[idx] = np.nan
        f = SpaceTimeField(g, samples, allow_nonfinite=True)
        if inside:
            with pytest.raises(ValueError, match=re.escape(
                    f"f has a non-finite sample (nan) at index {idx}")):
                mixed_norm(f, spec, region)
        else:
            assert mixed_norm(f, spec, region) == want


def test_minkowski_containment_on_annuli():
    # for p <= q, the L^p_r L^q_t L^p_sigma norm is bounded by L^p_x L^q_t
    rng = np.random.default_rng(5)
    g = grid2(64, nt=5)
    region = Annulus((0, 0), 0.3, 0.9, 0.0, 1.0)
    for _ in range(20):
        f = smooth_random_scalar(g, rng, modes=2)
        p, q = sorted(rng.uniform(1.0, 4.0, size=2))
        lhs = mixed_norm(f, MixedNormSpec("sliced_rt", 2, p=p, q=q, kappa=p), region)
        rhs = mixed_norm(f, MixedNormSpec("space_outer", 2, p=p, q=q), region)
        assert lhs <= rhs * 1.05 + 1e-9


def test_scale_consistency():
    # b -> lambda b(lambda x, lambda^2 t) multiplies the time_outer norm by
    # lambda^(1 - zeta0)
    lam = 2.0
    sig = 0.25
    spec = MixedNormSpec("time_outer", 2, p=3.0, q=2.0)

    def sample(gg, scale):
        X, Y = gg.meshgrid()
        out = np.empty((gg.nt,) + tuple(gg.shape))
        for j, t in enumerate(gg.times):
            out[j] = scale * np.exp(-((scale * X) ** 2 + (scale * Y) ** 2) / (2 * sig**2)) \
                * np.exp(-(scale**2) * t)
        return out

    g1 = Grid(2, (-1.5, -1.5), (1.5, 1.5), (192, 192), 0.0, 1.0, 33)
    f1 = SpaceTimeField(g1, sample(g1, 1.0))
    n1 = mixed_norm(f1, spec, ball((0, 0), 1.4, 0.0, 1.0))
    g2 = Grid(2, (-0.75, -0.75), (0.75, 0.75), (192, 192), 0.0, 0.25, 33)
    f2 = SpaceTimeField(g2, sample(g2, lam))
    n2 = mixed_norm(f2, spec, ball((0, 0), 0.7, 0.0, 0.25))
    z = spec.zeta0
    assert n2 / n1 == pytest.approx(lam ** (1.0 - z), rel=0.02)


# ------------------------------------------------------------- criticality


def test_criticality_examples():
    r = criticality_index(MixedNormSpec("time_outer", 3, p=3, q=INF))
    assert r.zeta0 == pytest.approx(1.0) and r.cls == "subcritical_or_critical"

    r = criticality_index(MixedNormSpec("time_outer", 3, p=INF, q=1.0))
    assert r.zeta0 == pytest.approx(2.0) and r.cls == "bounded_total_speed"

    r = criticality_index(MixedNormSpec("time_outer", 3, p=3, q=2))
    assert r.zeta0 == pytest.approx(2.0) and r.cls == "unbounded_line"

    r = criticality_index(MixedNormSpec("space_outer", 3, p=1.0, q=INF))
    assert r.zeta0 == pytest.approx(2.0) and r.cls == "dimension_reduced_fail"

    # open segment of the space_outer zeta0 = 2 line
    n = 3
    pm = 0.5 * ((n - 1) / 2 + (n + 2) / 2)  # strictly between the endpoints
    qm = 3.0 / (2.0 - (n - 1) / pm)
    r = criticality_index(MixedNormSpec("space_outer", n, p=pm, q=qm))
    assert r.zeta0 == pytest.approx(2.0) and r.cls == "unknown"


def test_spec_validation():
    with pytest.raises(ValueError):
        MixedNormSpec("diag", 2)
    with pytest.raises(ValueError):
        MixedNormSpec("time_outer", 2, p=0.5)
    MixedNormSpec("sliced_rt", 2, kappa=0.25)  # kappa < 1 is legal
    with pytest.raises(ValueError):
        MixedNormSpec("sliced_rt", 2, kappa=-1.0)
    for n in (1, 0):
        with pytest.raises(ValueError):
            MixedNormSpec("time_outer", n, p=3.0)


# -------------------------------------------------------------- good slices


def shear_drift(g, profile):
    X, Y = g.meshgrid()
    arr = np.zeros((g.nt,) + tuple(g.shape) + (2,))
    arr[..., 0] = profile(X, Y)
    return SpaceTimeField(g, arr, 2)


def test_good_slices_uniform():
    g = grid2(96, nt=3)
    b = shear_drift(g, lambda X, Y: np.ones_like(X))
    s = good_slices(b, (0, 0), 0.3, 0.9, 0.0, 1.0, q=2, p=2, kappa=1.0)
    assert s.mask.all()
    assert s.measure == pytest.approx(0.6, rel=1e-9)


def test_good_slices_concentrated():
    g = grid2(192, nt=3)
    X, Y = g.meshgrid()
    r = np.sqrt(X**2 + Y**2)
    spike = np.exp(-((r - 0.6) / 0.01) ** 2) * 50.0
    b = shear_drift(g, lambda X, Y: spike)
    s = good_slices(b, (0, 0), 0.3, 0.9, 0.0, 1.0, q=2, p=2, kappa=1.0)
    assert not s.mask.all()
    j = np.argmin(np.abs(s.radii - 0.6))
    assert not s.mask[j]
    assert s.measure >= 0.3 - 1e-12


def test_good_slices_measure_guarantee_random():
    rng = np.random.default_rng(6)
    g = grid2(64, nt=3)
    for _ in range(10):
        b = smooth_random_vector(g, rng, modes=2)
        kappa = rng.uniform(0.4, 3.0)
        s = good_slices(b, (0, 0), 0.3, 0.9, 0.0, 1.0, q=3, p=2, kappa=kappa)
        assert s.measure >= s.total / 2.0 - 1e-12


# ---------------------------------------------------------------- FBC test


def test_fbc_zero_and_tangential_drift():
    rng = np.random.default_rng(7)
    g = grid2(64, nt=5)
    u = smooth_random_scalar(g, rng)
    params = FbcParams(M=1.0, N=0.25, alpha=2.0, delta=1.0, epsilon=0.25, theta2=0.5)

    b0 = SpaceTimeField(g, np.zeros((g.nt,) + tuple(g.shape) + (2,)), 2)
    rep = fbc_test(b0, u, params, (0, 0), 0.3, 0.9, 0.0, 1.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.satisfied

    # rotational drift: b.n = 0 on every shell
    X, Y = g.meshgrid()
    rot = np.zeros((g.nt,) + tuple(g.shape) + (2,))
    rot[..., 0] = -Y
    rot[..., 1] = X
    rep = fbc_test(SpaceTimeField(g, rot, 2), u, params, (0, 0), 0.3, 0.9, 0.0, 1.0)
    assert abs(rep.lhs) < 1e-6
    assert rep.satisfied


def test_fbc_params_validation():
    with pytest.raises(ValueError):
        FbcParams(M=1, N=1, alpha=1, delta=1, epsilon=0.7, theta2=0.5)
    with pytest.raises(ValueError):
        FbcParams(M=1, N=1, alpha=1, delta=1.5, epsilon=0.1, theta2=0.5)
    spec = MixedNormSpec("sliced_tr", 3, q=4, beta=3, gamma=4)
    p = fbc_params_sliced(spec, b_norm=1.0, R0=1.0)
    assert p.delta == 1.0 and p.N == 0.25 and p.epsilon == 0.25
    assert p.alpha == pytest.approx(1.0 / p.theta2)
    spec2 = MixedNormSpec("sliced_rt", 3, p=2, q=4, kappa=2)
    p2 = fbc_params_radial(spec2, b_norm=1.0, R0=1.0)
    assert p2.delta == 0.5
    assert p2.alpha == pytest.approx((1.0 / 2 + 3.0 / 4) / p2.theta2)


def test_fbc_random_ensemble():
    # empirical check of the proven inequality with derived constants
    rng = np.random.default_rng(8)
    g = grid2(64, nt=5)
    spec = MixedNormSpec("sliced_rt", 2, p=2, q=3, kappa=2)
    region = Annulus((0, 0), 0.45, 0.9, 0.0, 1.0)
    for _ in range(5):
        b = smooth_random_vector(g, rng, modes=2)
        bn = mixed_norm(b, spec, region)
        params = fbc_params_radial(spec, bn, R0=0.9)
        for _ in range(5):
            u = smooth_random_scalar(g, rng, modes=2)
            rep = fbc_test(b, u, params, (0, 0), 0.45, 0.9, 0.0, 1.0,
                           slice_q=spec.q, slice_p=spec.p, kappa=spec.kappa)
            assert rep.satisfied, (rep.lhs, rep.rhs)


def _resampled_flux(b, u, center, slices, t0, t1):
    """Reference outward flux average: b and u both sampled afresh on the good
    radii, one radius at a time."""
    tidx, tw = _time_selection(u.grid, t0, t1)
    radii = slices.radii[slices.mask]
    shb, shu = shell_restrict(b, center, radii), shell_restrict(u, center, radii)
    total = 0.0
    for r, sb, w, su in zip(radii, shb.samples, shb.weights, shu.samples):
        bn = _component_sum(sb[tidx] * sphere_points(b.grid.n, r, len(w))[1])
        per_t = ((su[tidx] ** 2 / 2.0) * bn * w).sum(axis=-1)
        total += (per_t * tw).sum() * slices.dr
    return total / slices.measure


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_fbc_flux_matches_resampled_reference(n):
    # the flux term reuses b's good-slice shells; it must equal resampling b on
    # the good radii bit for bit, also when some slices are bad
    rng = np.random.default_rng(30 + n)
    N = 64 if n == 2 else 24
    g = Grid(n, (-1.2,) * n, (1.2,) * n, (N,) * n, 0.0, 1.0, 5, "zero")
    b = smooth_random_vector(g, rng, modes=2)
    r = np.sqrt(sum(x**2 for x in g.meshgrid()))
    b.samples[..., 0] += 50.0 * np.exp(-((r - 0.6) / 0.04) ** 2)
    u = smooth_random_scalar(g, rng, modes=2)
    center, rho, R, t0, t1 = (0.0,) * n, 0.45, 0.9, 0.25, 1.0

    params = FbcParams(M=1.0, N=0.25, alpha=2.0, delta=0.5, epsilon=0.25, theta2=0.5)
    rep = fbc_test(b, u, params, center, rho, R, t0, t1, slice_q=3, slice_p=2, kappa=2)
    assert not rep.slices.mask.all()
    assert _bits(rep.lhs) == _bits(-_resampled_flux(b, u, center, rep.slices, t0, t1))
    e, a, d = rep.terms, params.alpha, params.delta
    rhs = (params.M * R**a / (d**a * R**2 * (R - rho) ** a) * e["bulk_annulus"]
           + params.N * e["grad_annulus"] + params.epsilon * e["sup_ball"])
    assert _bits(rep.rhs) == _bits(rhs)

    par = drift_free_params()
    trep = fbc_tilde_test(b, u, par, center, R, t0, t1)
    assert _bits(trep.lhs) == _bits(_resampled_flux(b, u, center, trep.slices, t0, t1))
    e = norms._energy_terms(u, center, R / 2.0, R, t0, t1)
    for eps, val in trep.rhs.items():
        want = (par.M0 / (eps ** (par.alpha0 + 1.0) * R ** (par.alpha0 + 2.0)) * e["bulk_ball"]
                + eps * (e["bulk_ball"] / R**2 + e["grad_ball"] + e["sup_ball"]))
        assert _bits(val) == _bits(want)


def test_fbc_samples_b_once(monkeypatch):
    # fbc_test, then fbc_tilde_test, on one (b, u) sample b once and u once; an
    # in-place edit of either field's samples makes the next call sample it again
    rng = np.random.default_rng(32)
    g = grid2(64, nt=5)
    b, u = smooth_random_vector(g, rng, modes=2), smooth_random_scalar(g, rng, modes=2)
    sampled = []

    def counting_shell_restrict(f, center, radii):
        sampled.append(f)
        return shell_restrict(f, center, radii)

    monkeypatch.setattr(norms, "shell_restrict", counting_shell_restrict)
    params = FbcParams(M=1.0, N=0.25, alpha=2.0, delta=1.0, epsilon=0.25, theta2=0.5)

    def both():
        sampled.clear()
        fbc_test(b, u, params, (0, 0), 0.45, 0.9, 0.0, 1.0)
        fbc_tilde_test(b, u, drift_free_params(), (0, 0), 0.9, 0.0, 1.0)
        return [f is b for f in sampled], [f is u for f in sampled]

    assert both() == ([True, False], [False, True])
    assert both() == ([], [])
    b.samples[2, 40, 20, 1] += 0.5
    is_b, _ = both()
    assert is_b[0] and sum(is_b) == 1
    u.samples[3, 20, 40] += 0.5
    assert both() == ([False], [True])


def _fbc_reports(b, u, rho, slice_params):
    params = FbcParams(M=1.0, N=0.25, alpha=2.0, delta=1.0, epsilon=0.25, theta2=0.5)
    rep = fbc_test(b, u, params, (0, 0), rho, 0.9, 0.0, 1.0, *slice_params)
    trep = fbc_tilde_test(b, u, drift_free_params(), (0, 0), 0.9, 0.0, 1.0)
    return [(r.lhs, r.rhs, r.slices.radii, r.slices.slice_norms, r.slices.mask,
             r.slices.threshold, r.slices.dr) for r in (rep, trep)] + [rep.terms]


def _same_reports(got, want):
    for g, w in zip(got[:2], want[:2]):
        assert g[:2] == w[:2] and g[5:] == w[5:]
        assert all(np.array_equal(a, c) for a, c in zip(g[2:5], w[2:5]))
    assert got[2] == want[2]


def _change(fields, name, change, data):
    f = fields[name]
    if change == "edit":
        idx = tuple(data.draw(st.integers(0, s - 1), label="index") for s in f.samples.shape)
        f.samples[idx] += data.draw(st.sampled_from([0.0, 1e-12, -0.5, 2.0]), label="by")
    elif change == "samples":
        f.samples = f.samples * data.draw(st.sampled_from([1.0, 0.5]), label="factor")
    elif change == "grid":
        f.grid = grid2(32, nt=3, L=data.draw(st.sampled_from([1.0, 1.25]), label="L"))
    elif change == "equal":
        fields[name] = SpaceTimeField(f.grid, f.samples.copy(), f.ncomp)
    elif change == "single":  # equal values, another dtype
        f.samples = f.samples.astype(np.float32)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fbc_kept_inputs_match_fresh_runs(data):
    # FBC calls interleaved with changes to their inputs give what the same
    # calls give on deep copies with no kept entries
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = grid2(32, nt=3, L=1.0)

    def single_exact(f):
        return SpaceTimeField(f.grid, f.samples.astype(np.float32), f.ncomp)

    made = {"b": lambda: single_exact(smooth_random_vector(g, rng, modes=2)),
            "u": lambda: single_exact(smooth_random_scalar(g, rng, modes=2))}
    fields = {k: make() for k, make in made.items()}
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        name = data.draw(st.sampled_from(["b", "u"]), label="field")
        change = data.draw(st.sampled_from(["none", "edit", "samples", "grid", "equal",
                                            "single", "delete"]), label="change")
        if change == "delete":
            gone = weakref.ref(fields.pop(name))
            gc.collect()
            assert gone() is None
            fields[name] = made[name]()
        else:
            _change(fields, name, change, data)
        if fields["b"].grid.lo != fields["u"].grid.lo:
            fields["b"].grid = fields["u"].grid
        rho = data.draw(st.sampled_from([0.45, 0.3]), label="rho")
        slice_params = data.draw(st.sampled_from([(), (3, 2, 2)]), label="slice q, p, kappa")
        got = _fbc_reports(fields["b"], fields["u"], rho, slice_params)
        with mock.patch.object(norms, "_KEPT", weakref.WeakKeyDictionary()):
            want = _fbc_reports(*copy.deepcopy([fields["b"], fields["u"]]), rho, slice_params)
        _same_reports(got, want)
        assert len(norms._KEPT) <= norms._KEPT_FIELDS
        assert all(len(v) <= norms._KEPT_KEYS for _, _, v in norms._KEPT.values())


def test_fbc_kept_inputs_are_bounded():
    # the least recently used field, and a field's oldest key, go first
    rng = np.random.default_rng(35)
    g = grid2(32, nt=3, L=1.0)
    us = [smooth_random_scalar(g, rng, modes=2) for _ in range(norms._KEPT_FIELDS + 2)]
    radii = [0.5 + 0.05 * k for k in range(norms._KEPT_KEYS + 2)]
    for u in us:
        for R in radii:
            norms._energy_terms(u, (0, 0), R / 2, R, 0.0, 1.0)
    kept = list(norms._KEPT.items())
    assert [f for f, _ in kept] == us[-norms._KEPT_FIELDS:]
    for _, (_, _, values) in kept:
        assert [key[3] for key in values] == radii[-norms._KEPT_KEYS:]


@pytest.mark.parametrize("u_times", [(0.0, 1.0, 9), (0.5, 1.5, 5)])
def test_fbc_refuses_b_and_u_on_different_times(u_times):
    # b at 5 times on [0, 1]; u at 9 times on the same span, or at 5 shifted
    # ones, which would pair b(t_i) with u(t_i + 1/2)
    rng = np.random.default_rng(33)
    g = grid2(48, nt=5)
    b = smooth_random_vector(g, rng, modes=2)
    u = smooth_random_scalar(g.with_times(*u_times), rng, modes=2)
    spans = rf"b has 5 on \[0\.0, 1\.0\], u has {u_times[2]} on \[{u_times[0]}, {u_times[1]}\]"
    params = FbcParams(M=1.0, N=0.25, alpha=2.0, delta=1.0, epsilon=0.25, theta2=0.5)
    with pytest.raises(ValueError, match=spans):
        fbc_test(b, u, params, (0, 0), 0.45, 0.9, 0.5, 1.0)
    with pytest.raises(ValueError, match=spans):
        fbc_tilde_test(b, u, drift_free_params(), (0, 0), 0.9, 0.5, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fbc_refuses_a_non_finite_sample(bad):
    # one bad drift sample near r = 0.64 on a zero drift: the slice norms'
    # mean is then non-finite, so no slice is good and the flux average
    # divided by a measure of 0
    rng = np.random.default_rng(34)
    g = grid2(32, nt=3, L=1.0)
    cell = int(np.argmin(np.abs(g.axis(0) - 0.64)))
    samples = np.zeros((g.nt,) + tuple(g.shape) + (2,))
    samples[1, cell, 16, 0] = bad
    b = SpaceTimeField(g, samples, 2, allow_nonfinite=True)
    u = smooth_random_scalar(g, rng, modes=2)
    where = rf"b has a non-finite sample \({bad}\) at index \(1, {cell}, 16, 0\)"
    params = FbcParams(M=1.0, N=0.25, alpha=2.0, delta=1.0, epsilon=0.25, theta2=0.5)
    with pytest.raises(ValueError, match=where):
        fbc_test(b, u, params, (0, 0), 0.45, 0.9, 0.0, 1.0)
    with pytest.raises(ValueError, match=where):
        fbc_tilde_test(b, u, drift_free_params(), (0, 0), 0.9, 0.0, 1.0)
    # the solution is checked the same way
    u.samples[2, 3, 4] = bad
    zero = SpaceTimeField(g, np.zeros_like(samples), 2)
    with pytest.raises(ValueError, match=rf"u has a non-finite sample \({bad}\) at index \(2, 3, 4\)"):
        fbc_test(zero, u, params, (0, 0), 0.45, 0.9, 0.0, 1.0)


def test_fbc_refuses_a_non_finite_sample_of_kept_fields():
    # the refusals run on every call, before any kept entry is looked up
    rng = np.random.default_rng(36)
    g = grid2(32, nt=3, L=1.0)
    b, u = smooth_random_vector(g, rng, modes=2), smooth_random_scalar(g, rng, modes=2)
    params = FbcParams(M=1.0, N=0.25, alpha=2.0, delta=1.0, epsilon=0.25, theta2=0.5)
    fbc_test(b, u, params, (0, 0), 0.45, 0.9, 0.0, 1.0)
    fbc_tilde_test(b, u, drift_free_params(), (0, 0), 0.9, 0.0, 1.0)
    for f, name in ((u, "u"), (b, "b")):
        f.samples[1, 3, 4] = np.inf
        where = rf"{name} has a non-finite sample \(inf\) at index \(1, 3, 4"
        with pytest.raises(ValueError, match=where):
            fbc_test(b, u, params, (0, 0), 0.45, 0.9, 0.0, 1.0)
        with pytest.raises(ValueError, match=where):
            fbc_tilde_test(b, u, drift_free_params(), (0, 0), 0.9, 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_good_slices_refuses_a_non_finite_sample(bad):
    # a NaN made every slice bad with a NaN threshold, and +inf every slice
    # good with an infinite one
    g = grid2(32, nt=3, L=1.0, bc="periodic")
    samples = np.zeros((g.nt,) + tuple(g.shape) + (2,))
    samples[1, 26, 16, 0] = bad
    b = SpaceTimeField(g, samples, 2, allow_nonfinite=True)
    where = rf"b has a non-finite sample \({bad}\) at index \(1, 26, 16, 0\)"
    with pytest.raises(ValueError, match=where):
        good_slices(b, (0, 0), 0.45, 0.9, 0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_good_slices_names_a_drawn_non_finite_index(data):
    g = grid2(16, nt=3, L=1.0, bc=data.draw(st.sampled_from(["periodic", "zero"])))
    samples = np.zeros((g.nt,) + tuple(g.shape) + (2,))
    idx = tuple(data.draw(st.integers(0, s - 1), label="index") for s in samples.shape)
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="bad")
    samples[idx] = bad
    b = SpaceTimeField(g, samples, 2, allow_nonfinite=True)
    where = re.escape(f"b has a non-finite sample ({bad}) at index {idx}")
    with pytest.raises(ValueError, match=where):
        good_slices(b, (0, 0), 0.45, 0.9, 0.0, 1.0)


# The whole-grid energy terms that the box ones replaced, kept as their
# reference: u and |grad u|² on every cell, then the ball's cells kept.
def _whole_grid_energy_terms(u, center, rho, R, t0, t1):
    g = u.grid
    tidx, tw = _time_selection(g, t0, t1)
    r = np.sqrt(_sq_distance(g.meshgrid(), center))
    ann = (r >= rho) & (r <= R)
    ballm = r <= R
    u2 = u.samples[tidx] ** 2
    g2 = _component_sum(gradient(u).samples[tidx] ** 2)
    vol = g.cell_volume

    def integral(a, mask):
        return float((a[:, mask].sum(axis=1) * vol * tw).sum())

    return dict(bulk_annulus=integral(u2, ann), bulk_ball=integral(u2, ballm),
                grad_annulus=integral(g2, ann), grad_ball=integral(g2, ballm),
                sup_ball=float((u2[:, ballm].sum(axis=1) * vol).max()))


@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("case", [
    # (lo, hi, shape, center, rho, R, t0, t1)
    ((-2.0, -2.0), (2.0, 2.0), (64, 64), (0.0, 0.0), 0.45, 0.9, 0.0, 1.0),
    ((-2.0, -2.0), (2.0, 2.0), (48, 40), (1.7, -0.3), 0.45, 0.9, 0.25, 0.75),
    ((-2.0, -2.0), (2.0, 2.0), (40, 40), (1.1, -1.1), 0.45, 0.9, 0.0, 1.0),
    ((-2.0, -1.0), (2.0, 1.0), (24, 20), (-1.9, 0.95), 1.2, 1.5, 0.0, 1.0),
    ((-1.0, -1.0), (1.0, 1.0), (16, 18), (0.2, 0.1), 0.5, 5.0, 0.0, 1.0),
    ((-2.0, -2.0), (2.0, 2.0), (32, 32), (0.3, 0.2), 0.9 - 1e-9, 0.9, 0.0, 1.0),
    ((0.0, 0.0), (1.0, 1.0), (16, 16), (0.53125, 0.40625), 0.125, 0.25, 0.0, 1.0),
    ((0.0, 0.0), (1.0, 1.0), (16, 16), (0.03125, 0.96875), 0.125, 0.25, 0.0, 1.0),
    ((-1.0,) * 3, (1.0,) * 3, (12, 10, 14), (0.1, -0.2, 0.3), 0.3, 0.6, 0.0, 1.0),
    ((-1.0,) * 3, (1.0,) * 3, (12, 10, 14), (0.8, -0.9, 0.0), 0.3, 0.6, 0.5, 1.0),
], ids=["diagnose", "crosses-edge", "touches-edge", "crosses-corner", "larger-than-grid",
        "empty-annulus", "on-cell-centers", "on-cell-centers-at-corner", "3d", "3d-crosses-edge"])
def test_energy_terms_on_the_ball_box_equal_whole_grid(case, bc):
    """The box of the ball, its margin and its halo gives every term bit for bit,
    with the halo wrapping where the ball crosses a periodic edge."""
    lo, hi, shape, center, rho, R, t0, t1 = case
    n = len(shape)
    g = Grid(n, lo, hi, shape, 0.0, 1.0, 5, bc)
    rng = np.random.default_rng(sum(shape))
    u = SpaceTimeField(g, rng.standard_normal((5,) + shape))
    e = norms._energy_terms(u, center, rho, R, t0, t1)
    want = _whole_grid_energy_terms(u, center, rho, R, t0, t1)
    assert e == want
    assert (want["bulk_annulus"] == 0.0) == (rho > R - 1e-6)
