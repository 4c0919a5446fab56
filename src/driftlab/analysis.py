"""Diagnostics: residual and sign checks, boundedness and Harnack quotients,
Moser iteration traces, Davies weighted energies, and fundamental-solution
tail verification.

All diagnostics are pure functions of completed runs (or constructed fields);
they report fitted constants and margins rather than asserting theorems.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (SpaceTimeField, _component_sum, _refuse_nan, _require_finite, _slab,
                     _sq_distance, gradient, laplacian)
from .norms import (
    FBC_PREFACTOR,
    SLICE_RADII,
    GoodSlices,
    _energy_terms,
    _fbc_inputs,
    _flux_average,
    _good_slices,
    _theta2_M,
    _time_selection,
    _time_window,
    good_slices,
)


# ---------------------------------------------------------------------------
# fundamental-solution bound parameters


@dataclass(frozen=True)
class FundSolBoundParams:
    """Constants (α₀, M₀, C₀) of the fundamental-solution upper bound."""

    alpha0: float
    M0: float
    C0: float
    theta2: float

    def __post_init__(self):
        for name in ("alpha0", "M0", "C0"):
            if not np.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha0 < 0 or self.M0 <= 0 or self.C0 <= 0:
            raise ValueError("need alpha0 >= 0 and positive M0, C0")


def fundsol_params(spec, b_norm):
    """Derive (α₀, M₀, C₀) from a mixed-norm spec and the measured drift norm.

    θ₂ = 1 − ζ₀/2 and α₀ = (ζ₀ − 1)/θ₂ for 1 ≤ ζ₀ < 2 (clamped to 0 in the
    subcritical range); M₀ = C ∥b∥^{1/θ₂} + 1/4 with C₀ = C = FBC_PREFACTOR.
    """
    th2, M0 = _theta2_M(spec, b_norm, 1.0)
    alpha0 = max(0.0, (spec.zeta0 - 1.0) / th2)
    return FundSolBoundParams(alpha0, M0, FBC_PREFACTOR, th2)


def drift_free_params():
    """The b = 0 constants: α₀ = 0, M₀ = 1/4, C₀ = FBC_PREFACTOR, θ₂ = 1/2."""
    return FundSolBoundParams(0.0, 0.25, FBC_PREFACTOR, 0.5)


# ---------------------------------------------------------------------------
# residuals


@dataclass
class ResidualReport:
    max_residual: float
    residual: SpaceTimeField
    checked: np.ndarray  # boolean mask of points that entered the max
    violations: np.ndarray


def _trajectory(run):
    """The sampled trajectory of a SimRun, or the field itself."""
    return run.trajectory if hasattr(run, "trajectory") else run


def _as_field_and_drift(theta, b):
    field = _trajectory(theta)
    if b is None and field is not theta and theta.drift is not None:
        b = theta.drift.sample(field.grid)
    return field, b


def _dilate(mask):
    """Copy of a boolean mask grown twice by the ±1 neighbours on every axis,
    with nothing outside its border: ``scipy.ndimage.binary_dilation(mask,
    iterations=2)``."""
    grown = np.array(mask, dtype=bool)
    for _ in range(2):
        prev = grown.copy()
        for a in range(grown.ndim):
            _slab(grown, a, 1, None)[...] |= _slab(prev, a, None, -1)
            _slab(grown, a, None, -1)[...] |= _slab(prev, a, 1, None)
    return grown


def subsolution_residual(theta, b=None, exclude=None):
    """Discrete residual ∂_t θ − Δθ + b·∇θ away from declared kink sets.

    ``exclude`` is a boolean space-time mask of kink points; it is dilated by
    two cells (≈ 2h) before exclusion.  Boundary frames and the first/last
    stored times are always excluded.  Any positive residual is a violation.
    A non-finite θ is refused, naming its first bad index; a NaN residual in
    the checked cells is refused, naming b's first non-finite sample.
    """
    field, b = _as_field_and_drift(theta, b)
    _require_finite(field.samples, "theta")
    g = field.grid
    if b is not None and (b.grid.shape != g.shape or b.grid.nt != g.nt):
        raise ValueError("field and drift grids do not match")
    res = np.zeros_like(field.samples)
    lap = laplacian(field).samples
    if g.nt < 3:
        raise ValueError("need at least three stored times for the time derivative")
    dt = g.dt
    res[1:-1] = (field.samples[2:] - field.samples[:-2]) / (2.0 * dt)
    res -= lap
    if b is not None:
        gr = gradient(field).samples
        res += _component_sum(b.samples * gr)

    # interior times, and cells at least three from the edge on every axis
    checked = np.zeros(field.samples.shape, dtype=bool)
    checked[(slice(1, -1),) + (slice(3, -3),) * g.n] = True
    if exclude is not None:
        checked &= ~_dilate(exclude)
    vals = res[checked]
    mx = _refuse_nan(vals.max(), b=b) if vals.size else -np.inf
    viol = checked & (res > 0.0)
    return ResidualReport(mx, SpaceTimeField(g, res, allow_nonfinite=True),
                          checked, viol)


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class Cylinder:
    center: tuple
    radius: float
    t0: float
    t1: float

    def contains(self, other):
        c0 = np.asarray(self.center)
        c1 = np.asarray(other.center)
        return (np.linalg.norm(c1 - c0) + other.radius <= self.radius + 1e-12
                and self.t0 <= other.t0 + 1e-12 and other.t1 <= self.t1 + 1e-12)


def _cyl_masks(grid, cyl):
    space = np.sqrt(_sq_distance(grid.meshgrid(), cyl.center)) <= cyl.radius
    return space, _time_window(grid, cyl.t0, cyl.t1)


def local_boundedness_quotient(run, inner, outer, gamma=1.0):
    """sup_{Q'} |θ| divided by ∥θ∥_{L^γ(Q \\ Q')} for nested cylinders; refuses a
    non-finite θ, naming its first bad index."""
    if not 0 < gamma <= 2:
        raise ValueError("gamma must lie in (0, 2]")
    if not outer.contains(inner):
        raise ValueError("inner cylinder is not nested in the outer one")
    field = _trajectory(run)
    _require_finite(field.samples, "theta")
    g = field.grid
    si, ti = _cyl_masks(g, inner)
    so, to = _cyl_masks(g, outer)
    th = np.abs(field.samples)
    sup = float(th[ti][:, si].max())
    tidx, tw = _time_selection(g, outer.t0, outer.t1)
    total = 0.0
    for j, w in zip(tidx, tw):
        mask = so & ~(si & ti[j])
        total += (th[j][mask] ** gamma).sum() * g.cell_volume * w
    return sup / total ** (1.0 / gamma)


@dataclass
class HarnackReport:
    value: float
    kappa: float
    value_at_kappa_tenth: float


def harnack_quotient(run, center, radius, I1, I2):
    """sup over B×I₁ divided by inf over B×I₂ (with the θ + κ device,
    κ = 10⁻¹² max θ); refuses a non-finite θ, naming its first bad index."""
    if not I1[1] <= I2[0]:
        raise ValueError("I1 must end before I2 begins")
    field = _trajectory(run)
    _require_finite(field.samples, "theta")
    g = field.grid
    space = np.sqrt(_sq_distance(g.meshgrid(), center)) <= radius
    m1, m2 = _time_window(g, *I1), _time_window(g, *I2)
    if not m1.any() or not m2.any():
        raise ValueError("intervals contain no stored times")
    # adding κ commutes with sup and inf, rounding included
    sup = field.samples[m1][:, space].max()
    inf = field.samples[m2][:, space].min()
    kappa = 1e-12 * float(field.samples.max())
    return HarnackReport(float((sup + kappa) / (inf + kappa)), kappa,
                         float((sup + kappa / 10.0) / (inf + kappa / 10.0)))


# ---------------------------------------------------------------------------
# Moser iteration trace


@dataclass
class MoserTrace:
    chi: float
    betas: np.ndarray
    Ms: np.ndarray
    ladder: list          # (radius_k, tau_k)
    Cbig: float
    predicted_sup: float
    sup_inner: float


def moser_constant(fbc, rho, R, T, tau):
    """The aggregate 𝐂 = 1/(δ²(R−r)²) + M R₀^α/(δ^α R₀² (R−r)^α) + 1/(τ−T)
    with R₀ = R."""
    d, a = fbc.delta, fbc.alpha
    return (1.0 / (d**2 * (R - rho) ** 2)
            + fbc.M * R**a / (d**a * R**2 * (R - rho) ** a)
            + 1.0 / (tau - T))


def moser_trace(run, center, rho, R, T, tau, t_end, fbc, kmax=8):
    """Norm ladder M_k = ∥θ²∥_{L^{β_k}} on shrinking cylinders, β_k = χ^k.

    Cylinder k is B_{ϱ_k} × (τ_k, t_end] with ϱ_k = ϱ + 2^{−k}(R − ϱ) and
    τ_k = τ − 2^{−k}(τ − T); norms are taken in the normalized (probability)
    measure, so M_k increases towards (sup over the inner cylinder)².  A
    non-finite θ is refused, naming its first bad index.
    """
    field = _trajectory(run)
    _require_finite(field.samples, "theta")
    g = field.grid
    if not (rho < R and T < tau < t_end):
        raise ValueError("ladder geometry must be nested")
    if field.samples.min() < 0:
        raise ValueError("Moser trace expects a nonnegative field")
    chi = 1.0 + 2.0 / g.n
    betas = chi ** np.arange(kmax + 1)
    r = np.sqrt(_sq_distance(g.meshgrid(), center))
    Ms = []
    ladder = []
    vol = g.cell_volume
    for k in range(kmax + 1):
        rk = rho + 2.0**-k * (R - rho)
        tk = tau - 2.0**-k * (tau - T)
        ladder.append((rk, tk))
        mask = r <= rk
        tidx, tw = _time_selection(g, tk, t_end)
        meas = mask.sum() * vol * tw.sum()
        th2 = field.samples[tidx][:, mask] ** 2
        Ms.append(float(((th2 ** betas[k]).sum(axis=1) * vol @ tw / meas)
                        ** (1.0 / betas[k])))
    tid, _ = _time_selection(g, tau, t_end)
    sup_inner = float(field.samples[tid][:, r <= rho].max())
    Cbig = moser_constant(fbc, rho, R, T, tau)
    predicted = Cbig ** ((g.n + 2) / 4.0) * np.sqrt(Ms[0])
    return MoserTrace(chi, betas, np.asarray(Ms), ladder, float(Cbig),
                      float(predicted), sup_inner)


# ---------------------------------------------------------------------------
# Davies weighted energy


@dataclass
class DaviesProbe:
    """Radial Lipschitz weight with ψ' = γ·1_A on a good-slice set A.

    ψ = 0 for r ≤ |x₀|/2, constant for r ≥ |x₀|, slope γ on A, so |∇ψ| ≤ γ
    and ψ(x₀) = γ|A| ≥ γ|x₀|/4.
    """

    x0: np.ndarray
    gamma: float
    r_knots: np.ndarray
    psi_knots: np.ndarray
    slices: GoodSlices

    def psi(self, r):
        return np.interp(r, self.r_knots, self.psi_knots,
                         left=0.0, right=self.psi_knots[-1])

    @property
    def psi_at_x0(self):
        return float(self.psi_knots[-1])


def davies_probe(b, x0, gamma):
    """Build the weight from good slices of b on the annulus (|x₀|/2, |x₀|)
    over b's whole time span; with b = None every slice is good."""
    x0 = np.asarray(x0, dtype=float)
    R = float(np.linalg.norm(x0))
    if b is None:
        dr = (R / 2.0) / SLICE_RADII
        radii = R / 2.0 + dr * (np.arange(SLICE_RADII) + 0.5)
        slices = GoodSlices(radii, np.zeros_like(radii), np.ones(radii.shape, bool), 0.0, dr)
    else:
        slices = good_slices(b, (0.0,) * b.grid.n, R / 2.0, R, b.grid.t0, b.grid.t1)
    edges = np.concatenate([[R / 2.0], slices.radii + slices.dr / 2.0])
    psi = gamma * slices.dr * np.concatenate([[0.0], np.cumsum(slices.mask)])
    return DaviesProbe(x0, float(gamma), edges, psi, slices)


@dataclass
class DaviesReport:
    times: np.ndarray
    J: np.ndarray
    C_fit: float
    rate: float
    bound_ok: bool


def davies_energy(run, probe, params=None):
    """J(t) = ½∫ e^{2ψ} θ² and the smallest C making the Gronwall bound hold.

    Checks J(t) ≤ C J(0) exp((Cγ² + C M₀ γ^{2+α₀} + |x₀|⁻²) t − t₀) and
    reports the minimal C bisected on [0, 10⁶] (C = ∞ if 10⁶ fails).  A
    non-finite θ is refused, naming its first bad index.
    """
    field = _trajectory(run)
    _require_finite(field.samples, "theta")
    g = field.grid
    r = np.sqrt(_sq_distance(g.meshgrid(), (0.0,) * g.n))
    w = np.exp(2.0 * probe.psi(r))
    J = 0.5 * (field.samples**2 * w).sum(axis=tuple(range(1, g.n + 1))) * g.cell_volume
    ts = g.times - g.t0
    x0n = float(np.linalg.norm(probe.x0))
    gam = probe.gamma
    m0 = params.M0 if params is not None else 0.0
    a0 = params.alpha0 if params is not None else 0.0

    lhs = np.log(np.maximum(J, 1e-300))  # compare in log space so huge rates cannot overflow

    def ok(C):
        rate = C * gam**2 + C * m0 * gam ** (2.0 + a0) + x0n**-2
        rhs = np.log(C * J[0] + 1e-300) + rate * ts
        return bool(np.all(lhs <= rhs + 1e-12))

    lo, hi = 0.0, 1e6
    if not ok(hi):
        return DaviesReport(g.times, J, np.inf, np.nan, False)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    C = hi
    rate = C * gam**2 + C * m0 * gam ** (2.0 + a0) + x0n**-2
    return DaviesReport(g.times, J, float(C), float(rate), True)


# ---------------------------------------------------------------------------
# tail verification


@dataclass
class TailReport:
    C: float
    c: float
    r: np.ndarray
    tau: np.ndarray
    values: np.ndarray
    gauss_active: np.ndarray
    outer: np.ndarray
    margins: np.ndarray


def _tail_shape(r, tau, params, n):
    """The majorant's shape(c), with r², r^p0, (τM₀)^{1/(1+α₀)} and τ^{−n/2} taken once."""
    p0 = 1.0 + 1.0 / (1.0 + params.alpha0)
    r2, rp = r**2, r**p0
    scale, decay = (tau * params.M0) ** (1.0 / (1.0 + params.alpha0)), tau ** (-n / 2.0)

    def shape(c):
        gauss = np.exp(-c * r2 / tau)
        stretched = np.exp(-c * rp / scale)
        return decay * (gauss + stretched), gauss >= stretched
    return shape


def tail_check(run, params, source, s):
    """Constrained two-exponential majorization fit over all sampled Γ values.

    The samples are those with τ = t − s ≥ 40h², r ≤ 0.4 L (L the shortest
    box side) and value above 10⁻¹⁰ of the largest.  Over the decay rates c of
    60 geometric steps in [10⁻³, 1], C(c) is the smallest prefactor that
    majorizes every sample; the reported c is the largest one whose C(c) stays
    within 4 times the best C.  No sample's shape rises with c (at r > 0 the
    rounded exponents of consecutive rates differ by 12.4%, far beyond exp's
    rounding; at r = 0 every rate gives 1), so C(c) is non-decreasing: the best
    C is C(10⁻³), the admissible rates are a prefix of the sweep, and bisection
    finds its end from at most 7 values of C in place of 60.  Also classifies
    each sample by active branch (Gaussian vs stretched-exponential) and by
    inner/outer regime (outer: M₀^{1/α₀} r/τ ≥ 16, or r ≥ 16√τ when α₀ = 0).  A
    non-finite θ is refused, naming its first bad index.
    """
    field = _trajectory(run)
    _require_finite(field.samples, "theta")
    g = field.grid
    tau_min = 40.0 * min(g.h) ** 2
    rmax = 0.4 * min(g.hi[i] - g.lo[i] for i in range(g.n))
    r = np.sqrt(_sq_distance(g.meshgrid(), np.asarray(source, dtype=float)))
    taus = g.times - s
    sel_t = taus >= tau_min
    if not sel_t.any():
        raise ValueError("no stored times above the resolution floor")
    sel = field.samples[sel_t]
    m = (r <= rmax) & (sel > 1e-10 * sel.max())
    rs = np.broadcast_to(r, sel.shape)[m]
    ts = np.broadcast_to(taus[sel_t].reshape((-1,) + (1,) * g.n), sel.shape)[m]
    vals = sel[m]

    c_sweep = np.geomspace(1e-3, 1.0, 60)
    tail_shape = _tail_shape(rs, ts, params, g.n)
    bound, lo, hi = 4.0 * (vals / tail_shape(c_sweep[0])[0]).max(), 0, len(c_sweep)
    while hi - lo > 1:  # c_sweep[lo] admissible, c_sweep[hi] (if any) not
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if (vals / tail_shape(c_sweep[mid])[0]).max() <= bound else (lo, mid)
    c_star = float(c_sweep[lo])
    shape, gauss = tail_shape(c_star)
    C_star = float((vals / shape).max())
    margins = C_star * shape / np.maximum(vals, 1e-300)
    if params.alpha0 > 0:
        outer = params.M0 ** (1.0 / params.alpha0) * rs / ts >= 16.0
    else:
        outer = rs >= 16.0 * np.sqrt(ts)
    return TailReport(C_star, c_star, rs, ts, vals, gauss, outer, margins)


# ---------------------------------------------------------------------------
# FBC-tilde (condition II with varying epsilon)


@dataclass
class FbcTildeReport:
    lhs: float
    rhs: dict           # epsilon -> rhs value
    satisfied: bool
    slices: GoodSlices


def fbc_tilde_test(b, u, params, center, R, t0, t1):
    """Evaluate the outward-flux inequality at ε = 10⁻², 10⁻¹, 1 and 10.

    lhs = +(1/|A|) ∬_{∂B_A×I} (u²/2)(b·n) with A good slices in (R/2, R);
    rhs(ε) = M₀/(ε^{α₀+1} R^{α₀+2}) ∬_{B_R×I} u²
             + ε (R⁻² ∬_{B_R×I} u² + ∬ |∇u|² + sup_t ∫_{B_R} u²).
    Satisfied iff the inequality holds for every ε in the sweep.  Checks b and u
    as `norms.fbc_test` does, and shares its kept shells, good slices and energy
    terms (`norms._kept`): after it on the same annulus, samples neither again.
    """
    _fbc_inputs(b, u)
    slices, b_shells = _good_slices(b, center, R / 2.0, R, t0, t1)
    lhs = _flux_average(b_shells, u, center, slices, t0, t1)
    e = _energy_terms(u, center, R / 2.0, R, t0, t1)
    rhs = {}
    ok = True
    for eps in (1e-2, 1e-1, 1.0, 10.0):
        val = (params.M0 / (eps ** (params.alpha0 + 1.0) * R ** (params.alpha0 + 2.0))
               * e["bulk_ball"]
               + eps * (e["bulk_ball"] / R**2 + e["grad_ball"] + e["sup_ball"]))
        rhs[eps] = float(val)
        ok = ok and (lhs <= val * (1 + 1e-6) + 1e-12)
    return FbcTildeReport(float(lhs), rhs, bool(ok), slices)
