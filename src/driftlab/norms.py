"""Mixed space-time Lebesgue norms, criticality classification, good slices,
and empirical testing of the form boundedness condition (FBC).

Norm conventions
----------------
Four integration orders are supported, named by which variable is integrated
last (outermost):

* ``time_outer``   L^q_t L^p_x
* ``space_outer``  L^p_x L^q_t
* ``sliced_tr``    L^q_t L^beta_r L^gamma_sigma   (radial slicing, time outer)
* ``sliced_rt``    L^kappa_r L^q_t L^p_sigma     (radial slicing, radius outer)

Sigma norms use sphere quadrature weights that include the surface measure,
so composing the sigma, r and t integrals reproduces the space-time integral.
Infinite exponents evaluate as sample maxima. kappa may be < 1 (quasi-norm).

The scaling heuristic behind all of this: under u -> u(lx, l^2 t), b -> l b,
the time_outer norm of a drift scales by l^(1 - zeta0) with
zeta0 = 2/q + n/p, and the space_outer norm by the same law with
zeta0 = 3/q + (n-1)/p. zeta0 is the criticality index.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .fields import (_box, _component_sum, _ddx, _refuse_nan, _require_finite,
                     _sq_distance, shell_restrict)

INF = np.inf
SLICE_RADII = 33  # radii that good_slices tests on an annulus

TIME_OUTER = "time_outer"
SPACE_OUTER = "space_outer"
SLICED_TR = "sliced_tr"
SLICED_RT = "sliced_rt"

# criticality classes
REGION_A = "subcritical_or_critical"
REGION_B = "supercritical_bounded"
BOUNDED_TOTAL_SPEED = "bounded_total_speed"
UNBOUNDED_LINE = "unbounded_line"
DIMRED_OK = "dimension_reduced_ok"
DIMRED_FAIL = "dimension_reduced_fail"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class MixedNormSpec:
    order: str
    n: int
    p: float = INF
    q: float = INF
    beta: float = INF
    gamma: float = INF
    kappa: float = INF

    def __post_init__(self):
        if self.order not in (TIME_OUTER, SPACE_OUTER, SLICED_TR, SLICED_RT):
            raise ValueError(f"unknown order {self.order!r}")
        if not self.n >= 2:
            raise ValueError(f"dimension n must be at least 2, got {self.n}")
        for name in ("p", "q", "beta", "gamma"):
            v = getattr(self, name)
            if not v >= 1:
                raise ValueError(f"exponent {name} must be in [1, inf]")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")

    @property
    def zeta0(self):
        """Criticality index of the spec (time_outer / space_outer laws)."""
        if self.order in (TIME_OUTER,):
            return 2.0 / self.q + self.n / self.p
        if self.order in (SPACE_OUTER, SLICED_RT):
            return 3.0 / self.q + (self.n - 1.0) / self.p
        # sliced_tr
        return 2.0 / self.q + 1.0 / self.beta + (self.n - 1.0) / self.gamma


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple
    t0: float
    t1: float


@dataclass(frozen=True)
class Annulus:
    center: tuple
    r_inner: float
    r_outer: float
    t0: float
    t1: float


def ball(center, radius, t0, t1):
    return Annulus(tuple(center), 0.0, radius, t0, t1)


def _pnorm(vals, weights, p, axis=-1):
    """(sum w |v|^p)^(1/p) along axis; max for p = inf. Works for p < 1 too."""
    a = np.abs(np.moveaxis(vals, axis, -1))
    if np.isinf(p):
        return a.max(axis=-1)
    return ((a**p) @ weights) ** (1.0 / p)


def _trapz_weights(m, dt):
    w = np.full(m, dt)
    if m == 1:
        return np.array([1.0])
    w[0] = w[-1] = dt / 2.0
    return w


def _time_window(grid, t0, t1):
    """Mask of the stored times in [t0, t1], with a 1e-12 tolerance at both ends."""
    times = grid.times
    return (times >= t0 - 1e-12) & (times <= t1 + 1e-12)


def _time_selection(grid, t0, t1):
    idx = np.flatnonzero(_time_window(grid, t0, t1))
    if len(idx) == 0:
        raise ValueError("region time window contains no samples")
    return idx, _trapz_weights(len(idx), grid.dt if grid.nt > 1 else 1.0)


def _magnitude(samples, scalar):
    """|f| pointwise: the absolute value, or the Euclidean length of a vector."""
    return np.abs(samples) if scalar else np.sqrt(_component_sum(samples**2))


def _sphere_norms(sh, tidx, p):
    """Table of ||f(., t)||_{L^p_sigma(dB_r)} from f's shell samples: one row per
    radius, one column per selected time.  Each is one reduction over the points
    of all radii at once, split at the spheres' starts."""
    a = _magnitude(sh.values[tidx], sh.values.ndim == 2)
    starts = [s for s, _ in sh.spans]
    if np.isinf(p):
        return np.maximum.reduceat(a, starts, axis=-1).T
    return (np.add.reduceat(a**p * sh.point_weights, starts, axis=-1) ** (1.0 / p)).T


def _spatial_mask(grid, region):
    X = grid.meshgrid()
    if isinstance(region, Box):
        m = np.ones(grid.shape, dtype=bool)
        for i in range(grid.n):
            m &= (X[i] >= region.lo[i]) & (X[i] <= region.hi[i])
        return m
    r = np.sqrt(_sq_distance(X, region.center))
    return (r >= region.r_inner) & (r <= region.r_outer)


def mixed_norm(f, spec, region):
    """Nested discrete Lebesgue norm of |f| over the region, in spec order.

    For sliced specs the region must be an Annulus (its center seeds the
    shells, at least 17 and about three per cell width). Trapezoidal weights
    in t and r, cell volumes in x, sphere quadrature in sigma.  A NaN norm
    is refused with a ValueError naming f's first non-finite sample.
    """
    g = f.grid
    if spec.order in (SLICED_TR, SLICED_RT) and not isinstance(region, Annulus):
        raise ValueError("sliced norms need an annulus region with a center")
    tidx, tw = _time_selection(g, region.t0, region.t1)

    if spec.order in (TIME_OUTER, SPACE_OUTER):
        mask = _spatial_mask(g, region)
        if not mask.any():
            raise ValueError("region contains no spatial samples")
        vals = _magnitude(f.samples[tidx], f.is_scalar)[:, mask]  # (nt_sel, ncells)
        vol = np.full(vals.shape[1], g.cell_volume)
        if spec.order == TIME_OUTER:
            per_t = _pnorm(vals, vol, spec.p, axis=-1)
            return _refuse_nan(_pnorm(per_t, tw, spec.q, axis=-1), f=f)
        per_x = _pnorm(vals.T, tw, spec.q, axis=-1)
        return _refuse_nan(_pnorm(per_x, vol, spec.p, axis=-1), f=f)

    # sliced orders: build (r, t, sigma) samples
    r0, r1 = region.r_inner, region.r_outer
    if not 0 < r0 < r1:
        raise ValueError("sliced norms need 0 < r_inner < r_outer")
    nr = max(17, int(np.ceil(3.0 * (r1 - r0) / min(g.h))) | 1)
    radii = np.linspace(r0, r1, nr)
    rw = _trapz_weights(nr, (r1 - r0) / (nr - 1))
    inner_p = spec.gamma if spec.order == SLICED_TR else spec.p
    per_rt = _sphere_norms(shell_restrict(f, region.center, radii), tidx, inner_p)
    if spec.order == SLICED_TR:
        per_t = _pnorm(per_rt.T, rw, spec.beta, axis=-1)  # L^beta_r
        return _refuse_nan(_pnorm(per_t, tw, spec.q, axis=-1), f=f)  # L^q_t
    per_r = _pnorm(per_rt, tw, spec.q, axis=-1)  # L^q_t
    return _refuse_nan(_pnorm(per_r, rw, spec.kappa, axis=-1), f=f)  # L^kappa_r


# ---------------------------------------------------------------------------
# criticality classification


@dataclass(frozen=True)
class CriticalityReport:
    zeta0: float
    cls: str
    governing: str


def _close(a, b):
    return abs(a - b) < 1e-9


def criticality_index(spec):
    """Classify a drift space by its criticality index zeta0.

    time_outer (L^q_t L^p_x), zeta0 = 2/q + n/p:
      zeta0 <= 1 region A (local boundedness, subcritical or critical);
      1 < zeta0 < 2 region B (supercritical, local boundedness still holds);
      (q, p) = (1, inf) the bounded-total-speed endpoint of the zeta0 = 2 line;
      zeta0 >= 2 with q > 1: local boundedness fails (counterexample line).

    space_outer (L^p_x L^q_t), requires p <= q, zeta0 = 3/q + (n-1)/p:
      zeta0 < 2 dimension-reduced local boundedness; zeta0 > 2 fails;
      on zeta0 = 2 the endpoints (p = q = (n+2)/2 and p = (n-1)/2, q = inf)
      fail while the open segment between them is an open problem ("unknown").
    """
    n = spec.n
    z = spec.zeta0
    if spec.order == TIME_OUTER:
        if _close(spec.q, 1.0) and np.isinf(spec.p):
            return CriticalityReport(z, BOUNDED_TOTAL_SPEED,
                                     "L^1_t L^inf_x: bounded total speed endpoint of the zeta0 = 2 line")
        if z <= 1.0 + 1e-9:
            return CriticalityReport(z, REGION_A,
                                     "2/q + n/p <= 1: subcritical or critical (region A)")
        if z < 2.0 - 1e-9:
            return CriticalityReport(z, REGION_B,
                                     "1 < 2/q + n/p < 2: supercritical, local boundedness holds (region B)")
        return CriticalityReport(z, UNBOUNDED_LINE,
                                 "2/q + n/p >= 2 with q > 1: local boundedness fails")
    if spec.order == SPACE_OUTER:
        note = "" if spec.p <= spec.q + 1e-9 else " [p <= q violated: classification only covers p <= q]"
        if z < 2.0 - 1e-9:
            return CriticalityReport(z, DIMRED_OK,
                                     "3/q + (n-1)/p < 2, p <= q: dimension-reduced local boundedness" + note)
        if z > 2.0 + 1e-9:
            return CriticalityReport(z, DIMRED_FAIL,
                                     "3/q + (n-1)/p > 2: local boundedness fails (self-similar blocks)" + note)
        if _close(spec.p, (n - 1) / 2.0) and np.isinf(spec.q):
            return CriticalityReport(z, DIMRED_FAIL,
                                     "steady endpoint p = (n-1)/2, q = inf: fails ((n-1)/2 endpoint)" + note)
        if _close(spec.p, (n + 2) / 2.0) and _close(spec.q, (n + 2) / 2.0):
            return CriticalityReport(z, DIMRED_FAIL,
                                     "isotropic endpoint p = q = (n+2)/2: fails" + note)
        return CriticalityReport(z, UNKNOWN,
                                 "open segment of the 3/q + (n-1)/p = 2 line: open problem" + note)
    raise ValueError("criticality classification applies to time_outer / space_outer specs")


# ---------------------------------------------------------------------------
# good slices and the form boundedness condition


@dataclass
class GoodSlices:
    radii: np.ndarray
    slice_norms: np.ndarray
    mask: np.ndarray
    threshold: float
    dr: float

    @property
    def measure(self):
        return float(self.mask.sum() * self.dr)

    @property
    def total(self):
        return float(len(self.radii) * self.dr)


def good_slices(b, center, rho, R, t0, t1, q=INF, p=INF, kappa=1.0):
    """Chebyshev slice selection on r -> ||b||_{L^q_t L^p_sigma(dB_r x I)}^kappa.

    Tests the SLICE_RADII cell midpoints of (rho, R) and keeps the radii whose
    slice norm^kappa is at most twice the kappa-average, which guarantees
    measure(A) >= (R - rho)/2.  A NaN or infinite sample of b is refused with a
    ValueError naming its index.  The result is kept as `fbc_test`'s is, and its
    arrays are read-only.
    """
    _require_finite(b.samples, "b")
    return _good_slices(b, center, rho, R, t0, t1, q, p, kappa)[0]


def _good_slices(b, center, rho, R, t0, t1, q=INF, p=INF, kappa=1.0):
    """`good_slices`, and b's shells on all of its radii, both kept (`_kept`)."""
    radii = rho + (R - rho) * (np.arange(SLICE_RADII) + 0.5) / SLICE_RADII
    dr = (R - rho) / SLICE_RADII
    shells = _shells(b, center, radii)

    def select():
        tidx, tw = _time_selection(b.grid, t0, t1)
        norms = _pnorm(_sphere_norms(shells, tidx, p), tw, q)
        powered = norms**kappa
        threshold = 2.0 * powered.mean()
        mask = powered <= threshold + 1e-300
        norms.flags.writeable = mask.flags.writeable = False
        return shells.radii, norms, mask, float(threshold), dr

    key = ("slices", _point(center), rho, R, t0, t1, q, p, kappa)
    return GoodSlices(*_kept(b, key, select)), shells


# The FBC tests' per-field inputs: b's shells and good slices, u's shells and
# energy terms.  Up to _KEPT_KEYS values are kept per field (held by weak
# reference, so an entry goes with its field), with its grid and a copy of its
# samples.  The copies and the values' arrays take at most _KEPT_BYTES; past it
# the least recently used field goes first (a field count would miss on every
# access of a loop over more fields), and an entry above it is not kept.
_KEPT = weakref.WeakKeyDictionary()  # field -> [grid, samples copy, {key: value}, bytes]
_KEPT_BYTES = 32 << 20
_KEPT_KEYS = 4


def _nbytes(value):
    """Bytes of the arrays a kept value holds."""
    parts = vars(value).values() if hasattr(value, "__dict__") else value
    return sum(a.nbytes for a in parts if isinstance(a, np.ndarray))


def _kept(f, key, compute):
    """compute(), or the value it gave for key on the same field object and grid
    while f's samples still equal, dtype and all, the copy kept with them; the
    table then sheds fields to fit _KEPT_BYTES.  compute() hands back read-only
    arrays or values no caller changes."""
    entry = _KEPT.pop(f, None)
    samples = f.samples
    if samples.nbytes > _KEPT_BYTES:  # never kept, so neither copied nor compared
        return compute()
    if (entry is None or entry[0] is not f.grid or entry[1].dtype != samples.dtype
            or not np.array_equal(entry[1], samples)):
        entry = [f.grid, np.array(samples), {}, 0]
    values = entry[2]
    if key not in values:
        values[key] = compute()
        if len(values) > _KEPT_KEYS:
            del values[next(iter(values))]
        entry[3] = entry[1].nbytes + sum(map(_nbytes, values.values()))
    if entry[3] <= _KEPT_BYTES:
        _KEPT[f] = entry  # the most recently used last
        while sum(e[3] for e in _KEPT.values()) > _KEPT_BYTES:
            del _KEPT[next(iter(_KEPT))]
    return values[key]


def _point(center):
    return tuple(map(float, center))


def _shells(f, center, radii):
    """`shell_restrict(f, center, radii)`, kept (`_kept`), with read-only arrays."""
    def restrict():
        sh = shell_restrict(f, center, radii)
        sh.radii.flags.writeable = sh.values.flags.writeable = False
        return sh

    return _kept(f, ("shells", _point(center), np.asarray(radii, dtype=float).tobytes()),
                 restrict)


@dataclass(frozen=True)
class FbcParams:
    M: float
    N: float
    alpha: float
    delta: float
    epsilon: float
    theta2: float

    def __post_init__(self):
        if not (0 <= self.epsilon < 0.5):
            raise ValueError("epsilon must lie in [0, 1/2)")
        if not (0 < self.delta <= 1):
            raise ValueError("delta must lie in (0, 1]")


# The proposition's constants contain an absolute constant from the embedding
# and interpolation steps; it is not computed in closed form, so a calibrated
# sufficient value is used.  Raw lhs/rhs are always reported for diagnosis.
FBC_PREFACTOR = 4.0


def _theta2_M(spec, b_norm, R0):
    """theta2 = 1 - zeta0/2 < 1 and M = C (R0^(1-zeta0) ||b||)^(1/theta2) + 1/4
    with C = FBC_PREFACTOR."""
    z = spec.zeta0
    if not z < 2:
        raise ValueError("spec must be strictly below the zeta0 = 2 line")
    th2 = 1.0 - z / 2.0
    return th2, FBC_PREFACTOR * (R0 ** (1.0 - z) * b_norm) ** (1.0 / th2) + 0.25


def fbc_params_sliced(spec, b_norm, R0):
    """FBC constants for b in L^q_t L^beta_r L^gamma_sigma, beta >= n/2,
    zeta0 = 2/q + 1/beta + (n-1)/gamma < 2: alpha = 1/theta2, delta = 1,
    N = eps = 1/4, M = C (R0^(1-zeta0) ||b||)^(1/theta2) + 1/4."""
    if spec.order != SLICED_TR:
        raise ValueError("expected a sliced_tr spec")
    th2, M = _theta2_M(spec, b_norm, R0)
    return FbcParams(M=M, N=0.25, alpha=1.0 / th2, delta=1.0, epsilon=0.25, theta2=th2)


def fbc_params_radial(spec, b_norm, R0):
    """FBC constants for b in L^kappa_r L^q_t L^p_sigma, p <= q,
    zeta0 = 3/q + (n-1)/p < 2: alpha = (1/kappa + (q-1)/q)/theta2,
    delta = 1/2, N = eps = 1/4, M as in `fbc_params_sliced`.  With kappa = p
    this covers L^p_x L^q_t."""
    if spec.order != SLICED_RT:
        raise ValueError("expected a sliced_rt spec")
    th2, M = _theta2_M(spec, b_norm, R0)
    alpha = (1.0 / spec.kappa + (spec.q - 1.0) / spec.q) / th2 if not np.isinf(spec.q) \
        else (1.0 / spec.kappa + 1.0) / th2
    return FbcParams(M=M, N=0.25, alpha=alpha, delta=0.5, epsilon=0.25, theta2=th2)


@dataclass
class FbcReport:
    lhs: float
    rhs: float
    satisfied: bool
    slices: GoodSlices
    terms: dict


def _fbc_inputs(b, u):
    """Refuse a drift and a solution stored at different times (the FBC
    integrands pair b and u at each stored time), or with a non-finite sample."""
    _require_finite(b.samples, "b")
    _require_finite(u.samples, "u")
    gb, gu = b.grid, u.grid
    if not np.array_equal(gb.times, gu.times):
        raise ValueError(f"b and u must be stored at the same times: b has {gb.nt} on "
                         f"[{gb.t0}, {gb.t1}], u has {gu.nt} on [{gu.t0}, {gu.t1}]")


def _flux_average(b_shells, u, center, slices, t0, t1):
    """(1/|A|) * integral over dB_A x I of (u^2/2)(b . n), A the good slices.

    b_shells are b's shells on all of slices.radii, as `_good_slices` returns
    them, and u is sampled on the same radii, so u has one kept shells entry per
    annulus whatever b's good radii are; the sum runs over the good spheres only.
    The sign is that of the outward flux; `fbc_test` negates it for its lhs.
    """
    tidx, tw = _time_selection(u.grid, t0, t1)
    shu = _shells(u, center, slices.radii)
    bn = _component_sum(b_shells.values[tidx] * b_shells.point_normals)
    flux = (shu.values[tidx] ** 2 / 2.0) * bn * shu.point_weights
    total = 0.0
    for (s, e), good in zip(shu.spans, slices.mask):
        if good:
            total += (flux[:, s:e].sum(axis=-1) * tw).sum() * slices.dr
    return total / slices.measure


def _energy_terms(u, center, rho, R, t0, t1):
    """u's FBC energy terms on B_R and B_R \\ B_rho, kept (`_kept`): a new dict
    on every call."""
    key = ("energy", _point(center), rho, R, t0, t1)
    return dict(_kept(u, key, lambda: _box_energy_terms(u, center, rho, R, t0, t1)))


def _box_energy_terms(u, center, rho, R, t0, t1):
    """`_energy_terms`, taken on B_R's box (``fields._box``) with one cell of margin
    and one of halo, whose own derivatives fall outside B_R."""
    g = u.grid
    tidx, tw = _time_selection(g, t0, t1)
    x, span = (np.asarray(center, dtype=float) - g.lo) / g.h - 0.5, R / np.array(g.h)
    box = _box(g, np.floor(x - span).astype(int) - 1, np.ceil(x + span).astype(int) + 2)
    r = np.sqrt(_sq_distance(np.meshgrid(*[g.axis(i)[s] for i, s in enumerate(box)],
                                         indexing="ij"), center))
    ann = (r >= rho) & (r <= R)
    ballm = r <= R
    on_box = u.samples[(tidx,) + box]
    u2 = on_box**2
    g2 = sum(_ddx(on_box, 1 + i, g.h[i], g.bc) ** 2 for i in range(g.n))  # _component_sum's order
    vol = g.cell_volume

    def integral(a, mask):
        return float((a[:, mask].sum(axis=1) * vol * tw).sum())

    return dict(bulk_annulus=integral(u2, ann), bulk_ball=integral(u2, ballm),
                grad_annulus=integral(g2, ann), grad_ball=integral(g2, ballm),
                sup_ball=float((u2[:, ballm].sum(axis=1) * vol).max()))


def fbc_test(b, u, params, center, rho, R, t0, t1, slice_q=INF, slice_p=INF, kappa=1.0):
    """Evaluate both sides of the form boundedness condition.

    lhs = -(1/|A|) iint_{B_A x I} (u^2/2)(b.n), with A from good_slices;
    rhs = M R0^a/(d^a R0^2 (R-rho)^a) * iint_{(B_R\\B_rho) x I} u^2
          + N iint |grad u|^2 + eps sup_t int_{B_R} u^2, with R0 = R.

    b and u must be stored at the same times, with finite samples, checked on
    every call.  b's shells and good slices, and u's shells and energy terms,
    are then kept (`_kept`) for the same field objects, grids and parameters
    while the samples are unchanged: `analysis.fbc_tilde_test` on the same
    annulus samples neither b nor u again, whatever the good radii.  The
    report's slice arrays are read-only.
    """
    _fbc_inputs(b, u)
    slices, b_shells = _good_slices(b, center, rho, R, t0, t1, slice_q, slice_p, kappa)
    lhs = -_flux_average(b_shells, u, center, slices, t0, t1)
    e = _energy_terms(u, center, rho, R, t0, t1)
    a, d = params.alpha, params.delta
    rhs = (params.M * R**a / (d**a * R**2 * (R - rho) ** a) * e["bulk_annulus"]
           + params.N * e["grad_annulus"] + params.epsilon * e["sup_ball"])
    ok = lhs <= rhs * (1.0 + 1e-6) + 1e-12
    return FbcReport(float(lhs), float(rhs), bool(ok), slices, e)
