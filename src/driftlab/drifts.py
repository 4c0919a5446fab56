"""Counterexample drift constructions and the drift decomposition.

Contents:

* a compactly supported divergence-free "cap" U (plug flow e1 inside B2,
  vanishing outside B4), built exactly as a discrete curl of a cut-off
  potential, so the discrete divergence vanishes to round-off;
* the heat-kernel subsolution E = (Gamma - c_n)_+ and its support radius;
* the borderline speed schedule: the envelope S(t) = (t log(1/t) loglog(1/t))^-1
  whose time integral is logloglog(1/t).  Its blocks live in u =
  logloglog(1/t) coordinates, where the schedule integrals are exact
  (dt * envelope = du); the times t_k themselves collapse triple-exponentially
  and are not float-representable for the canonical per-block speed, so all
  norm bookkeeping is done in u;
* moving-block drift assemblies (blocks = cap * rescaled unit-mass bump speed,
  ``AssemblyBlock.speed``, along a trajectory) together with their companion
  subsolutions, in both the time-reversed "accumulating singular times"
  ordering and the self-similar ordering with R_k^2 = |I_k|;
* the steady log-log shear counterexample on a slab (n >= 3);
* the periodic Hodge-type decomposition b = -div a + b2 with antisymmetric a.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import (Grid, SpaceTimeField, ZERO, _box, _box_bc, _component_sum,
                     _curl_components, _ddx, _require_finite, curl, divergence)

E_CONST = float(np.e)
C0_DEFAULT = float(np.exp(-np.e))  # largest time with logloglog(1/t) >= 0


def _quad(f, a, b, limit):
    """int_a^b f by scipy's adaptive quad, imported on the first call so that
    importing driftlab does not load scipy."""
    from scipy.integrate import quad
    return quad(f, a, b, limit=limit)[0]


# ---------------------------------------------------------------------------
# smooth profiles


def smoothstep(s):
    """Quintic 0 -> 1 ramp, C^2 at both ends."""
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def bump_unit(s):
    """Unit-mass C^2 bump on (0, 1): 140 s^3 (1-s)^3."""
    s = np.asarray(s, dtype=float)
    out = np.where((s > 0) & (s < 1), 140.0 * s**3 * (1.0 - s) ** 3, 0.0)
    return out


BUMP_MAX = 140.0 / 64.0


def bump_integral(s):
    """Antiderivative of bump_unit: 0 at 0, 1 at 1."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return 35.0 * s**4 - 84.0 * s**5 + 70.0 * s**6 - 20.0 * s**7


# ---------------------------------------------------------------------------
# divergence-free cap


def _chi(r, r0, r1):
    return 1.0 - smoothstep((np.asarray(r, dtype=float) - r0) / (r1 - r0))


def _cap_potential(X, r0, r1):
    """Potential of the cap at the points with coordinates X; its curl is e1
    where chi = 1.  2D: the stream function psi = -y chi(r).  3D: the vector
    potential chi(r) (0, -z/2, y/2) as a (3, *shape) array."""
    c = _chi(np.sqrt(sum(x**2 for x in X)), r0, r1)
    if len(X) == 2:
        return -X[1] * c
    return np.stack([np.zeros_like(c), -0.5 * X[2] * c, 0.5 * X[1] * c])


def _dchi(r, r0, r1):
    s = (np.asarray(r, dtype=float) - r0) / (r1 - r0)
    ds = np.where((s > 0) & (s < 1), 30.0 * s**2 * (1.0 - s) ** 2, 0.0)
    return -ds / (r1 - r0)


def cap_velocity(points, r0=3.0, r1=3.8, n=2):
    """Analytic cap velocity U(x) (exactly solenoidal as a continuum field)."""
    pts = np.asarray(points, dtype=float)
    r = np.sqrt(_component_sum(pts**2))
    rsafe = np.maximum(r, 1e-300)
    c = _chi(r, r0, r1)
    dc = _dchi(r, r0, r1)
    out = np.zeros_like(pts)
    if n == 2:
        out[..., 0] = c + pts[..., 1] ** 2 * dc / rsafe
        out[..., 1] = -pts[..., 0] * pts[..., 1] * dc / rsafe
    else:
        out[..., 0] = c + 0.5 * (pts[..., 1] ** 2 + pts[..., 2] ** 2) * dc / rsafe
        out[..., 1] = -0.5 * pts[..., 0] * pts[..., 1] * dc / rsafe
        out[..., 2] = -0.5 * pts[..., 0] * pts[..., 2] * dc / rsafe
    return out


@dataclass
class BogovskiiCap:
    """Divergence-free plug cap: U = e1 on B2 exactly, supported in B4."""

    n: int
    ramp: tuple
    field: SpaceTimeField
    div_residual: float

    @property
    def sup_norm(self):
        return self.lp_norm(np.inf)

    def lp_norm(self, p):
        """L^p(R^n) norm of |U| from the samples."""
        mag = np.sqrt(_component_sum(self.field.samples[0] ** 2))
        if np.isinf(p):
            return float(mag.max())
        return float(((mag**p).sum() * self.field.grid.cell_volume) ** (1.0 / p))


def build_bogovskii_cap(resolution=128, n=2, ramp=(3.0, 3.8)):
    """Build the cap by applying the discrete curl to the cut-off potential,
    on the zero-boundary box [-4.2, 4.2]^n.

    Centered differences commute, so the discrete divergence of a discrete
    curl vanishes identically; the potential is linear where the cutoff is 1,
    so U equals e1 exactly at all samples of B2.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64 per axis")
    if not (2.0 < ramp[0] < ramp[1] < 4.0):
        raise ValueError("cutoff ramp must sit strictly between B2 and B4")
    g = Grid(n, (-4.2,) * n, (4.2,) * n, (resolution,) * n, bc=ZERO)
    h = g.h[0]
    if ramp[1] + 2 * h > 4.0 or ramp[0] - 2 * h < 2.0:
        raise ValueError("grid too coarse for the cutoff ramp")
    f = SpaceTimeField(g, curl(_cap_potential(g.meshgrid(), *ramp), g)[None], n)
    res = float(np.abs(divergence(f).samples).max())
    if res > 1e-6:
        raise RuntimeError(f"cap divergence residual {res:.2e} above 1e-6")
    return BogovskiiCap(n, ramp, f, res)


# ---------------------------------------------------------------------------
# heat-kernel subsolution


def heat_kernel(x, t, n):
    """Gaussian fundamental solution at points x (last axis = components)."""
    r2 = _component_sum(np.asarray(x, dtype=float) ** 2)
    return (4.0 * np.pi * t) ** (-n / 2.0) * np.exp(-r2 / (4.0 * t))


def subsolution_level(n):
    """The truncation level c_n = (8 pi)^(-n/2)."""
    return (8.0 * np.pi) ** (-n / 2.0)


def heat_subsolution(x, t, n):
    """E(x, t) = (Gamma(x,t) - c_n)_+ and its support radius R(t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    val = np.maximum(heat_kernel(x, t, n) - subsolution_level(n), 0.0)
    return val, subsolution_radius(t, n)


def subsolution_radius(t, n):
    """R(t)^2 = 2 n t log(2/t) for t < 2; the subsolution vanishes for t >= 2."""
    t = np.asarray(t, dtype=float)
    r2 = np.where((t > 0) & (t < 2), 2.0 * n * t * np.log(np.maximum(2.0 / t, 1.0)), 0.0)
    return np.sqrt(r2)


# ---------------------------------------------------------------------------
# speed schedules


def speed_envelope(t):
    """S(t) = (t log(1/t) loglog(1/t))^-1, the borderline envelope (t <= e^-e)."""
    t = np.asarray(t, dtype=float)
    L = np.log(1.0 / t)
    return 1.0 / (t * L * np.log(L))


def u_of_t(t):
    """u = logloglog(1/t); the envelope's exact antiderivative (decreasing in t)."""
    return np.log(np.log(np.log(1.0 / np.asarray(t, dtype=float))))


def t_of_u(u):
    """Inverse of u_of_t; underflows to 0.0 for u beyond ~1.9 (tracked in u)."""
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(-np.exp(np.exp(np.asarray(u, dtype=float))))


@dataclass
class BorderlineBlock:
    """One schedule block in u = logloglog(1/t) coordinates.

    The cutoff phi_k is a plateau with quintic ramps of width `ramp` at both
    ends, so int phi du = (u_hi - u_lo) - ramp and S_k = envelope * phi <=
    envelope on the block's support (t decreasing <-> u increasing).
    """

    u_lo: float
    u_hi: float
    ramp: float

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        up = smoothstep((u - self.u_lo) / self.ramp)
        down = smoothstep((self.u_hi - u) / self.ramp)
        return np.where((u > self.u_lo) & (u < self.u_hi), np.minimum(up, down), 0.0)

    def speed(self, t):
        """S_k(t) where t is representable; 0 outside the support."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = u_of_t(t)
            s = speed_envelope(t) * self.phi(u)
        return np.where(np.isfinite(s), s, 0.0)

    def integral(self):
        """int S_k dt = int phi du, by adaptive quadrature in u."""
        return _quad(self.phi, self.u_lo, self.u_hi, limit=200)

    @property
    def t_interval(self):
        """(t_k, t_k') as floats; either may underflow to exactly 0.0."""
        return float(t_of_u(self.u_hi)), float(t_of_u(self.u_lo))


BORDERLINE = "borderline"
BLOCK_RESCALED = "block_rescaled"


@dataclass
class SpeedSchedule:
    c0: float
    M: float
    blocks: list

    def total_speed(self):
        return sum(b.integral() for b in self.blocks)


def borderline_schedule(K, c0=C0_DEFAULT, M=None, n=2, ramp_frac=0.1, gap_frac=0.02):
    """K disjoint blocks drawing mass M (default 20 n) from the envelope.

    Blocks are laid out in u = logloglog(1/t): block k spans a u-interval of
    width M + ramp so that int S_k dt = M exactly, with small gaps between
    consecutive blocks.  t_k' = c0 for the first block.
    """
    if K < 1:
        raise ValueError("need at least one block")
    if not 0 < c0 <= C0_DEFAULT + 1e-15:
        raise ValueError("c0 must lie in (0, e^-e] so the antiderivative is defined")
    if M is None:
        M = 20.0 * n
    if M <= 0:
        raise ValueError("block mass must be positive")
    ramp = ramp_frac * M
    width = M + ramp
    gap = gap_frac * M
    if not width > 2 * ramp:
        raise ValueError("K blocks cannot fit with this ramp fraction")
    u0 = float(u_of_t(c0))
    blocks = []
    for k in range(K):
        lo = u0 + k * (width + gap)
        blocks.append(BorderlineBlock(lo, lo + width, ramp))
    return SpeedSchedule(c0, M, blocks)


def envelope_integral(a, b):
    """int_a^b S(t) dt by adaptive quadrature (both endpoints representable)."""
    return _quad(lambda t: float(speed_envelope(t)), a, b, limit=400)


def borderline_block_lqlp(block, q, n, cap_lp):
    """L^q_t L^p_x norm of a borderline moving-cap block on the critical line.

    On the line 2/q + n/p = 2 (q > 1) the b-block b(x,t) =
    S_k(t) U((x - X)/R(t)) with R(t)^2 = 2 n t log(2/t) has
    ||b(.,t)||_p = S_k R^{n/p} ||U||_p, and in u coordinates the integrand
    collapses exactly: S^{q-1} R^{2(q-1)} = (2n)^{q-1} w^{1-q}
    (1 + log2 e^{-w})^{q-1}, w = e^u, so everything is float-safe.
    """
    if not q > 1 or np.isinf(q):
        raise ValueError("the critical-line family needs 1 < q < inf")

    def integrand(u):
        if u > 700.0:
            return 0.0
        w = np.exp(u)
        ew = np.exp(-w) if w < 700 else 0.0
        base = (2.0 * n / w) * (1.0 + np.log(2.0) * ew)
        return base ** (q - 1.0) * block.phi(u) ** q

    return cap_lp * _quad(integrand, block.u_lo, block.u_hi, limit=200) ** (1.0 / q)


def borderline_partial_sums(schedule, q, n, cap_lp, cap_sup):
    """Per-block and cumulative norms of the borderline assembly.

    Returns (l1linf partial sums, lqlp partial sums) over block count; the
    L^1_t L^inf_x sums grow linearly in the block count (each block carries
    speed mass M), i.e. like the logloglog span, while the critical-line
    L^q_t L^p_x sums are Cauchy.
    """
    l1linf, lqlp = [], []
    acc1, accq = 0.0, 0.0
    for b in schedule.blocks:
        acc1 += b.integral() * cap_sup
        accq += borderline_block_lqlp(b, q, n, cap_lp) ** q
        l1linf.append(acc1)
        lqlp.append(accq ** (1.0 / q))
    return np.array(l1linf), np.array(lqlp)


# ---------------------------------------------------------------------------
# moving-block assemblies


@dataclass
class AssemblyBlock:
    """A moving cap block with its companion subsolution.

    The block is active on the global window (t0, t1) with spatial scale
    R = sqrt(t1 - t0) (parabolic consistency makes the rescaled subsolution
    exact).  The cap travels `travel` along e1 from x_start with unit-mass
    bump speed; internal heat time is tau = (t - t0)/R^2 in (0, 1).
    """

    t0: float
    t1: float
    R: float
    A: float
    travel: float
    x_start: np.ndarray
    n: int
    ramp: tuple = (2.2, 3.8)

    def __post_init__(self):
        for ok, what in (
                (self.n in (2, 3), "dimension n must be 2 or 3"),
                (np.shape(self.x_start) == (self.n,) and np.isfinite(self.x_start).all(),
                 "x_start must have n finite entries"),
                (len(self.ramp) == 2 and 0 <= self.ramp[0] < self.ramp[1] < np.inf,
                 "ramp must be two increasing radii"),
                (-np.inf < self.t0 < self.t1 < np.inf, "window needs finite t0 < t1"),
                (0 < self.R < np.inf, "scale R must be finite and positive"),
                (0 <= self.A < np.inf, "amplitudes must be finite and nonnegative"),
                (np.isfinite(self.travel), "travel must be finite")):
            if not ok:
                raise ValueError(f"assembly block: {what}")

    @property
    def width(self):
        return self.t1 - self.t0

    def speed(self, t):
        return (self.travel / self.width) * bump_unit((t - self.t0) / self.width)

    def max_speed(self):
        return BUMP_MAX * self.travel / self.width

    def position(self, t):
        s = np.clip((np.asarray(t, dtype=float) - self.t0) / self.width, 0.0, 1.0)
        off = self.travel * bump_integral(s)
        pos = np.broadcast_to(self.x_start, np.shape(s) + (self.n,)).copy()
        pos[..., 0] += off
        return pos

    def active(self, t):
        return (t > self.t0) & (t < self.t1)

    def potential(self, t, X):
        """Potential (as `_cap_potential`) of S(t) U((x - X(t))/R) at the
        points with coordinates X."""
        pos = self.position(float(t))
        Y = [(x - p) / self.R for x, p in zip(X, pos)]
        return self.speed(t) * self.R * _cap_potential(Y, *self.ramp)

    def velocity(self, t, pts):
        """Analytic block velocity at points (for diagnostics)."""
        S = self.speed(float(t))
        if S == 0.0:
            return np.zeros(np.shape(pts))
        X = self.position(float(t))
        return S * cap_velocity((np.asarray(pts) - X) / self.R, *self.ramp, n=self.n)

    # -- companion subsolution

    def subsolution(self, t, pts):
        """A R^-n E((x - X)/R, tau); vanishes outside the active window."""
        t = float(t)
        if not (self.t0 < t < self.t1):
            return np.zeros(np.shape(pts)[:-1])
        tau = (t - self.t0) / self.R**2
        X = self.position(t)
        val, _ = heat_subsolution((np.asarray(pts) - X) / self.R, tau, self.n)
        return self.A * self.R ** (-self.n) * val


@dataclass
class DriftAssembly:
    blocks: list
    n: int
    kind: str

    def __post_init__(self):
        if self.kind not in (BORDERLINE, BLOCK_RESCALED):
            raise ValueError(f"unknown assembly kind {self.kind!r}")
        prev = -np.inf
        for b in self.blocks:
            if b.n != self.n:
                raise ValueError(f"a {b.n}D block in a {self.n}D assembly")
            if b.t0 < prev - 1e-12:
                raise ValueError("assembly blocks overlap in time")
            prev = b.t1

    # -- scalar summaries

    def total_displacement(self, block):
        return _quad(block.speed, block.t0, block.t1, limit=200)

    # -- field materialization

    def potential(self, t, X):
        """Sum of the active blocks' potentials at the points with coordinates X."""
        out = np.zeros(np.shape(X[0]) if self.n == 2 else (3,) + np.shape(X[0]))
        for b in self.blocks:
            if b.active(t):
                out = out + b.potential(t, X)
        return out

    def drift_function(self, grid):
        """fn(t, *X): ``curl(self.potential(t, X), grid)``, the cell-centered drift
        (div-free exactly) at grid's cell centers X, evaluated only on the box of
        the cells within ramp[1]·R of an active block, where a cutoff is not 0,
        widened by one cell for the stencil (``fields._box``)."""
        negated = np.signbit(_curl_components((0.0,) * 3, grid.n, lambda a, axis: 0.0))
        def fn(t, *X):
            # outside the box: the curl of a zero potential, with its signs of zero
            out = np.zeros(tuple(grid.shape) + (grid.n,))
            out[..., negated] = -0.0  # component 0 in 2D, none in 3D
            caps = [(b.position(float(t)), b.ramp[1] * b.R) for b in self.blocks if b.active(t)]
            if caps:
                lo = np.floor((np.min([p - r for p, r in caps], 0) - grid.lo) / grid.h - 0.5)
                hi = np.ceil((np.max([p + r for p, r in caps], 0) - grid.lo) / grid.h - 0.5)
                box = _box(grid, lo.astype(int) - 1, hi.astype(int) + 2)
                bc = _box_bc(grid, box)
                out[box] = np.stack(_curl_components(
                    self.potential(t, [x[box] for x in X]), grid.n,
                    lambda a, axis: _ddx(a, axis, grid.h[axis], bc[axis])), axis=-1)
            return out
        return fn

    def sample_drift(self, grid):
        return SpaceTimeField.from_function(grid, self.drift_function(grid), grid.n)

    def sample_subsolution(self, grid):
        pts = np.stack(grid.meshgrid(), axis=-1)
        return SpaceTimeField.from_function(grid, lambda t, *X: self.subsolution_at(t, pts))

    def subsolution_at(self, t, pts):
        out = np.zeros(np.shape(pts)[:-1])
        for b in self.blocks:
            out = out + b.subsolution(t, pts)
        return out

    # -- manifest (structured text, re-materializable bit-exactly)

    def manifest(self):
        lines = [f"kind = {self.kind}", f"n = {self.n}",
                 f"blocks = {len(self.blocks)}"]
        for i, b in enumerate(self.blocks):
            xs = ",".join(repr(float(v)) for v in b.x_start)
            lines.append(
                f"block.{i} = t0:{float(b.t0)!r} t1:{float(b.t1)!r} "
                f"R:{float(b.R)!r} A:{float(b.A)!r} travel:{float(b.travel)!r} "
                f"x_start:{xs} ramp:{float(b.ramp[0])!r},{float(b.ramp[1])!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_manifest(cls, text):
        """Inverse of manifest(); a missing key raises ValueError naming it."""
        kv = {}
        blocks = []
        for line in text.strip().splitlines():
            key, _, val = line.partition(" = ")
            kv[key.strip()] = val.strip()
        try:
            n = int(kv["n"])
            for i in range(int(kv["blocks"])):
                parts = dict(p.split(":", 1) for p in kv[f"block.{i}"].split(" "))
                blocks.append(AssemblyBlock(
                    t0=float(parts["t0"]), t1=float(parts["t1"]), R=float(parts["R"]),
                    A=float(parts["A"]), travel=float(parts["travel"]),
                    x_start=np.array([float(v) for v in parts["x_start"].split(",")]),
                    n=n, ramp=tuple(float(v) for v in parts["ramp"].split(","))))
            return cls(blocks, n, kv["kind"])
        except KeyError as e:
            raise ValueError(f"drift manifest is missing key {e.args[0]!r}") from None


def assemble_borderline(K, amplitudes=None, n=2, scale0=0.3, ratio=0.85,
                        travel=None, end_time=0.98, gap_frac=0.02,
                        x_start=None):
    """Time-reversed block assembly whose active windows accumulate at t ~ 1.

    Block k has spatial scale R_k = scale0 ratio^(k-1) and window length
    R_k^2; windows are stacked in order with small gaps so the k-th (smallest,
    most intense) window is the latest.  Default travel is 20 n with start
    -10 n e1 (the canonical normalization); pass a smaller travel for
    grid-resolvable runs (it only needs to clear the observation ball).
    """
    if K < 1:
        raise ValueError("need at least one block")
    scales = scale0 * ratio ** np.arange(K)
    widths = scales**2
    total = widths.sum() * (1.0 + gap_frac)
    if total >= end_time:
        raise ValueError("blocks do not fit before the accumulation time")
    windows = []
    t = end_time - total
    for w in widths:
        windows.append((t, t + w))
        t += w * (1.0 + gap_frac)
    return _assembly(BORDERLINE, windows, scales, amplitudes, n, travel, x_start)


def assemble_selfsimilar(t_seq, amplitudes=None, n=2, travel=None, x_start=None):
    """Blocks on consecutive intervals I_k = (t_k, t_k+1), R_k^2 = |I_k|."""
    t_seq = np.asarray(t_seq, dtype=float)
    if np.any(np.diff(t_seq) <= 0):
        raise ValueError("t_k must be strictly increasing")
    windows = [(float(a), float(b)) for a, b in zip(t_seq[:-1], t_seq[1:])]
    return _assembly(BLOCK_RESCALED, windows, np.sqrt(np.diff(t_seq)), amplitudes, n,
                     travel, x_start)


def _assembly(kind, windows, scales, amplitudes, n, travel, x_start):
    """Blocks on the time windows (t0, t1) with spatial scales R_k.

    Defaults: the pruning rule A_k = 1/(k^2 max(1, sup_t ||E_k||_L1)) = 1/k^2
    (the rescaled subsolution has sup_t L^1 mass sup_t int (Gamma - c_n)_+ < 1),
    travel 20 n, and start -travel/2 e1.
    """
    K = len(windows)
    if amplitudes is None:
        amplitudes = [1.0 / k**2 for k in range(1, K + 1)]
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape != (K,):
        raise ValueError("need K amplitudes, one per block")
    travel = 20.0 * n if travel is None else float(travel)
    if x_start is None:
        x_start = np.zeros(n)
        x_start[0] = -travel / 2.0
    x_start = np.asarray(x_start, dtype=float)
    blocks = [AssemblyBlock(t0, t1, float(R), float(A), travel, x_start, n)
              for (t0, t1), R, A in zip(windows, scales, amplitudes)]
    return DriftAssembly(blocks, n, kind)


# ---------------------------------------------------------------------------
# steady log-log shear counterexample (n >= 3)


def _mollifier_profile(s):
    """Standard bump exp(-1/(1-s^2)) on (-1, 1), unnormalized."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
    return out


def _radial_mollify(profile_fn, r, eps, d):
    """d-dimensional mollification of a radial function, on radial samples.

    u_eps(r) = int_{R^d} phi_eps(y) u(|x - y|) dy evaluated with a 48 x 96
    midpoint polar quadrature; commutes with the d-dimensional Laplacian,
    which keeps sign structure (V_eps <= 0) exact.  Implemented for d = 2
    (i.e. n = 3).
    """
    if d != 2:
        raise NotImplementedError("slab construction implemented for n = 3 (d = 2)")
    s_nodes = (np.arange(48) + 0.5) / 48  # radius fraction in (0,1)
    phi_nodes = 2.0 * np.pi * (np.arange(96) + 0.5) / 96
    w = _mollifier_profile(s_nodes) * s_nodes
    w = w / w.sum()  # radial mass weights (angular part uniform)
    r = np.asarray(r, dtype=float)
    ss = eps * s_nodes[None, :, None]
    cos = np.cos(phi_nodes[None, None, :])
    out = np.empty(len(r))
    for i in range(0, len(r), 128):  # radii are independent: chunks keep temporaries small
        # |x - y| for x = (r, 0), y = eps*s*(cos, sin)
        rr = r[i:i + 128, None, None]
        dist = np.sqrt(rr**2 + ss**2 - 2.0 * rr * ss * cos)
        vals = profile_fn(np.maximum(dist, 1e-300))
        out[i:i + 128] = (vals.mean(axis=2) * w[None, :]).sum(axis=1)
    return out


def loglog_profile(r):
    return np.log(np.log(1.0 / np.asarray(r, dtype=float)))


def loglog_laplacian(r, d=2):
    """Exact radial d-Laplacian of loglog(1/r): -((d-2)L + 1)/(r L)^2 / ...

    For d = 2 this is -(r log(1/r))^-2.
    """
    r = np.asarray(r, dtype=float)
    L = np.log(1.0 / r)
    return -((d - 2.0) * L + 1.0) / (r**2 * L**2)


@dataclass
class EllipticCounterexample:
    """Steady shear drift b = V_eps(r) e_z on the slab B_R0 x (0,1) in R^n.

    u_eps is the mollified log log(1/r) profile in R^(n-1); V_eps =
    (Lap u)_eps / u_eps <= 0; theta_lower = z u_eps(r) is a subsolution and
    theta_upper = u_eps(r) a supersolution of the steady problem.
    """

    n: int
    R0: float
    eps: float
    r: np.ndarray
    u_eps: np.ndarray
    lap_u_eps: np.ndarray

    @property
    def V_eps(self):
        return self.lap_u_eps / self.u_eps

    def interp_u(self, rq):
        return np.interp(np.abs(rq), self.r, self.u_eps)

    def interp_V(self, rq):
        return np.interp(np.abs(rq), self.r, self.V_eps)

    def v_norm(self):
        """||V_eps||_{L^{(n-1)/2}} over the disc of radius R0/2."""
        radius = self.R0 / 2.0
        p = (self.n - 1) / 2.0
        m = self.r <= radius
        rm = self.r[m]
        w = np.empty_like(rm)
        w[:-1] = np.diff(rm)
        w[-1] = max(radius - rm[-1], 0.0)
        integrand = 2.0 * np.pi * rm * np.abs(self.V_eps[m]) ** p
        return float((integrand * w).sum() ** (1.0 / p))

    def sup_lower(self):
        """sup over B_{R0/4} x (0, 1) of theta_lower = z u_eps."""
        return float(self.u_eps[self.r <= self.R0 / 4.0].max())

    def slab_fields(self, grid):
        """Materialize b, theta_lower, theta_upper on a 3D grid (z = last axis)."""
        if grid.n != 3:
            raise ValueError("slab fields need a 3D grid")
        X, Y, Z = grid.meshgrid()
        r = np.sqrt(X**2 + Y**2)
        u = self.interp_u(r)
        V = self.interp_V(r)
        b = np.zeros((grid.nt,) + tuple(grid.shape) + (3,))
        b[..., 2] = V
        lower = np.broadcast_to(Z * u, (grid.nt,) + tuple(grid.shape)).copy()
        upper = np.broadcast_to(u, (grid.nt,) + tuple(grid.shape)).copy()
        return (SpaceTimeField(grid, b, 3), SpaceTimeField(grid, lower),
                SpaceTimeField(grid, upper))


def build_elliptic(n=3, R0=C0_DEFAULT, eps=None):
    """Mollified log-log profile family on a logarithmic radial grid.

    The 2048-point log grid reaches from min(eps 1e-3, R0 1e-6), far below
    eps, so profiles stay accurate for mollification scales down to ~1e-15
    (where the loglog growth of sup theta_lower is actually observable).
    """
    if n < 3:
        raise ValueError("the slab construction needs n >= 3")
    if not np.log(np.log(1.0 / R0)) > 0:
        raise ValueError("R0 too large: loglog(1/R0) must be positive")
    eps = R0 / 8.0 if eps is None else float(eps)
    if not 0 < eps < R0 / 2.0:
        raise ValueError("eps must lie in (0, R0/2)")
    d = n - 1
    r = np.geomspace(min(eps * 1e-3, R0 * 1e-6), R0 * 1.0000001, 2048)
    u_eps = _radial_mollify(loglog_profile, r, eps, d)
    lap = _radial_mollify(lambda s: loglog_laplacian(s, d), r, eps, d)
    if np.any(u_eps < 0) or np.any(lap > 1e-12):
        raise RuntimeError("profile sign structure violated")
    return EllipticCounterexample(n, float(R0), eps, r, u_eps, np.minimum(lap, 0.0))


# ---------------------------------------------------------------------------
# periodic Hodge-type decomposition


def _wavenumbers(grid):
    """Symbols on the half spectrum of ``np.fft.rfftn`` over the grid's axes: (d, k2, nyq).

    d[i] (shaped to broadcast along axis i) is the derivative symbol i·k_i, 0 at
    an even axis's Nyquist entry, whose term ``np.real(np.fft.ifftn(...))``
    dropped: so every product stays Hermitian and ``irfftn`` is exact.  k2 = |k|²
    keeps the Nyquist entries, and nyq[i] holds them (|k_i| there, 0 elsewhere).
    A centred derivative would swap d[i] for i·sin(k_i h_i)/h_i.
    """
    d, nyq, k2 = [], [], 0.0
    for i, m in enumerate(grid.shape):
        freq = np.fft.rfftfreq if i == grid.n - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(m, d=(grid.hi[i] - grid.lo[i]) / m)
        k = k.reshape((-1,) + (1,) * (grid.n - 1 - i))
        nyq.append(np.where(np.arange(len(k)).reshape(k.shape) * 2 == m, np.abs(k), 0.0))
        d.append(np.where(nyq[-1] > 0, 0.0, 1j * k))
        k2 = k2 + k**2
    return d, k2, nyq


def _minus_div(ah, d):
    """The spectra of -div a for one time slice, (-div a)_i = -d_l a_il, from the
    spectra ah[i, l] of a's entries with i < l (a_li = -a_il)."""
    tot = [0.0] * len(d)
    for (i, l), h in ah.items():
        tot[i] = tot[i] - d[l] * h
        tot[l] = tot[l] + d[i] * h
    return tot


def _half_weights(m):
    """Half-spectrum column weights, m cells: an interior column stands for its mirror too."""
    col = np.arange(m // 2 + 1)
    return 2.0 - (col == 0) - (2 * col == m)


@dataclass
class HodgeDecomposition:
    """b = -div a + b2, per time slice, on real FFTs (see ``hodge_decompose``)."""

    a: np.ndarray          # (nt, *shape, n, n), antisymmetric stream matrix
    b2: SpaceTimeField     # remainder (constant mode + non-solenoidal part)
    grid: Grid
    residual: float        # solenoidal share of b2 (ROADMAP item 6's sign)
    reconstruction_error: float  # max|(b2 - div a) - b| / max|b|, formed with b2

    def a_l2(self):
        return float(np.sqrt(np.vdot(self.a, self.a) * self.grid.cell_volume
                             * (self.grid.dt if self.grid.nt > 1 else 1.0)))

    def reconstruct(self):
        """-div a (spectral) plus b2; reproduces the input field."""
        g, axes = self.grid, tuple(range(self.grid.n))
        d = _wavenumbers(g)[0]
        out = np.array(self.b2.samples)
        for j in range(g.nt):
            ah = {(i, l): np.fft.rfftn(self.a[j, ..., i, l], axes=axes)
                  for i in range(g.n) for l in range(i + 1, g.n)}
            out[j] += np.stack([np.fft.irfftn(t, s=g.shape, axes=axes)
                                for t in _minus_div(ah, d)], axis=-1)
        return SpaceTimeField(g, out, g.n)


def hodge_decompose(b):
    """Split periodic b into -div a (antisymmetric a) plus remainder b2.

    a_ij = inverse-Laplacian of (d_i b_j - d_j b_i), per time slice on the half
    spectrum of real FFTs: one ``rfftn`` per component, one ``irfftn`` per a_il
    with i < l and one per component of -div a, whose spectrum is formed from
    a's (5 in 2D, 9 in 3D), and a derivative of 0 at an even axis's Nyquist
    entry.  For divergence-free mean-zero b this reproduces b exactly, the
    constant Fourier mode is routed to b2, and a non-finite sample is refused.
    """
    g = b.grid
    if g.bc != "periodic":
        raise ValueError("decomposition needs a periodic grid")
    if b.ncomp != g.n:
        raise ValueError("expected a vector field")
    _require_finite(b.samples, "the drift")
    d, k2, nyq = _wavenumbers(g)
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    w = _half_weights(g.shape[-1])
    n, axes = g.n, tuple(range(g.n))
    a = np.zeros((g.nt,) + tuple(g.shape) + (n, n))
    # b2 carries whatever -div a missed, including the constant Fourier mode
    rem = np.empty_like(b.samples)
    denom = leak = err = scale = 0.0
    for j in range(g.nt):
        scale = max(scale, np.abs(b.samples[j]).max())  # no temporary the size of b
        bh = [np.fft.rfftn(b.samples[j, ..., c], axes=axes) for c in range(n)]
        for c in range(n):
            denom += (w * np.abs(bh[c]) ** 2).sum()
        # a_il solves Lap a_il = d_i b_l - d_l b_i
        ah = {(i, l): -(d[i] * bh[l] - d[l] * bh[i]) * inv
              for i in range(n) for l in range(i + 1, n)}
        for (i, l), h in ah.items():
            arr = np.fft.irfftn(h, s=g.shape, axes=axes)
            a[j, ..., i, l] = arr
            a[j, ..., l, i] = -arr
        tot = _minus_div(ah, d)  # the spectra of b1 = -div a, from a's
        for c in range(n):
            b1 = np.fft.irfftn(tot[c], s=g.shape, axes=axes)
            rem[j, ..., c] = b.samples[j, ..., c] - b1
            err = max(err, np.abs(rem[j, ..., c] + b1 - b.samples[j, ..., c]).max())
        # The residual measures the mean-zero solenoidal content of b2, which
        # is exactly what the antisymmetric potential is supposed to absorb.
        rh = [bh[c] - tot[c] for c in range(n)]  # b2's spectra
        # sol = rh - ik div/|k|² with div = ik·rh, summed over the full spectrum:
        # |sol|² = |rh|² + 3|k·rh|²/|k|² (the sign is ROADMAP item 6's defect).
        # Over a conjugate pair |k·rh|² sums to 2(|d·rh|² + |nyq·rh|²).
        div = sum(d[c] * rh[c] for c in range(n))
        top = sum(nyq[c] * rh[c] for c in range(n))
        sol2 = sum(np.abs(r) ** 2 for r in rh) + 3.0 * (np.abs(div) ** 2 + np.abs(top) ** 2) * inv
        sol2[(0,) * n] = 0.0
        leak += float((w * sol2).sum())
    res = 0.0 if denom == 0 else float(np.sqrt(leak / denom))
    return HodgeDecomposition(a, SpaceTimeField(g, rem, n), g, res, float(err / max(scale, 1e-300)))


def hminus1_proxy(b):
    """Spectral H^-1-type norm: 1/|k| weight (1 on the mean mode); refuses a non-finite sample."""
    g = b.grid
    _require_finite(b.samples, "the field")
    k2 = _wavenumbers(g)[1]
    wgt = np.where(k2 > 0, 1.0 / np.maximum(k2, 1e-300), 1.0) * _half_weights(g.shape[-1])
    total = 0.0
    npts = float(np.prod(g.shape))
    tw = (g.dt if g.nt > 1 else 1.0)
    for j in range(g.nt):
        for c in range(g.n):
            bh = np.fft.rfftn(b.samples[j, ..., c], axes=tuple(range(g.n))) / npts
            total += ((np.abs(bh) ** 2) * wgt).sum() * tw
    vol = float(np.prod([g.hi[i] - g.lo[i] for i in range(g.n)]))
    return float(np.sqrt(total * vol))
