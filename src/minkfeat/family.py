"""One-parameter family sweeps, event detection and the A3 unfolding
machinery on the swallowtail discriminant.

A family deforms the graph function of a base patch by polynomials in t
that vanish at t = 0, mirroring z = f(x,y) + h(x,y,t).  Sweeps sample
integer-valued monitors (intersection counts, umbilic counts, component
counts, sign monitors) over the t-range and localize every change by
bisection.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .jets import Jet2, ift_series
from .patch import MongePatch, feature_fields, fundamental_forms, bde_jets
from .tracer import Rect, trace, intersect, _lstsq_rows, _merge_points, _newton_rows, _solve_rows
from .classify import series_along_graph

__all__ = [
    "FamilySpec",
    "BifurcationEvent",
    "SweepResult",
    "EventBracketError",
    "FitResidualTooLarge",
    "sweep",
    "umbilic_points",
    "umbilic_tracker",
    "SwallowtailPoint",
    "swallowtail_stratum",
    "swallowtail_phi",
    "a3_deformation_path",
    "IntersectionMonitor",
    "UmbilicCountMonitor",
    "ComponentMonitor",
    "IsolatedZeroMonitor",
    "UmbilicOnCurveMonitor",
]

log = logging.getLogger(__name__)


class EventBracketError(RuntimeError):
    """A monitored count change could not be bracketed cleanly."""


class FitResidualTooLarge(RuntimeError):
    """Versal-parameter fit left a residual beyond tolerance."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"versal fit residual {residual:g}")


@dataclass(frozen=True)
class FamilySpec:
    """base patch plus coefficient perturbations polynomial in t.

    ``perturbation`` maps (s, i) to the ascending t-coefficients
    (c1, c2, ...) of a_si(t) = a_si + c1 t + c2 t^2 + ...; the missing
    constant term enforces h(x, y, 0) = 0.
    """

    base: MongePatch
    perturbation: dict
    t_range: tuple = (-0.01, 0.01)
    samples: int = 41

    def patch_at(self, t: float) -> MongePatch:
        if t == 0.0:
            return self.base
        k = self.base.degree
        c = np.array(self.base.f.c)
        for (s, i), tc in self.perturbation.items():
            c[s - i, i] += sum(ck * t ** (j + 1) for j, ck in enumerate(tc))
        return MongePatch(self.base.form, Jet2(k, c), normalized=False)

    def linear_part(self) -> Jet2:
        """Jet of the t-derivative of the deformation at t = 0."""
        k = self.base.degree
        c = np.zeros((k + 1, k + 1))
        for (s, i), tc in self.perturbation.items():
            if tc:
                c[s - i, i] = tc[0]
        return Jet2(k, c)

    def ts(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.samples)


@dataclass(frozen=True)
class BifurcationEvent:
    monitor: str
    t_lo: float
    t_hi: float
    before: int
    after: int

    @property
    def t_star(self) -> float:
        return 0.5 * (self.t_lo + self.t_hi)

    @property
    def width(self) -> float:
        return self.t_hi - self.t_lo

    def to_jsonable(self):
        return {
            "monitor": self.monitor,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "t_star": self.t_star,
            "before": self.before,
            "after": self.after,
        }


@dataclass
class SweepResult:
    spec: FamilySpec
    ts: np.ndarray
    snapshots: list                 # per-t dict: monitor name -> value
    events: list                    # BifurcationEvent
    curves: list | None = None      # optional per-t traced curves


# ------------------------------------------------------------------ monitors
class _Monitor:
    name = "monitor"

    def measure(self, patch: MongePatch, domain, n) -> int:
        raise NotImplementedError


class IntersectionMonitor(_Monitor):
    def __init__(self, kind_a: str, kind_b: str):
        self.kind_a, self.kind_b = kind_a, kind_b
        self.name = f"intersections:{kind_a}/{kind_b}"

    def measure(self, patch, domain, n):
        ff = feature_fields(fundamental_forms(patch))
        return len(intersect(ff[self.kind_a], ff[self.kind_b], domain, n))


class UmbilicCountMonitor(_Monitor):
    name = "umbilic-count"

    def measure(self, patch, domain, n):
        return len(umbilic_points(patch, domain, max(n // 8, 17)))


class ComponentMonitor(_Monitor):
    def __init__(self, kind: str):
        self.kind = kind
        self.name = f"components:{kind}"

    def measure(self, patch, domain, n):
        ff = feature_fields(fundamental_forms(patch))
        t = trace(ff[self.kind], domain, n)
        return len(t.polylines)


class IsolatedZeroMonitor(_Monitor):
    def __init__(self, kind: str):
        self.kind = kind
        self.name = f"isolated:{kind}"

    def measure(self, patch, domain, n):
        ff = feature_fields(fundamental_forms(patch))
        return len(trace(ff[self.kind], domain, n).isolated)


class UmbilicOnCurveMonitor(_Monitor):
    """Sign of a field at the tracked umbilic point: flips when the curve
    passes through the umbilic (e.g. the mean-curvature curve at a flat
    umbilic)."""

    def __init__(self, kind: str):
        self.kind = kind
        self.name = f"umbilic-side:{kind}"

    def measure(self, patch, domain, n):
        umb = umbilic_points(patch, domain, 33)
        if len(umb) == 0:
            return 0
        ff = feature_fields(fundamental_forms(patch))
        # nearest umbilic to the domain centre
        rect = Rect.make(domain)
        c = np.array([(rect.xmin + rect.xmax) / 2, (rect.ymin + rect.ymax) / 2])
        p = umb[np.argmin(np.hypot(umb[:, 0] - c[0], umb[:, 1] - c[1]))]
        return int(np.sign(float(ff[self.kind].jet.eval(p[0], p[1]))) or 0)


# ------------------------------------------------------------------- sweeps
def sweep(spec: FamilySpec, monitors, domain=((-0.1, 0.1), (-0.1, 0.1)),
          n: int = 129, resolution: float = 1e-4, keep_curves: tuple = ()) -> SweepResult:
    """Sample the monitors over the t-range and localize count changes.

    resolution is relative to the sweep width; a change between
    consecutive samples is bisected until the bracket is narrower than
    resolution * width and still shows the same before/after values,
    otherwise EventBracketError.  Halving also stops at a bracket of
    adjacent floats."""
    if not (np.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be a finite number > 0, got {resolution!r}")
    ts = spec.ts()
    width = abs(spec.t_range[1] - spec.t_range[0])
    snapshots = []
    curves = [] if keep_curves else None
    for t in ts:
        patch = spec.patch_at(t)
        bundle = fundamental_forms(patch)  # held: all monitors at this t share its jets
        snap = {"t": float(t)}
        for mon in monitors:
            snap[mon.name] = mon.measure(patch, domain, n)
        snapshots.append(snap)
        if keep_curves:
            ff = feature_fields(bundle)
            curves.append({k: trace(ff[k], domain, n) for k in keep_curves})

    events = []
    order = np.argsort(ts)  # reversed sweep directions localize identically
    for mon in monitors:
        vals = [s[mon.name] for s in snapshots]
        work = []
        for io in range(len(ts) - 1):
            i, j = order[io], order[io + 1]
            if vals[i] != vals[j]:
                work.append((float(ts[i]), vals[i], float(ts[j]), vals[j]))
        while work:
            lo, vlo, hi, vhi = work.pop()
            while hi - lo > resolution * width:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                vm = mon.measure(spec.patch_at(mid), domain, n)
                if vm == vlo:
                    lo = mid
                elif vm == vhi:
                    hi = mid
                else:
                    # a third value inside: there are at least two events;
                    # localize both halves separately
                    work.append((mid, vm, hi, vhi))
                    hi, vhi = mid, vm
            v_lo_check = mon.measure(spec.patch_at(lo), domain, n)
            v_hi_check = mon.measure(spec.patch_at(hi), domain, n)
            if v_lo_check != vlo or v_hi_check != vhi:
                raise EventBracketError(
                    f"monitor {mon.name}: bracket [{lo}, {hi}] failed to close"
                )
            events.append(BifurcationEvent(mon.name, lo, hi, vlo, vhi))
    events.sort(key=lambda e: (e.t_lo, e.monitor))
    return SweepResult(spec, ts, snapshots, events, curves)


# ----------------------------------------------------------------- umbilics
def umbilic_points(patch: MongePatch, domain=((-0.1, 0.1), (-0.1, 0.1)),
                   seeds: int = 33, tol: float = 1e-9) -> np.ndarray:
    """Zeros of all three curvature-line coefficients: Gauss-Newton on the
    minor system from all local minima of their squared sum on a seed grid
    at once.  A polished point is kept, converged or not, when its residual
    is below tolerance and it lies over 1e-6 from the points kept before."""
    rect = Rect.make(domain)
    jets = bde_jets(fundamental_forms(patch))
    xs = np.linspace(rect.xmin, rect.xmax, seeds)
    ys = np.linspace(rect.ymin, rect.ymax, seeds)
    R = sum(np.asarray(j.eval_grid(xs, ys), float) ** 2 for j in jets)
    if not np.isfinite(R).all():
        raise ValueError("umbilic residual A^2 + B^2 + C^2 is not finite on the window")
    # seeds: local minima of the residual
    pad = np.pad(R, 1, constant_values=np.inf)
    i, j = np.nonzero(R <= np.lib.stride_tricks.sliding_window_view(pad, (3, 3)).min(axis=(2, 3)))
    P, R, _, _ = _newton_rows(jets, [(jj.diff("x"), jj.diff("y")) for jj in jets],
                              np.column_stack([xs[i], ys[j]]), _lstsq_rows,
                              lambda size, r0, r1: size < 1e-15)
    scale = max(1.0, max(float(np.max(np.abs(jj.c))) for jj in jets))
    found = _merge_points([p for p, r in zip(P, R)
                           if np.abs(r).max() < tol * scale and rect.contains(p, pad=1e-12)], 1e-6)
    return found[np.lexsort((found[:, 1], found[:, 0]))]


def umbilic_tracker(spec: FamilySpec, domain=((-0.1, 0.1), (-0.1, 0.1)),
                    seeds: int = 33) -> list:
    """Umbilic point sets for each sampled t."""
    return [
        {"t": float(t), "umbilics": umbilic_points(spec.patch_at(t), domain, seeds)}
        for t in spec.ts()
    ]


# -------------------------------------------------------------- swallowtail
@dataclass(frozen=True)
class SwallowtailPoint:
    u: float
    v: float
    w: float
    stratum: str
    roots: tuple            # (root, multiplicity) pairs, ascending
    confident: bool


def swallowtail_phi(u: float, y: float) -> tuple[float, float, float]:
    """Parametrization of the discriminant: the double-root sheet."""
    return (u, -4.0 * y**3 - 2.0 * u * y, 3.0 * y**4 + u * y**2)


def swallowtail_stratum(u: float, v: float, w: float,
                        tol: float = 1e-8) -> SwallowtailPoint:
    """Stratum of (u, v, w) for the quartic P(y) = y^4 + u y^2 + v y + w.

    Repeated real roots are located through the derivative chain (an
    m-fold root of P is a root of P^(m-1) at which the lower derivatives
    vanish), which stays well conditioned where plain root clustering
    splits a triple root by the cube root of machine epsilon.  Strata:
    no repeated real root -> open strata by real-root count; a double
    root with 2 or 0 extra simple roots -> the two sheet types; triple
    root -> cuspidal edge; two double roots -> self-intersection;
    quadruple root -> origin."""
    size = max(1.0, abs(u) ** 0.5, abs(v) ** (1.0 / 3.0), abs(w) ** 0.25)

    def P(y):
        return y**4 + u * y**2 + v * y + w

    def P1(y):
        return 4 * y**3 + 2 * u * y + v

    def near(val, power):
        return abs(val) <= tol * size**power

    borderline = []

    def graded(val, power):
        # True when firmly zero; flags confidence when in the gray band
        if near(val, power):
            return True
        if abs(val) <= 100 * tol * size**power:
            borderline.append(abs(val))
        return False

    # quadruple root: P''' = 24 y has the single root 0
    if graded(2 * u, 2) and graded(v, 3) and graded(w, 4):
        return SwallowtailPoint(u, v, w, "origin", ((0.0, 4),), not borderline)

    # triple roots: real roots of P'' = 12 y^2 + 2 u
    if u < 0:
        for y3 in (np.sqrt(-u / 6.0), -np.sqrt(-u / 6.0)):
            if graded(P1(y3), 3) and graded(P(y3), 4):
                y4 = -3.0 * y3  # roots sum to zero
                pairs = tuple(sorted([(float(y3), 3), (float(y4), 1)]))
                return SwallowtailPoint(u, v, w, "cuspidal-edge", pairs, not borderline)

    # double roots: real roots of the cubic P'
    crit = np.roots([4.0, 0.0, 2.0 * u, v])
    crit = np.sort(crit[np.abs(crit.imag) <= 1e-10 * size].real)
    doubles = []
    for y2 in crit:
        if graded(P(y2), 4) and not any(abs(y2 - d) <= 1e-7 * size for d in doubles):
            doubles.append(float(y2))
    if len(doubles) >= 2:
        pairs = tuple(sorted((d, 2) for d in doubles[:2]))
        return SwallowtailPoint(u, v, w, "self-intersection", pairs, not borderline)
    if len(doubles) == 1:
        y2 = doubles[0]
        # P = (y - y2)^2 (y^2 + 2 y2 y + 3 y2^2 + u): extra roots real iff u < -2 y2^2
        disc4 = -2.0 * y2**2 - u
        if disc4 > 0:
            r = np.sqrt(disc4)
            pairs = tuple(sorted([(y2, 2), (float(-y2 - r), 1), (float(-y2 + r), 1)]))
            stratum = "sheet-with-2-extra-roots"
        else:
            pairs = ((y2, 2),)
            stratum = "sheet-with-0-extra-roots"
        if abs(disc4) <= 100 * tol * size**2:
            borderline.append(abs(disc4))
        return SwallowtailPoint(u, v, w, stratum, pairs, not borderline)

    # off the discriminant: count simple real roots
    roots = np.roots([1.0, 0.0, u, v, w])
    imag_tol = max(1e-10 * size, 1e-12)
    nreal = int(np.count_nonzero(np.abs(roots.imag) <= imag_tol))
    real = np.sort(roots[np.abs(roots.imag) <= imag_tol].real)
    pairs = tuple((float(r), 1) for r in real)
    if np.any((np.abs(roots.imag) > imag_tol) & (np.abs(roots.imag) <= 100 * imag_tol)):
        borderline.append(float(np.min(np.abs(roots.imag))))
    return SwallowtailPoint(u, v, w, f"open-{nreal}-roots", pairs, not borderline)


# --------------------------------------------------------- A3 versal fitting
def _anchor_step(J, rhs):
    """``_solve_rows``, raising like the division -v/dv at a zero derivative."""
    step = _solve_rows(J, rhs)
    if not np.isfinite(step).all():
        raise ZeroDivisionError("d2(dtil)/dx2 vanishes on the Newton path")
    return step


def _reduced_psi(patch: MongePatch, order: int = 5) -> np.ndarray:
    """1-variable germ of the discriminant field after eliminating the
    square direction along x (coefficients 0..order in y).

    Valid while the xx-entry of the Hessian of the field stays away from
    zero; for family members the constant and linear terms carry the
    unfolding."""
    ff = feature_fields(fundamental_forms(patch))
    dtil = ff["LPL"].jet
    ddx = dtil.diff("x")
    # critical curve x = xi(y) through the Newton root of (d(dtil)/dx, y) near 0
    y = Jet2.variable("y", 1)
    P = _newton_rows((ddx, y), [(g.diff("x"), g.diff("y")) for g in (ddx, y)],
                     np.zeros((1, 2)), _anchor_step, lambda size, r0, r1: size < 1e-15)[0]
    x0 = float(P[0, 0])
    shifted = ddx.recenter(x0, 0.0)
    xi = ift_series(shifted, "x", order - 1)
    psi = series_along_graph(dtil.recenter(x0, 0.0), xi, "x", order)
    return psi


def a3_versal_parameters(psi: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(w1, w2, w3), quartic sign and fit residual from a reduced germ.

    psi holds coefficients 0..5 of the unfolded 1-variable germ; the
    cubic term is removed by the Tschirnhaus shift, the quartic is
    scaled to +-1 per the versal normal form."""
    p0, p1, p2, p3, p4 = (float(c) for c in psi[:5])
    if p4 == 0.0:
        raise FitResidualTooLarge(np.inf)
    sigma = p3 / (4.0 * p4)
    # shift y -> y - sigma: recompute coefficients of p4 z^4 + B z^2 + C z + D
    B = p2 - 6 * p4 * sigma**2
    C = p1 - 2 * p2 * sigma + 8 * p4 * sigma**3
    D = p0 - p1 * sigma + p2 * sigma**2 - 3 * p4 * sigma**4
    s = np.sign(p4)
    q = abs(p4)
    w = np.array([s * B / np.sqrt(q), s * C / q**0.25, s * D])
    # residual: relative weight of the quintic term at the root scale of
    # the versal quartic
    resid = 0.0
    if len(psi) > 5:
        y_scale = max(abs(w[0]) ** 0.5, abs(w[1]) ** (1.0 / 3.0), abs(w[2]) ** 0.25)
        resid = abs(psi[5]) / q**1.25 * y_scale
    return w, float(s), float(resid)


def a3_deformation_path(spec: FamilySpec, residual_tol: float = 0.5) -> dict:
    """Versal path (w1, w2, w3)(t) of the discriminant-field A3 germ and
    the induced stratum sequence.

    The base patch must carry the degenerate (rank-1 Hessian) germ at
    the origin.  Strata of the tiny parameter values are classified
    after the weighted rescale (u, v, w) -> (l^2 u, l^3 v, l^4 w) that
    brings them to unit size, with a cluster tolerance matched to the
    root scale."""
    ts = spec.ts()
    ws, strata, signs, resids = [], [], [], []
    for t in ts:
        psi = _reduced_psi(spec.patch_at(float(t)), order=5)
        w, s, resid = a3_versal_parameters(psi)
        ws.append(w)
        signs.append(s)
        resids.append(resid)
        strata.append(_scaled_stratum(w))
    ws = np.array(ws)
    # the germ statement is local in t: gate the residual on the samples
    # bracketing t = 0, where the deformed roots stay inside the jet range
    i0 = int(np.argmin(np.abs(ts)))
    near = [r for k, r in enumerate(resids) if abs(k - i0) <= 1 and ts[k] != 0.0]
    if near and min(near) > residual_tol:
        raise FitResidualTooLarge(min(near))
    # tangent at t=0 by a symmetric difference around the middle sample
    if 0 < i0 < len(ts) - 1:
        dt = ts[i0 + 1] - ts[i0 - 1]
        tangent = (ws[i0 + 1] - ws[i0 - 1]) / dt
    else:
        tangent = (ws[1] - ws[0]) / (ts[1] - ts[0])
    return {
        "t": ts,
        "w": ws,
        "quartic_sign": signs[len(signs) // 2],
        "strata": strata,
        "tangent": tangent,
        "residuals": np.array(resids),
    }


def _scaled_stratum(w, tiny: float = 1e-9, tol: float = 0.02) -> str:
    """Stratum of a near-origin versal parameter after the weighted
    rescale to unit size; the generous tolerance absorbs the truncation
    drift of the fitted path off the exact discriminant."""
    w1, w2, w3 = (float(x) for x in w)
    size = max(abs(w1), abs(w2) ** (2 / 3), abs(w3) ** 0.5)
    if size < tiny:
        return "origin"
    lam = 1.0 / np.sqrt(size)
    pt = swallowtail_stratum(lam**2 * w1, lam**3 * w2, lam**4 * w3, tol=tol)
    return pt.stratum
