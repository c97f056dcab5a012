"""Zero-set extraction for feature fields on a rectangle.

Marching squares on a regular grid, each edge crossing refined by
bisection, segments linked into polylines.  Saddle cells are resolved by
the sign of the cell-centre sample.  Isolated zeros (Morse minima/maxima
sitting exactly at level 0) are found separately from grid minima of the
absolute field, since sign-based cells never see them.

Field evaluation is batched: the grid is sampled with ``Jet2.eval_grid``,
all crossing edges are bisected together, and one Newton kernel polishes
all seeds of a root search at once (``intersect``, the isolated-zero
search, and ``family``'s umbilics and A3 anchor), each row keeping its
own stop rule.  The kernel evaluates the residual and Jacobian jets of
its system in one stacked pass per step (``jets._JetStack``).  Every row
does the arithmetic of a scalar loop, so results are bit-identical to
one; the number of field evaluations grows with the iteration count, not
with the number of edges or seeds.  ``intersect`` memoises each field's
sign-change cells per window and grid on the field, so the pairs of one
set of fields sample each field's grid once.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .jets import _JetStack
from .patch import FeatureField

__all__ = [
    "Rect",
    "TracedCurve",
    "IntersectionPoint",
    "trace",
    "intersect",
    "DEFAULT_DOMAIN",
    "DEFAULT_GRID",
    "REFINE_TOL",
]

log = logging.getLogger(__name__)

#: feature-field jets are Taylor data around the origin; the paper's
#: statements are local, so this is the documented validity radius.
DEFAULT_DOMAIN = ((-0.25, 0.25), (-0.25, 0.25))
DEFAULT_GRID = 257
REFINE_TOL = 1e-10
_BISECT_ITERS = 30
#: iteration cap of the Newton and Gauss-Newton polish of candidate zeros
_NEWTON_ITERS = 60


@dataclass(frozen=True)
class Rect:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    @classmethod
    def make(cls, dom) -> "Rect":
        if isinstance(dom, Rect):
            return dom
        (x0, x1), (y0, y1) = dom
        return cls(float(x0), float(x1), float(y0), float(y1))

    @property
    def diag(self) -> float:
        return float(np.hypot(self.xmax - self.xmin, self.ymax - self.ymin))

    def contains(self, p, pad: float = 0.0) -> bool:
        return (
            self.xmin - pad <= p[0] <= self.xmax + pad
            and self.ymin - pad <= p[1] <= self.ymax + pad
        )


@dataclass
class TracedCurve:
    kind: str
    polylines: list[np.ndarray]          # each (m, 2)
    residuals: list[np.ndarray]          # matching (m,)
    isolated: np.ndarray                 # (k, 2) isolated zeros
    domain: Rect
    grid: int

    @property
    def empty(self) -> bool:
        return not self.polylines and len(self.isolated) == 0

    def vertices(self) -> np.ndarray:
        if not self.polylines:
            return np.zeros((0, 2))
        return np.vstack(self.polylines)

    def min_distance_to(self, p) -> float:
        pts = [self.vertices()] if self.polylines else []
        if len(self.isolated):
            pts.append(self.isolated)
        if not pts:
            return np.inf
        allp = np.vstack(pts)
        return float(np.min(np.hypot(allp[:, 0] - p[0], allp[:, 1] - p[1])))


@dataclass(frozen=True)
class IntersectionPoint:
    position: np.ndarray
    kinds: tuple[str, str]
    residuals: tuple[float, float]
    transversal: bool


def _bisect_edges(jet, a, b, s0):
    """Roots of the jet on the segments [a[k], b[k]] given the nonzero sign
    s0[k] of the jet at a[k]: _BISECT_ITERS halvings of every segment at
    once, a row stopping early when its midpoint is an exact zero.
    Returns the points and the absolute residuals."""
    pts = np.empty_like(a)
    res = np.zeros(len(a))
    live = np.arange(len(a))
    pos = s0 > 0
    for _ in range(_BISECT_ITERS):
        if not live.size:
            break
        mid = 0.5 * (a + b)
        fm = _at(jet, mid)
        hit = fm == 0.0
        if hit.any():
            pts[live[hit]] = mid[hit]
            keep = ~hit
            live, a, b, mid, fm, pos = live[keep], a[keep], b[keep], mid[keep], fm[keep], pos[keep]
        same = ((fm > 0) == pos)[:, None]
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
    mid = 0.5 * (a + b)
    pts[live] = mid
    res[live] = np.abs(_at(jet, mid))
    return pts, res


def trace(fld: FeatureField, domain=DEFAULT_DOMAIN, n: int = DEFAULT_GRID) -> TracedCurve:
    """Marching-squares extraction of {field = 0} on the domain; a field
    that vanishes identically raises ValueError."""
    if n < 16:
        raise ValueError("grid size must be at least 16")
    if not fld.jet.c.any():
        raise ValueError(f"{fld.kind} field is identically zero: its zero set is the window")
    rect = Rect.make(domain)
    xs = np.linspace(rect.xmin, rect.xmax, n)
    ys = np.linspace(rect.ymin, rect.ymax, n)
    jet = fld.jet
    V = jet.eval_grid(xs, ys)
    S, hcross, vcross, cells = _sign_changes(V, fld.kind)
    # edge (i, j, o), o = 0 for (i,j)-(i+1,j) and 1 for (i,j)-(i,j+1), has
    # key 2 (i n + j) + o: its flat index in `crossing`, so keys sort like
    # the (i, j, o) triples
    crossing = np.zeros((n, n, 2), dtype=bool)
    crossing[:-1, :, 0] = hcross
    crossing[:, :-1, 1] = vcross
    keys = np.flatnonzero(crossing)
    (i, j), o = divmod(keys // 2, n), keys % 2
    edge_pts, edge_res = _bisect_edges(
        jet, np.column_stack([xs[i], ys[j]]), np.column_stack([xs[i + 1 - o], ys[j + o]]), S[i, j])

    def key(i, j, o):
        return 2 * (i * n + j) + o

    # segments as pairs of edge keys, cell by cell in row-major order; each
    # cell has 2 crossed sides, or 4 (a saddle, whose centre sample decides
    # the pairing): odd counts only happen when a vertex sits exactly on
    # the curve, which the sign convention of _sign_changes prevents
    ci, cj = np.nonzero(cells)
    sides = np.column_stack([key(ci, cj, 0), key(ci + 1, cj, 1),
                             key(ci, cj + 1, 0), key(ci, cj, 1)])  # bottom, right, top, left
    crossed = crossing.ravel()[sides]
    saddle = crossed.all(axis=1)
    si, sj = ci[saddle], cj[saddle]
    sc = np.sign(_at(jet, np.column_stack([0.5 * (xs[si] + xs[si + 1]),
                                           0.5 * (ys[sj] + ys[sj + 1])])))
    sc[sc == 0] = 1.0
    # the sides each segment joins: the two crossed ones of a plain cell;
    # bottom-right and top-left, or bottom-left and top-right, of a saddle
    pick = np.argsort(~crossed, axis=1, kind="stable")
    pick[saddle] = np.where((sc == S[si, sj])[:, None], [0, 1, 2, 3], [0, 3, 2, 1])
    ends = np.take_along_axis(sides, pick, axis=1).reshape(-1, 2, 2)
    segments = ends[np.column_stack([np.ones_like(saddle), saddle])].tolist()

    # link segments into polylines over shared edge keys
    adj: dict[int, list[int]] = {}
    for idx, (e0, e1) in enumerate(segments):
        adj.setdefault(e0, []).append(idx)
        adj.setdefault(e1, []).append(idx)
    used = np.zeros(len(segments), dtype=bool)
    polylines = []

    def walk(start_edge):
        chain = [start_edge]
        while True:
            nxt = [k for k in adj.get(chain[-1], []) if not used[k]]
            if not nxt:
                break
            k = nxt[0]
            used[k] = True
            e0, e1 = segments[k]
            chain.append(e1 if e0 == chain[-1] else e0)
        return chain

    # open chains first (start from edges of valence 1), then loops
    for start, items in sorted(adj.items()):
        if len(items) == 1 and not used[items[0]]:
            k = items[0]
            used[k] = True
            e0, e1 = segments[k]
            first = start
            chain = [first, e1 if e0 == first else e0]
            chain += walk(chain[-1])[1:]
            polylines.append(chain)
    for idx in range(len(segments)):
        if not used[idx]:
            used[idx] = True
            e0, e1 = segments[idx]
            chain = [e0, e1]
            chain += walk(chain[-1])[1:]
            polylines.append(chain)

    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    lines = [(edge_pts[rows], edge_res[rows])
             for rows in (np.searchsorted(keys, chain) for chain in polylines)]
    # a chain of sub-cell diameter whose centre is also a zero is an
    # isolated zero sitting exactly on a lattice point, wrapped by the
    # forced-sign convention (tiny genuine ovals keep a nonzero centre)
    small = [k for k, (pts, _) in enumerate(lines) if (np.ptp(pts, axis=0) <= cell).all()]
    ctrs = np.array([lines[k][0].mean(axis=0) for k in small]).reshape(-1, 2)
    at_zero = np.abs(_at(jet, ctrs)) < 10 * REFINE_TOL
    point_like = list(ctrs[at_zero])
    wrapped = {k for k, z in zip(small, at_zero) if z}
    out_lines = [pts for k, (pts, _) in enumerate(lines) if k not in wrapped]
    out_res = [res for k, (_, res) in enumerate(lines) if k not in wrapped]

    isolated, extra_lines, extra_res = _signless_zeros(fld, V, xs, ys, hcross, vcross)
    out_lines += extra_lines
    out_res += extra_res
    isolated = _merge_points(point_like, 2 * cell, kept=isolated)
    return TracedCurve(fld.kind, out_lines, out_res, isolated, rect, n)


def _sign_changes(V, kind):
    """Signs of the grid values V of the ``kind`` field, ValueError if one is
    not finite, a zero counting as positive (bisection recovers a zero vertex);
    masks of the edges (i,j)-(i+1,j), (i,j)-(i,j+1) and cells changing sign."""
    if not np.isfinite(V).all():
        raise ValueError(f"{kind} field is not finite on the window: its grid overflows")
    S = np.sign(V)
    S[S == 0] = 1.0
    hcross = S[:-1, :] * S[1:, :] < 0
    vcross = S[:, :-1] * S[:, 1:] < 0
    return S, hcross, vcross, hcross[:, :-1] | hcross[:, 1:] | vcross[:-1, :] | vcross[1:, :]


def _signless_zeros(fld, V, xs, ys, hcross, vcross):
    """Zero-level sets invisible to sign-change cells.

    Local minima of |field| on the grid away from any sign change are
    polished by Gauss-Newton on the gradient (the zero level of a field
    of constant sign consists of critical points), all candidates at
    once.  Polished points are kept when the field value is below
    tolerance; points that chain within two grid cells of each other form
    degenerate polylines (e.g. a squared line), lone points are reported
    as isolated zeros (A1+)."""
    A = np.abs(V)
    interior = A[1:-1, 1:-1]
    is_min = (
        (interior <= A[:-2, 1:-1]) & (interior <= A[2:, 1:-1])
        & (interior <= A[1:-1, :-2]) & (interior <= A[1:-1, 2:])
    )
    cell_scale = max(xs[1] - xs[0], ys[1] - ys[0])
    ii, jj = (np.argwhere(is_min) + 1).T
    away = ~(hcross[ii - 1, jj] | hcross[ii, jj] | vcross[ii, jj - 1] | vcross[ii, jj])
    ii, jj = ii[away], jj[away]
    jet = fld.jet
    fx, fy = jet.diff("x"), jet.diff("y")
    fxx, fxy, fyy = fx.diff("x"), fx.diff("y"), fy.diff("y")
    P = np.column_stack([xs[ii], ys[jj]])
    # plausibility: a zero extremum has |f| = O(||H|| d^2) within a cell
    Hn = np.maximum(1.0, np.abs(_at(_JetStack((fxx, fxy, fyy)), P)).max(axis=0))
    P = P[~(A[ii, jj] > 4.0 * Hn * cell_scale**2)]
    P, _, _, ok = _newton_rows((fx, fy), ((fxx, fxy), (fxy, fyy)), P, _lstsq_rows,
                               lambda size, r0, r1: size < 1e-14)
    P = P[ok]
    pts = _merge_points(P[np.abs(_at(jet, P)) < REFINE_TOL], 0.5 * cell_scale)
    if not len(pts):
        return pts, [], []

    # chain points within two cells into polylines, keep singletons isolated
    m = len(pts)
    link = 2.2 * cell_scale
    parent = list(range(m))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if np.hypot(*(pts[i] - pts[j])) < link:
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(root(i), []).append(i)

    isolated, lines, res = [], [], []
    for members in groups.values():
        if len(members) == 1:
            isolated.append(pts[members[0]])
            continue
        sub = pts[members]
        # order greedily from the lexicographically smallest point
        order = [int(np.lexsort((sub[:, 1], sub[:, 0]))[0])]
        left = set(range(len(sub))) - set(order)
        while left:
            last = sub[order[-1]]
            nxt = min(left, key=lambda k: np.hypot(*(sub[k] - last)))
            order.append(nxt)
            left.remove(nxt)
        chain = sub[order]
        lines.append(chain)
        res.append(np.abs(np.asarray(fld(chain[:, 0], chain[:, 1]), float)))
    iso = np.array(isolated) if isolated else np.zeros((0, 2))
    return iso, lines, res


def intersect(a: FeatureField, b: FeatureField, domain=DEFAULT_DOMAIN,
              n: int = DEFAULT_GRID, merge_tol: float = 1e-6) -> list[IntersectionPoint]:
    """Common zeros of two fields: seeds from cells where both change
    sign (each field keeps its cells per window and grid), polished by
    Newton on (a, b) with the exact jet Jacobian, all seeds at once, each
    stopping by its own test."""
    rect = Rect.make(domain)
    xs = np.linspace(rect.xmin, rect.xmax, n)
    ys = np.linspace(rect.ymin, rect.ymax, n)
    seeds = np.argwhere(_sign_change_cells(a, rect, n) & _sign_change_cells(b, rect, n))
    si, sj = seeds[:, 0], seeds[:, 1]
    P = np.column_stack([0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1])])
    jac = ((a.jet.diff("x"), a.jet.diff("y")), (b.jet.diff("x"), b.jet.diff("y")))
    # stop at a short step or a small start residual, if the new one is small
    P, R, G, converged = _newton_rows(
        (a.jet, b.jet), jac, P, _solve_rows,
        lambda size, r0, r1: (((size < 1e-15) | (np.abs(r0) < REFINE_TOL).all(axis=1))
                              & (np.abs(r1).max(axis=1, initial=0.0) < REFINE_TOL)),
        max_step=4 * rect.diag)
    for i, j in seeds[~converged]:
        log.debug("intersect: Newton did not converge from cell (%d,%d)", i, j)
    found, R, G = P[converged], R[converged], G[converged]
    inside = np.array([rect.contains(p, pad=rect.diag * 1e-9) for p in found], dtype=bool)
    found, R, G = found[inside], R[inside], G[inside]

    def point_data(k):
        ga, gb = G[k]
        na, nb = np.linalg.norm(ga), np.linalg.norm(gb)
        floor = 1e-12
        # Newton resolves the position only to ~ residual_tol / |gradient|
        uncert = REFINE_TOL * (1.0 / max(na, floor) + 1.0 / max(nb, floor))
        transversal = False
        if na > floor and nb > floor:
            sin_angle = abs(ga[0] * gb[1] - ga[1] * gb[0]) / (na * nb)
            transversal = bool(sin_angle > 1e-4 and uncert < merge_tol)
        if not transversal:
            # tangential roots additionally smear like sqrt(tol) along the
            # common tangent direction
            uncert = max(uncert, 25.0 * np.sqrt(REFINE_TOL))
        return transversal, float(uncert)

    merged: list[tuple[int, bool, float]] = []
    for k in sorted(range(len(found)), key=lambda k: (found[k][0], found[k][1])):
        p = found[k]
        tr_p, u_p = point_data(k)
        dup = False
        for j, _, u_q in merged:
            if np.hypot(*(p - found[j])) < max(merge_tol, 4.0 * (u_p + u_q)):
                dup = True
                break
        if not dup:
            merged.append((k, tr_p, u_p))

    return [
        IntersectionPoint(
            position=found[k],
            kinds=(a.kind, b.kind),
            residuals=(float(R[k, 0]), float(R[k, 1])),
            transversal=tr_p,
        )
        for k, tr_p, _ in merged
    ]


def _sign_change_cells(fld: FeatureField, rect: Rect, n: int) -> np.ndarray:
    """Read-only mask of the cells of the n x n grid on rect whose corner
    values change sign (a zero counts as positive), memoised on the field."""
    cells = fld._sign_cells.get((rect, n))
    if cells is None:
        cells = _sign_changes(fld.jet.eval_grid(np.linspace(rect.xmin, rect.xmax, n),
                                                np.linspace(rect.ymin, rect.ymax, n)), fld.kind)[3]
        cells.setflags(write=False)
        fld._sign_cells[(rect, n)] = cells
    return cells


def _at(jet, pts) -> np.ndarray:
    """Values of a Jet2, shape (m,), or of a _JetStack, shape (k, m), at the
    rows of an (m, 2) array; no call when m = 0."""
    if not len(pts):
        return np.zeros((len(jet), 0)) if isinstance(jet, _JetStack) else np.zeros(0)
    return np.asarray(jet.eval(pts[:, 0], pts[:, 1]), float)


def _newton_rows(F, J, P, solve, done, max_step=np.inf):
    """Newton (Gauss-Newton for more than two residuals) on every row of P.

    F holds the residual jets, J[i][j] the jet of dF[i]/dx_j (passed in:
    jets equal in exact arithmetic may round apart); both are evaluated
    together, in one stacked pass per step.  ``solve(J, rhs)`` solves the
    live rows' systems; ``done(size, r_before, r_after)`` marks the rows
    that stop converged after their step.  A NaN step, or one longer than
    max_step, stops its row unconverged without being taken.  Returns the
    points, the residuals (m, k) and Jacobians (m, k, 2) at them, and the
    converged mask."""
    P = np.array(P, dtype=float)
    k = len(F)
    stack = _JetStack([*F, *(d for row in J for d in row)])
    V = _at(stack, P).T  # per row: the k residuals, then J row by row
    converged = np.zeros(len(P), dtype=bool)
    live = np.arange(len(P))
    for _ in range(_NEWTON_ITERS):
        if not live.size:
            break
        steps = solve(V[live, k:].reshape(-1, k, 2), -V[live, :k])
        # np.linalg.norm per row: its BLAS dot rounds unlike a vectorised sum
        size = np.array([np.linalg.norm(step) for step in steps])
        keep = size <= max_step
        live, size, before = live[keep], size[keep], V[live[keep], :k]
        P[live] = P[live] + steps[keep]
        V[live] = _at(stack, P[live]).T
        stop = done(size, before, V[live, :k])
        converged[live[stop]] = True
        live = live[~stop]
    return P, V[:, :k], V[:, k:].reshape(-1, k, 2), converged


def _lstsq_rows(J, rhs) -> np.ndarray:
    """``np.linalg.lstsq`` of each system, one row at a time."""
    return np.array([np.linalg.lstsq(Jk, bk, rcond=None)[0] for Jk, bk in zip(J, rhs)])


def _merge_points(points, r, kept=()) -> np.ndarray:
    """Greedy merge: each point, in order, is kept unless it lies within r
    of one kept before it (``kept`` seeds that list)."""
    kept = list(kept)
    for p in points:
        if not any(np.hypot(*(p - q)) < r for q in kept):
            kept.append(p)
    return np.array(kept).reshape(-1, 2)


def _solve_rows(J, rhs) -> np.ndarray:
    """``np.linalg.solve`` of each 2x2 system; NaN rows where J is singular."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for k in range(len(J)):
            try:
                out[k] = np.linalg.solve(J[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return out
