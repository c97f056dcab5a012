import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkfeat import MongePatch, feature_fields, fundamental_forms
from minkfeat.jets import Jet2
from minkfeat.patch import FeatureField
from minkfeat.tracer import (_BISECT_ITERS, _NEWTON_ITERS, DEFAULT_DOMAIN, _lstsq_rows,
                             _newton_rows, _solve_rows, intersect, trace)


CRITERION_10 = MongePatch.lightcone(4, [(2, 2, 0.6), (3, 0, 0.8), (3, 1, 0.3),
                                        (3, 2, -0.2), (3, 3, 0.4)])


def field(kind, triples, degree=2):
    return FeatureField(kind, Jet2.from_triangular(degree, triples))


def test_positive_definite_is_empty():
    f = field("PC", [(0, 0, 1.0), (2, 0, 1.0), (2, 2, 1.0)])
    t = trace(f, ((-1, 1), (-1, 1)), 64)
    assert t.empty


def test_crossing_diagonals():
    f = field("LPL", [(2, 0, 1.0), (2, 2, -1.0)])
    t = trace(f, ((-1, 1), (-1, 1)), 129)
    assert len(t.polylines) == 2
    assert max(r.max() for r in t.residuals) < 1e-10
    v = t.vertices()
    dev = np.min(np.abs([v[:, 0] - v[:, 1], v[:, 0] + v[:, 1]]), axis=0)
    assert dev.max() < 1e-9


def test_vertex_steps_stay_local():
    f = field("LPL", [(2, 0, 1.0), (2, 2, -1.0), (1, 0, 0.3)], degree=2)
    n = 65
    t = trace(f, ((-1, 1), (-1, 1)), n)
    cell = 2.0 / (n - 1)
    for pl in t.polylines:
        steps = np.hypot(*np.diff(pl, axis=0).T)
        assert steps.max() <= 2 * cell * np.sqrt(2) + 1e-12


def test_isolated_zero_found():
    f = field("LD", [(2, 0, 1.0), (2, 2, 1.0)])
    t = trace(f, ((-1, 1), (-1, 1)), 64)
    assert len(t.polylines) == 0
    assert len(t.isolated) == 1
    assert np.allclose(t.isolated[0], [0, 0], atol=1e-10)


def test_squared_line_traced_as_degenerate_polyline():
    """delta of the lightcone patch f = x + y^2 is 4 y^2: a zero line
    without sign change; the closest traced point to the origin must be
    at the origin itself."""
    p = MongePatch.lightcone(2, [(2, 2, 1.0)])
    ff = feature_fields(fundamental_forms(p))
    t = trace(ff["LD"], ((-0.25, 0.25), (-0.25, 0.25)), 257)
    assert t.min_distance_to((0.0, 0.0)) < 1e-6
    v = t.vertices()
    assert np.abs(v[:, 1]).max() < 1e-10  # exactly the axis y = 0


@pytest.mark.parametrize("kind", ["LPL", "PC", "MCNC"])
def test_trace_identically_zero_field_raises(kind):
    """LPL, PC and MCNC of the lightcone patch f = x + y^2 vanish
    identically: their zero set is the whole window, so trace refuses at
    once (treating every grid point as a candidate zero took hours at
    n = 257)."""
    ff = feature_fields(fundamental_forms(MongePatch.lightcone(2, [(2, 2, 1.0)])))
    with pytest.raises(ValueError, match=f"{kind} field is identically zero"):
        trace(ff[kind], DEFAULT_DOMAIN, 257)


def test_refinement_stability():
    """Doubling the grid never removes a polyline whose gradient along it
    is healthy."""
    f = field("LPL", [(2, 0, 1.0), (2, 2, -1.0), (0, 0, -0.1)])
    t1 = trace(f, ((-1, 1), (-1, 1)), 65)
    t2 = trace(f, ((-1, 1), (-1, 1)), 129)
    assert len(t2.polylines) >= len(t1.polylines)
    for pl in t1.polylines:
        mid = pl[len(pl) // 2]
        assert min(
            np.min(np.hypot(q[:, 0] - mid[0], q[:, 1] - mid[1])) for q in t2.polylines
        ) < 0.1


def test_intersect_transversal():
    pts = intersect(field("LD", [(1, 0, 1.0)]), field("LPL", [(1, 1, 1.0)]),
                    ((-1, 1), (-1, 1)), 64)
    assert len(pts) == 1
    assert np.allclose(pts[0].position, [0, 0], atol=1e-12)
    assert pts[0].transversal


def test_intersect_tangential():
    pts = intersect(field("LPL", [(1, 1, 1.0)]),
                    field("PC", [(1, 1, 1.0), (2, 0, -1.0)]),
                    ((-1, 1), (-1, 1)), 129)
    assert len(pts) == 1
    assert np.allclose(pts[0].position, [0, 0], atol=1e-4)
    assert not pts[0].transversal


def test_intersections_lie_on_both_curves():
    rng = np.random.default_rng(0)
    a = field("LD", [(1, 0, 1.0), (2, 2, -0.8), (0, 0, -0.05)])
    b = field("PC", [(1, 1, 1.0), (2, 0, 0.6), (0, 0, -0.02)])
    dom = ((-1, 1), (-1, 1))
    n = 129
    pts = intersect(a, b, dom, n)
    assert pts
    ta, tb = trace(a, dom, n), trace(b, dom, n)
    diag = np.hypot(2, 2) / (n - 1) * np.sqrt(2)
    for p in pts:
        assert max(abs(r) for r in p.residuals) < 1e-10
        assert ta.min_distance_to(p.position) < diag
        assert tb.min_distance_to(p.position) < diag


# ------------------------------------------------------------- work counts
# Field evaluations are deterministic, so these bounds are perf gates that
# cannot flake: refinement runs batched over all edges or seeds, and the
# number of Jet2.eval calls does not grow with their count.
def test_trace_eval_count_independent_of_edges(jet_work):
    f = field("LPL", [(2, 0, 1.0), (2, 2, -1.0)])
    t, work = jet_work(trace, f, ((-1, 1), (-1, 1)), 257)
    assert len(t.vertices()) > 1000          # one per crossing edge
    assert work["eval"] <= _BISECT_ITERS + 4


@pytest.mark.parametrize("n", [65, 257])
def test_intersect_eval_count_independent_of_seeds(jet_work, n):
    """The tangential LPL/PC root of the criterion-10 scene, where every
    seed cell of a clustered patch polishes toward the same point."""
    ff = feature_fields(fundamental_forms(CRITERION_10))
    pts, work = jet_work(intersect, ff["LPL"], ff["PC"], ((-0.12, 0.12), (-0.12, 0.12)), n)
    assert len(pts) == 1 and not pts[0].transversal
    # grid signs need no call; 2 residuals up front, 4 Jacobian entries and
    # 2 residuals per Newton step, 4 gradients and 2 residuals at the end
    assert work["eval"] <= 6 * _NEWTON_ITERS + 8


PAIRS = [("LD", "LPL"), ("LD", "PC"), ("LD", "MCNC"),
         ("LPL", "PC"), ("LPL", "MCNC"), ("PC", "MCNC")]


def _crossing_fields():
    from helpers import random_timelike

    return feature_fields(fundamental_forms(random_timelike(np.random.default_rng(5), scale=2.0)))


def test_intersect_samples_each_field_grid_once(jet_work):
    """The six pairs of one set of fields sample each field's grid once
    (a grid per field and pair made 12 calls)."""
    ff = _crossing_fields()
    pts, work = jet_work(lambda: [intersect(ff[a], ff[b], n=65) for a, b in PAIRS])
    assert sum(map(len, pts)) == 6
    assert work["eval_grid"] <= 4


def _same_points(got, want):
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p.position.tobytes() == q.position.tobytes()
        assert p.residuals == q.residuals and p.transversal == q.transversal


@pytest.mark.parametrize("windows", [[(DEFAULT_DOMAIN, 65), (((-0.2, 0.1), (-0.15, 0.25)), 65)],
                                     [(DEFAULT_DOMAIN, 65), (DEFAULT_DOMAIN, 97)]])
def test_intersect_memo_matches_fresh_fields(windows):
    """A field queried in two windows, or at two grid sizes, gives the
    points that fresh fields give in each."""
    ff = _crossing_fields()
    for dom, n in windows:
        for a, b in PAIRS:
            fresh = _crossing_fields()
            _same_points(intersect(ff[a], ff[b], dom, n), intersect(fresh[a], fresh[b], dom, n))


# ------------------------------------------------------------ Newton kernel
@st.composite
def newton_systems(draw):
    """Residual jets (2 for ``_solve_rows``, 2 or 3 for ``_lstsq_rows``)
    and start rows, some repeated; now and then the Jacobian is singular
    everywhere, or only at an added start row at the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    solver = draw(st.sampled_from([_solve_rows, _lstsq_rows]))
    m = 2 if solver is _solve_rows else draw(st.sampled_from([2, 3]))
    degree = draw(st.integers(1, 4))
    c = rng.normal(size=(m, degree + 1, degree + 1))
    P = rng.normal(size=(draw(st.integers(1, 6)), 2)) * draw(st.sampled_from([0.1, 1.0]))
    P = np.vstack([P, P[:draw(st.integers(0, 2))]])
    singular = draw(st.sampled_from(["no", "everywhere", "at the origin"]))
    if singular == "everywhere":
        c[1] = c[0] * rng.normal()
    elif singular == "at the origin":
        c[0, 1, 0] = c[0, 0, 1] = 0.0
        P = np.vstack([P, [0.0, 0.0]])
    F = [Jet2(degree, ck) for ck in c]
    return tuple(F), P, solver, draw(st.sampled_from([np.inf, 3.0]))


@settings(max_examples=80, deadline=None)
@given(newton_systems())
def test_newton_rows_batch_matches_rows_alone_bitwise(system):
    """Every row of a batch does the arithmetic it does alone: points,
    residuals and converged flags agree bit for bit."""
    F, P, solve, max_step = system
    J = [(f.diff("x"), f.diff("y")) for f in F]

    def done(size, r0, r1):
        return (size < 1e-15) | (np.abs(r1).max(axis=1) < 1e-12)

    def run(P):
        try:
            return _newton_rows(F, J, P, solve, done, max_step)
        except np.linalg.LinAlgError:  # lstsq of a row that overflowed to NaN
            assert solve is _lstsq_rows
            return None

    with np.errstate(all="ignore"):
        batch = run(P)
        alone = [run(P[k:k + 1]) for k in range(len(P))]
    if batch is None or None in alone:
        assert batch is None and None in alone
        return
    for got, want in zip(batch, zip(*alone)):
        assert got.tobytes() == np.concatenate(want).tobytes()
