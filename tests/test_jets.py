import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkfeat.classify import series_along_graph
from minkfeat.jets import (
    Jet2,
    NonzeroConstantTerm,
    DegenerateIFT,
    ift_series,
    invert_map,
    resultant_quartic_cubic,
    sylvester_resultant_quartic_cubic,
)


def int_jet(rng, degree, lo=-9, hi=9):
    """Random jet with small integer coefficients: float ops on these are
    exact, so ring-axiom tests can assert equality rather than closeness."""
    c = rng.integers(lo, hi + 1, size=(degree + 1, degree + 1)).astype(float)
    return Jet2(degree, c)


# ------------------------------------------------------------------ ring ops
def test_monomial_product():
    x = Jet2.variable("x", 2)
    y = Jet2.variable("y", 2)
    assert (x * y).coeff(1, 1) == 1.0
    assert sum(v != 0 for _, _, v in (x * y).to_triangular()) == 1


def test_difference_of_squares():
    one = Jet2.constant(1.0, 2)
    x = Jet2.variable("x", 2)
    p = (one + x) * (one - x)
    assert p.coeff(0, 0) == 1.0
    assert p.coeff(2, 0) == -1.0
    assert p.coeff(1, 0) == 0.0


def test_truncation_drops_high_terms():
    x = Jet2.variable("x", 2)
    y = Jet2.variable("y", 2)
    p = (x + y * y) ** 2  # degree-3,4 terms fall off at k=2
    assert p.coeff(2, 0) == 1.0
    assert all(v == 0.0 for s, i, v in p.to_triangular() if (s, i) != (2, 0))


def test_ring_axioms_exact_on_integer_jets():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = (int_jet(rng, 4) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_coefficient_count_and_eval_at_origin():
    rng = np.random.default_rng(1)
    for k in (2, 3, 4, 6):
        j = int_jet(rng, k)
        tri = j.to_triangular()
        assert len(tri) == (k + 1) * (k + 2) // 2
        assert j.eval(0.0, 0.0) == j.coeff(0, 0)


# -------------------------------------------------------------- differentiate
def test_diff_examples():
    # d/dx (x^2 + x y) = 2x + y
    j = Jet2.from_triangular(2, [(2, 0, 1.0), (2, 1, 1.0)])
    d = j.diff("x")
    assert d.coeff(1, 0) == 2.0 and d.coeff(0, 1) == 1.0
    # d/dy (x^2) = 0
    assert not np.any(Jet2.from_triangular(2, [(2, 0, 1.0)]).diff("y").c)


def test_mixed_partials_commute_exactly():
    rng = np.random.default_rng(2)
    for _ in range(100):
        j = int_jet(rng, 5)
        assert j.diff("x").diff("y") == j.diff("y").diff("x")


# ------------------------------------------------------------------- compose
def test_compose_square_of_sum():
    outer = Jet2.from_triangular(2, [(2, 0, 1.0)])  # X^2
    u = Jet2.from_triangular(2, [(1, 0, 1.0), (1, 1, 1.0)])  # x + y
    v = Jet2.zero(2)
    got = outer.compose(u, v)
    assert got.coeff(2, 0) == 1.0 and got.coeff(1, 1) == 2.0 and got.coeff(0, 2) == 1.0


def test_compose_identity():
    outer = Jet2.from_triangular(2, [(1, 0, 1.0), (1, 1, 1.0)])  # X + Y
    got = outer.compose(Jet2.variable("x", 2), Jet2.variable("y", 2))
    assert got == outer


def test_compose_rejects_constant_term():
    outer = Jet2.variable("x", 2)
    bad = Jet2.constant(0.5, 2)
    with pytest.raises(NonzeroConstantTerm):
        outer.compose(bad, Jet2.variable("y", 2))


def test_compose_matches_pointwise_linear_substitution():
    """Linear substitutions compose exactly, so jet and pointwise values
    agree to rounding across the whole sample square."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        outer = Jet2(4, rng.normal(size=(5, 5)))
        u = Jet2.from_triangular(4, [(1, 0, rng.normal()), (1, 1, rng.normal())])
        v = Jet2.from_triangular(4, [(1, 0, rng.normal()), (1, 1, rng.normal())])
        comp = outer.compose(u, v)
        for _ in range(5):
            x, y = rng.uniform(-0.1, 0.1, 2)
            direct = outer.eval(u.eval(x, y), v.eval(x, y))
            assert abs(comp.eval(x, y) - direct) < 1e-10


def test_compose_is_truncated_substitution():
    """The degree-k composition equals the full polynomial composition with
    every term above degree k dropped; pointwise they differ by exactly
    the dropped tail."""
    rng = np.random.default_rng(30)
    for _ in range(10):
        outer = Jet2(4, rng.normal(size=(5, 5)))
        cu = rng.normal(size=(5, 5))
        cv = rng.normal(size=(5, 5))
        cu[0, 0] = cv[0, 0] = 0.0
        u, v = Jet2(4, cu), Jet2(4, cv)
        comp4 = outer.compose(u, v)
        full = outer.truncated(16).compose(u.truncated(16), v.truncated(16))
        assert np.allclose(comp4.c, full.truncated(4).c, atol=1e-10)
        tail = full - Jet2(16, full.truncated(4).c)
        for _ in range(5):
            x, y = rng.uniform(-0.01, 0.01, 2)
            direct = outer.eval(u.eval(x, y), v.eval(x, y))
            err = abs(comp4.eval(x, y) - direct)
            assert err <= abs(tail.eval(x, y)) + 1e-10


# ------------------------------------------------------------------ ift_series
def test_ift_parabola():
    F = Jet2.from_triangular(3, [(1, 1, 1.0), (2, 0, -1.0)])  # y - x^2
    g = ift_series(F, "y", 4)
    assert np.allclose(g, [0.0, 1.0, 0.0, 0.0], atol=1e-14)


def test_ift_solve_x():
    F = Jet2.from_triangular(3, [(1, 0, 1.0), (1, 1, 1.0), (3, 3, 1.0)])  # x + y + y^3
    g = ift_series(F, "x", 4)
    assert np.allclose(g, [-1.0, 0.0, -1.0, 0.0], atol=1e-14)


def test_ift_degenerate():
    F = Jet2.from_triangular(3, [(2, 0, 1.0)])  # x^2: no linear term
    with pytest.raises(DegenerateIFT):
        ift_series(F, "x", 3)


def test_ift_matches_closed_form_series():
    """Coefficients of the zero-set graph of a generic quadratic-lead jet
    (the closed forms used for the null-chart analysis)."""
    rng = np.random.default_rng(4)
    for _ in range(25):
        l = {}
        for s in range(1, 5):
            for i in range(s + 1):
                l[(s, i)] = rng.normal()
        if abs(l[(1, 0)]) < 0.2:
            l[(1, 0)] += 0.5
        F = Jet2.from_triangular(4, [(s, i, v) for (s, i), v in l.items()])
        g = ift_series(F, "x", 4)
        l10, l11 = l[(1, 0)], l[(1, 1)]
        l20, l21, l22 = l[(2, 0)], l[(2, 1)], l[(2, 2)]
        l30, l31, l32, l33 = l[(3, 0)], l[(3, 1)], l[(3, 2)], l[(3, 3)]
        l40, l41, l42, l43, l44 = l[(4, 0)], l[(4, 1)], l[(4, 2)], l[(4, 3)], l[(4, 4)]
        g1 = -l11 / l10
        g2 = -(l11**2 * l20 - l10 * l11 * l21 + l10**2 * l22) / l10**3
        c3 = (-l10**4 * l33 + l10**3 * l11 * l32 + l10**3 * l21 * l22
              - l10**2 * l11**2 * l31 - 2 * l10**2 * l11 * l20 * l22
              - l10**2 * l11 * l21**2 + l10 * l11**3 * l30
              + 3 * l10 * l11**2 * l20 * l21 - 2 * l11**3 * l20**2)
        c4 = (-l10**6 * l44 + l10**5 * l11 * l43 + l10**5 * l21 * l33
              + l10**5 * l22 * l32 - l10**4 * l11**2 * l42
              - 2 * l10**4 * l11 * l20 * l33 - 2 * l10**4 * l11 * l21 * l32
              - 2 * l10**4 * l11 * l22 * l31 - l10**4 * l20 * l22**2
              - l10**4 * l21**2 * l22 + l10**3 * l11**3 * l41
              + 3 * l10**3 * l11**2 * l20 * l32 + 3 * l10**3 * l11**2 * l21 * l31
              + 3 * l10**3 * l11**2 * l22 * l30 + 6 * l10**3 * l11 * l20 * l21 * l22
              + l10**3 * l11 * l21**3 - l10**2 * l11**4 * l40
              - 4 * l10**2 * l11**3 * l20 * l31 - 4 * l10**2 * l11**3 * l21 * l30
              - 6 * l10**2 * l11**2 * l20**2 * l22 - 6 * l10**2 * l11**2 * l20 * l21**2
              + 5 * l10 * l11**4 * l20 * l30 + 10 * l10 * l11**3 * l20**2 * l21
              - 5 * l11**4 * l20**3)
        expect = [g1, g2, c3 / l10**5, c4 / l10**7]
        assert np.allclose(g, expect, rtol=1e-9, atol=1e-12)


def test_ift_residual_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        c = rng.normal(size=(5, 5)) * 0.5
        c[0, 0] = 0.0
        c[1, 0] = rng.uniform(0.8, 1.2) * rng.choice([-1.0, 1.0])
        F = Jet2(4, c)
        g = ift_series(F, "x", 6)
        resid = series_along_graph(F, g, "x", 6)
        assert np.max(np.abs(resid)) < 1e-12


# ------------------------------------------- graph series against 2-D compose
def graph_route(F, g, solve_for, order):
    """Coefficients 0..order of F along the graph of g, through the 2-D
    route: Jet2.compose with the graph as a row-0 (solve_for='x') or
    column-0 (solve_for='y') jet, at work degree max(F.degree, order)."""
    W = max(F.degree, order)
    line = np.zeros(W + 1)
    m = min(len(g), W)
    line[1 : m + 1] = g[:m]
    Fw = F.truncated(W)
    if solve_for == "x":
        y = Jet2(W, np.array([[0.0, 1.0], [0.0, 0.0]]))
        return Fw.compose(Jet2(W, line[None, :]), y).c[0, : order + 1]
    x = Jet2(W, np.array([[0.0, 0.0], [1.0, 0.0]]))
    return Fw.compose(x, Jet2(W, line[:, None])).c[: order + 1, 0]


def ift_route(F, solve_for, order):
    """ift_series' coefficient recursion over graph_route."""
    lead = F.coeff(1, 0) if solve_for == "x" else F.coeff(0, 1)
    g = np.zeros(order)
    for k in range(1, order + 1):
        g[k - 1] = -graph_route(F, g, solve_for, order)[k] / lead
    return g


@st.composite
def sparse(draw, n):
    """n coefficients, a drawn share of them +0.0 or -0.0.  Sparse patterns
    make the operands of the series products tie in their nonzero counts;
    the values are normal draws, since on the small integers hypothesis
    favours a reordered sum would round the same."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    scale = draw(st.sampled_from([1e-310, 1e-3, 1.0, 1e3]))  # 1e-310: subnormal
    vals = rng.normal(size=n) * scale
    return np.where(rng.random(n) < density, vals, rng.choice([0.0, -0.0], size=n))


@st.composite
def field_jets(draw):
    degree = draw(st.integers(min_value=0, max_value=16))
    n = degree + 1
    return Jet2(degree, draw(sparse(n * n)).reshape(n, n))


@settings(max_examples=150, deadline=None)
@given(field_jets(), st.integers(0, 16).flatmap(sparse), st.sampled_from("xy"),
       st.integers(0, 16))
def test_series_along_graph_matches_2d_compose_bitwise(F, g, solve_for, order):
    got = series_along_graph(F, g, solve_for, order)
    assert got.tobytes() == graph_route(F, g, solve_for, order).tobytes()


@settings(max_examples=60, deadline=None)
@given(field_jets(), st.sampled_from("xy"), st.integers(0, 16),
       st.floats(0.5, 4.0), st.sampled_from([1.0, -1.0]))
def test_ift_series_matches_2d_compose_bitwise(F, solve_for, order, lead, sign):
    if F.degree == 0:
        F = F.truncated(1)
    c = F.c.copy()
    c[0, 0] = 0.0
    c[(1, 0) if solve_for == "x" else (0, 1)] = sign * lead
    F = Jet2(F.degree, c)
    assert ift_series(F, solve_for, order).tobytes() == ift_route(F, solve_for, order).tobytes()


@pytest.mark.parametrize("solve_for", "xy")
@pytest.mark.parametrize("order", [3, 7, 9])
def test_ift_series_products_bounded_by_order(jet_work, solve_for, order):
    """Step k of ift_series composes through t^k only, so the series makes
    at most order * (order + 2) products of 1-D series whatever F's degree
    (recomposing the whole series at W = 16 per coefficient made 450 at
    order 9)."""
    rng = np.random.default_rng(order)
    counts = {}
    for degree in (8, 16):
        c = rng.normal(size=(degree + 1, degree + 1))
        c[0, 0] = 0.0
        c[(1, 0) if solve_for == "x" else (0, 1)] = 1.5
        _, work = jet_work(ift_series, Jet2(degree, c), solve_for, order)
        counts[degree] = work["series"]
    assert max(counts.values()) <= order * (order + 2)
    if order <= 8:  # every row of F up to t^order exists at both degrees
        assert counts[8] == counts[16]


# ------------------------------------------------------------------- recenter
def recenter_loop(jet, px, py):
    """Jet2.recenter as the plain double loop over the binomial terms."""
    from math import comb

    n = jet.degree + 1
    # shift in x: coefficient of x^a in sum_p c[p,q] (x+px)^p
    cx = np.zeros((n, n))
    for p in range(n):
        for a_ in range(p + 1):
            cx[a_, :] += comb(p, a_) * px ** (p - a_) * jet.c[p, :]
    out = np.zeros((n, n))
    for q in range(n):
        for b_ in range(q + 1):
            out[:, b_] += comb(q, b_) * py ** (q - b_) * cx[:, q]
    return Jet2(jet.degree, out)


NORMAL = st.floats(-2.0, 2.0, allow_subnormal=False)
SHIFTS = st.one_of(st.sampled_from([0.0, -0.0, 1e-310, 3.0, -3.0]), NORMAL,
                   NORMAL.map(np.float64))


@settings(max_examples=200, deadline=None)
@given(field_jets(), SHIFTS, SHIFTS)
def test_recenter_matches_double_loop_bitwise(F, px, py):
    assert F.recenter(px, py).c.tobytes() == recenter_loop(F, px, py).c.tobytes()


def test_recenter_examples():
    j = Jet2.from_triangular(2, [(2, 0, 1.0)])  # x^2
    r = j.recenter(1.0, 0.0)
    assert r.coeff(0, 0) == 1.0 and r.coeff(1, 0) == 2.0 and r.coeff(2, 0) == 1.0
    rng = np.random.default_rng(6)
    a = int_jet(rng, 4)
    assert a.recenter(0.0, 0.0) == a


def test_recenter_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = Jet2(4, rng.normal(size=(5, 5)))
        px, py = rng.uniform(-1, 1, 2)
        back = a.recenter(px, py).recenter(-px, -py)
        assert np.allclose(back.c, a.c, atol=1e-12)


# ----------------------------------------------------------------- invert_map
def test_invert_map_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(15):
        cu = rng.normal(size=(5, 5)) * 0.5
        cv = rng.normal(size=(5, 5)) * 0.5
        cu[0, 0] = cv[0, 0] = 0.0
        cu[1, 0] += 2.0  # well-conditioned linear part
        cv[0, 1] += 2.0
        u, v = Jet2(4, cu), Jet2(4, cv)
        s, t = invert_map(u, v)
        X = Jet2.variable("x", 4)
        Y = Jet2.variable("y", 4)
        assert np.allclose(u.compose(s, t).c, X.c, atol=1e-10)
        assert np.allclose(v.compose(s, t).c, Y.c, atol=1e-10)


# ------------------------------------------------------------------ resultant
def test_resultant_discriminant_point():
    closed, sylv = resultant_quartic_cubic(-2.0, 0.0, 1.0)
    assert closed == 0.0
    assert abs(sylv) < 1e-9


def test_resultant_origin():
    closed, sylv = resultant_quartic_cubic(0.0, 0.0, 0.0)
    assert closed == 0.0 and sylv == 0.0


def test_resultant_closed_form_vs_sylvester():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        u, v, w = rng.uniform(-2, 2, 3)
        closed = resultant_quartic_cubic(u, v, w)[0]
        sylv = sylvester_resultant_quartic_cubic(u, v, w)
        assert abs(closed - sylv) <= 1e-9 * max(1.0, abs(closed), abs(sylv))
