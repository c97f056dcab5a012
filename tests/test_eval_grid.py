"""Grid evaluation, true-degree trimming, broadcasting and the stacked
pass over several jets are bit-identical to the padded ``polyval2d``
evaluation, including signed zeros."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from minkfeat.jets import Jet2, _JetStack  # noqa: E402
from minkfeat.patch import FeatureField  # noqa: E402

coefficient = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=True),
)
abscissae = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-2.0, max_value=2.0)),
    min_size=1, max_size=6,
)


@st.composite
def jets(draw):
    degree = draw(st.integers(min_value=0, max_value=16))
    n = degree + 1
    c = np.array(draw(st.lists(coefficient, min_size=n * n, max_size=n * n))).reshape(n, n)
    # zero whole trailing rows and columns now and then, so the stored
    # degree exceeds the true one
    rows, cols = draw(st.integers(0, n)), draw(st.integers(0, n))
    c[rows:, :] = draw(st.sampled_from([0.0, -0.0]))
    c[:, cols:] = draw(st.sampled_from([0.0, -0.0]))
    return Jet2(degree, c)


@settings(max_examples=150, deadline=None)
@given(jets(), abscissae, abscissae)
def test_eval_grid_matches_meshgrid_eval_bitwise(jet, xs, ys):
    xs, ys = np.array(xs), np.array(ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    want = np.polynomial.polynomial.polyval2d(X, Y, jet.c)  # padded array
    assert jet.eval_grid(xs, ys).tobytes() == jet.eval(X, Y).tobytes() == want.tobytes()
    for x, y in zip(X.ravel()[:4], Y.ravel()[:4]):
        scalar = np.polynomial.polynomial.polyval2d(x, y, jet.c)
        assert isinstance(jet.eval(x, y), np.float64)
        assert jet.eval(x, y).tobytes() == np.float64(scalar).tobytes()


points = st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]),
                                        st.floats(min_value=-2.0, max_value=2.0))] * 2),
                  min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.lists(jets(), min_size=1, max_size=9), points)
def test_stacked_pass_matches_each_jet_bitwise(stacked, pts):
    """Each row of a stacked pass over jets of different true degrees is
    numpy's polyval2d of that jet's padded array, signed zeros included."""
    x, y = np.array(pts).T
    got = _JetStack(stacked).eval(x, y)
    assert got.shape == (len(stacked), len(x))
    for row, jet in zip(got, stacked):
        assert row.tobytes() == np.polynomial.polynomial.polyval2d(x, y, jet.c).tobytes()


@settings(max_examples=100, deadline=None)
@given(jets(), abscissae, st.floats(min_value=-2.0, max_value=2.0))
def test_eval_broadcasts_like_full_arrays_bitwise(jet, xs, y0):
    X = np.array(xs)
    want = jet.eval(X, np.full_like(X, y0)).tobytes()
    assert jet.eval(X, y0).tobytes() == want
    assert jet.eval(X, np.float64(y0)).tobytes() == want
    assert jet.eval(X[:, None], np.array([y0, -y0])).tobytes() == jet.eval(
        np.column_stack([X, X]), np.tile([y0, -y0], (len(X), 1))).tobytes()
    g = FeatureField("LD", jet).gradient_at(X, y0)
    assert g.shape == (2, len(X))
