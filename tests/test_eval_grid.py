"""Grid evaluation and true-degree trimming are bit-identical to the
padded ``polyval2d`` evaluation, including signed zeros."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from minkfeat.jets import Jet2  # noqa: E402

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
        assert np.float64(jet.eval(x, y)).tobytes() == np.float64(scalar).tobytes()
