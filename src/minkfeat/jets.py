"""Truncated bivariate polynomial jets.

A jet of degree k stores the coefficients a_{si} of the monomials
x^(s-i) y^i for 0 <= i <= s <= k.  Internally the grid is kept as a
square array ``c[p, q]`` holding the coefficient of x^p y^q, which makes
ring operations plain array arithmetic.  Ring operations truncate above
the degree, so a Jet2 of degree k is an element of R[x,y]/m^(k+1).

Jets are immutable after construction and safe to share across threads;
the coefficients cut to the true degree and the partial derivatives are
computed on first use and cached.

Every evaluation runs one kernel, ``_horner``: numpy's ``polyval``
recurrence done in place on one accumulator, so results are
bit-identical to ``polyval2d`` on the padded coefficient grid.
``Jet2.eval`` and ``Jet2.eval_grid`` run it once in x and once in y;
``_JetStack`` runs it on several jets at once, their true-degree grids
padded with +0.0 into one array.

Every series along a graph through the origin runs one kernel,
``_compose``: Jet2.compose's sums in their order (reports pin their bytes),
less terms that are ±0.0 through the coefficient asked for if finite.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "Jet2",
    "NonzeroConstantTerm",
    "DegenerateIFT",
    "ift_series",
    "invert_map",
    "resultant_quartic_cubic",
    "sylvester_resultant_quartic_cubic",
]


class NonzeroConstantTerm(ValueError):
    """Substitution argument has a nonzero constant term."""


class DegenerateIFT(ValueError):
    """The partial derivative needed by the implicit series vanishes at 0."""


@lru_cache(maxsize=None)
def _above_degree(degree: int) -> np.ndarray:
    """Read-only mask of the entries p + q > degree of a Jet2 coefficient grid."""
    p, q = np.indices((degree + 1, degree + 1))
    mask = p + q > degree
    mask.setflags(write=False)
    return mask


class Jet2:
    """Degree-k truncated polynomial in two variables."""

    __slots__ = ("degree", "c", "_trim", "_diffs")

    def __init__(self, degree: int, c: np.ndarray | None = None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = int(degree)
        n = self.degree + 1
        arr = np.zeros((n, n))
        if c is not None:
            m = min(n, c.shape[0]), min(n, c.shape[1])
            arr[: m[0], : m[1]] = np.asarray(c, dtype=float)[: m[0], : m[1]]
        arr[_above_degree(self.degree)] = 0.0
        arr.setflags(write=False)
        self.c = arr

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, degree: int) -> "Jet2":
        return cls(degree)

    @classmethod
    def constant(cls, value: float, degree: int) -> "Jet2":
        j = np.zeros((degree + 1, degree + 1))
        j[0, 0] = value
        return cls(degree, j)

    @classmethod
    def variable(cls, name: str, degree: int) -> "Jet2":
        if name not in ("x", "y"):
            raise ValueError("variable must be 'x' or 'y'")
        j = np.zeros((degree + 1, degree + 1))
        j[(1, 0) if name == "x" else (0, 1)] = 1.0
        return cls(degree, j)

    @classmethod
    def from_triangular(cls, degree: int, coeffs) -> "Jet2":
        """Build from (s, i, value) triples with monomial x^(s-i) y^i."""
        j = np.zeros((degree + 1, degree + 1))
        for s, i, v in coeffs:
            s, i = int(s), int(i)
            if not (0 <= i <= s <= degree):
                raise ValueError(f"bad triangular index ({s},{i}) for degree {degree}")
            j[s - i, i] = float(v)
        return cls(degree, j)

    def to_triangular(self):
        """Flat list of (s, i, value) triples, row-major in (s, i)."""
        return [(s, i, float(self.c[s - i, i]))
                for s in range(self.degree + 1) for i in range(s + 1)]

    # ------------------------------------------------------------------ ring
    def _binary(self, other, op):
        if isinstance(other, (int, float)):
            other = Jet2.constant(float(other), self.degree)
        k = max(self.degree, other.degree)
        a = Jet2(k, self.c).c
        b = Jet2(k, other.c).c
        return Jet2(k, op(a, b))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet2(self.degree, -self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet2(self.degree, self.c * float(other))
        k = max(self.degree, other.degree)
        a, b = self.c, other.c
        if np.count_nonzero(a) > np.count_nonzero(b):
            a, b = b, a
        out = np.zeros((k + 1, k + 1))
        for p, q in zip(*np.nonzero(a)):
            v = a[p, q]
            nb = min(k + 1 - p, b.shape[0])
            mb = min(k + 1 - q, b.shape[1])
            if nb > 0 and mb > 0:
                out[p : p + nb, q : q + mb] += v * b[:nb, :mb]
        return Jet2(k, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = Jet2.constant(1.0, self.degree)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Jet2)
            and self.degree == other.degree
            and np.array_equal(self.c, other.c)
        )

    def __repr__(self):
        terms = [f"{v:g}*x^{s - i}*y^{i}" for s, i, v in self.to_triangular() if v != 0.0]
        return f"Jet2(deg={self.degree}: {' + '.join(terms) or '0'})"

    # ------------------------------------------------------------- operations
    def truncated(self, degree: int) -> "Jet2":
        return Jet2(degree, self.c)

    def coeff(self, p: int, q: int) -> float:
        """Coefficient of x^p y^q."""
        if p + q > self.degree:
            return 0.0
        return float(self.c[p, q])

    def diff(self, var: str) -> "Jet2":
        try:
            cache = self._diffs
        except AttributeError:
            cache = self._diffs = {}
        got = cache.get(var)
        if got is not None:
            return got
        n = self.degree + 1
        out = np.zeros((n, n))
        if var == "x":
            for p in range(1, n):
                out[p - 1, :] += p * self.c[p, :]
        elif var == "y":
            for q in range(1, n):
                out[:, q - 1] += q * self.c[:, q]
        else:
            raise ValueError("var must be 'x' or 'y'")
        got = cache[var] = Jet2(max(self.degree - 1, 0), out)
        return got

    def _true_coeffs(self) -> np.ndarray:
        """``c`` without its trailing rows and columns of +0.0.

        A leading +0.0 coefficient is an exact no-op in Horner's rule for
        every finite argument, so evaluating the cut array is bit-identical
        to evaluating the padded one.  A -0.0 is not (it can flip the sign
        of a zero result), so rows and columns holding one are kept.
        """
        try:
            return self._trim
        except AttributeError:
            nz = self.c.view(np.uint64) != 0
            rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
            self._trim = self.c[: rows[-1] + 1 if rows.size else 1,
                                : cols[-1] + 1 if cols.size else 1]
            return self._trim

    def eval(self, x, y):
        """Evaluate exactly at scalars or numpy arrays (broadcasting).

        The arithmetic of ``polyval2d`` on the broadcast x and y: Horner
        in x on every column, then in y.  Scalars give a numpy scalar.
        """
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        c = self._true_coeffs()
        return _horner(_horner(c.reshape(c.shape + (1,) * x.ndim), x), y)

    def eval_grid(self, xs, ys):
        """Values on the tensor grid xs x ys, indexed [i, j] -> (xs[i], ys[j]).

        Bit-identical to ``eval`` on ``np.meshgrid(xs, ys, indexing="ij")``:
        both run the same Horner steps per element, x first, but this
        never builds the meshgrid or a (degree, n, n) temporary.
        """
        xs, ys = np.asarray(xs), np.asarray(ys)
        c = self._true_coeffs()
        v = _horner(c.reshape(c.shape + (1,) * xs.ndim), xs)
        return _horner(v.reshape(v.shape + (1,) * ys.ndim), ys)

    def gradient_at(self, x: float, y: float):
        return np.array([self.diff("x").eval(x, y), self.diff("y").eval(x, y)])

    def hessian_at(self, x: float, y: float):
        fx, fy = self.diff("x"), self.diff("y")
        return np.array(
            [
                [fx.diff("x").eval(x, y), fx.diff("y").eval(x, y)],
                [fx.diff("y").eval(x, y), fy.diff("y").eval(x, y)],
            ]
        )

    def compose(self, u: "Jet2", v: "Jet2") -> "Jet2":
        """Truncated substitution self(u(x,y), v(x,y)).

        u and v must vanish at the origin so that truncation commutes
        with substitution.
        """
        if abs(u.coeff(0, 0)) != 0.0 or abs(v.coeff(0, 0)) != 0.0:
            raise NonzeroConstantTerm("substituted jets must have zero constant term")
        k = max(self.degree, u.degree, v.degree)
        u = u.truncated(k)
        v = v.truncated(k)
        # Horner-style accumulation over rows of the coefficient grid:
        # f = sum_p x^p * (sum_q c[p,q] y^q)  evaluated at x=u, y=v.
        out = Jet2.zero(k)
        vpow = [Jet2.constant(1.0, k)]
        for q in range(1, k + 1):
            vpow.append(vpow[-1] * v)
        upow = Jet2.constant(1.0, k)
        for p in range(self.degree + 1):
            row = Jet2.zero(k)
            nz = np.nonzero(self.c[p, :])[0]
            for q in nz:
                row = row + vpow[q] * float(self.c[p, q])
            if nz.size:
                out = out + upow * row
            upow = upow * u
        return out

    def recenter(self, px: float, py: float) -> "Jet2":
        """Jet of the same polynomial about the point (px, py).

        Exact binomial shift: g(x, y) = f(x + px, y + py), truncated at
        the same degree (the shift of a polynomial of degree k has
        degree k, so no information is lost), bit-identical to the double
        loop over ``comb(p, a) * px ** (p - a) * c[p]``: one broadcast update
        per row p, then per column q, keeps the order of every sum.
        """
        n = self.degree + 1
        sx, sy = (np.array([[comb(p, a) * s ** (p - a) if a <= p else 0.0 for p in range(n)]
                            for a in range(n)]) for s in (px, py))
        cx, out = np.zeros((2, n, n))
        # shift in x: coefficient of x^a in sum_p c[p,q] (x+px)^p
        for p in range(n):
            cx[: p + 1] += sx[: p + 1, p, None] * self.c[p]
        for q in range(n):
            out[:, : q + 1] += cx[:, q, None] * sy[: q + 1, q]
        return Jet2(self.degree, out)


def _horner(c, x):
    """Horner's rule along the first axis of c, in place: sum_i c[i] x^i.

    numpy's ``polyval`` steps ``acc = c[i] + acc*x``, allocating two
    arrays per step; this runs ``acc *= x; acc += c[i]`` on one
    accumulator.  The start is the same ``c[-1] + x*0`` and IEEE addition
    and multiplication commute, so every result is bit-identical.  x
    broadcasts against c[0] (give c trailing unit axes for a tensor
    evaluation); a 0-d result is a numpy scalar.
    """
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc *= x
        acc += ci
    return acc


class _JetStack:
    """Several jets evaluated at the same points in one pass.

    Their true-degree coefficient grids sit in one array padded with
    +0.0.  A leading +0.0 coefficient is an exact no-op in Horner's rule
    (see ``Jet2._true_coeffs``), and padded columns evaluate to +0.0 in
    x, so each row of ``eval`` is bit-identical to that jet's own
    ``Jet2.eval``.
    """

    __slots__ = ("c",)

    def __init__(self, jets):
        cs = [j._true_coeffs() for j in jets]
        # axes: power of x, power of y, jet, and a unit axis for the points
        self.c = np.zeros((max(c.shape[0] for c in cs), max(c.shape[1] for c in cs), len(cs), 1))
        for k, c in enumerate(cs):
            self.c[: c.shape[0], : c.shape[1], k, 0] = c

    def __len__(self) -> int:
        return self.c.shape[2]

    def eval(self, x, y) -> np.ndarray:
        """Values at the points (x[i], y[i]) of two 1-D arrays, indexed [jet, i]."""
        return _horner(_horner(self.c, x), y)


# ---------------------------------------------------------------- series ops
def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two 1-D series of equal length.

    Jet2.__mul__ on one row or column: the operand with fewer nonzeros
    goes outer (a tie keeps ``a``), and its terms are accumulated in
    ascending order, so the product is bit-identical to the 2-D one.
    """
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    n = b.size
    out = np.zeros(n)
    for j in a.nonzero()[0]:
        out[j:] += a[j] * b[: n - j]
    return out


def _compose(F: Jet2, graph: np.ndarray, solve_for: str, top: int) -> np.ndarray:
    """Coefficients 0..top of F(graph, t) (solve_for='x') or F(t, graph)
    ('y'), graph[0] = 0, at W = graph.size - 1: no power of graph above t^top
    (±0.0 through t^top when finite), powers of t as exact shifts, arrays of
    length W + 1, since ``_series_mul`` orders its sums by nonzero counts."""
    one, out = np.zeros((2, graph.size))
    one[0] = 1.0
    pw = [one]  # graph**0 .. graph**min(F.degree, top)
    for _ in range(min(F.degree, top)):
        pw.append(_series_mul(pw[-1], graph))
    for p in range(len(pw)):
        if not F.c[p].any():
            continue
        row = np.zeros(graph.size)
        if solve_for == "x":  # row p of F(graph, t) is F.c[p], times graph**p
            row[: F.degree + 1] = F.c[p]
            out += _series_mul(pw[p], row)
        else:  # row p of F(t, graph) is sum_q F.c[p, q] graph**q, times t^p
            for q in F.c[p, : top - p + 1].nonzero()[0]:
                row += pw[q] * F.c[p, q]
            out[p:] += row[: graph.size - p]
    return out


def compose_graph(F: Jet2, g, solve_for: str, order: int) -> np.ndarray:
    """Coefficients 0..order of F(g(t), t) (solve_for='x') or F(t, g(t))
    ('y'), g(t) = g[0] t + g[1] t^2 + ... as returned by ift_series:
    ``_compose`` at W = max(F.degree, order), bit-identical to composing F
    with the graph as a row-0 or column-0 Jet2 of degree W."""
    if solve_for not in ("x", "y"):
        raise ValueError("solve_for must be 'x' or 'y'")
    graph = np.zeros(max(F.degree, order) + 1)
    m = min(len(g), graph.size - 1)
    graph[1 : m + 1] = np.asarray(g, dtype=float)[:m]
    return _compose(F, graph, solve_for, order)[: order + 1]


def ift_series(F: Jet2, solve_for: str, order: int, tol: float = 1e-12) -> np.ndarray:
    """Coefficients g_1..g_order of the branch of F = 0 through the origin.

    With solve_for='x' returns g such that F(g(y), y) = O(y^(order+1));
    with solve_for='y' the symmetric statement.  Requires F(0,0) = 0 and
    a nonzero partial in the solved variable.  Step k solves g_k from
    ``_compose`` through t^k only, at the full W = max(F.degree, order).
    """
    if solve_for not in ("x", "y"):
        raise ValueError("solve_for must be 'x' or 'y'")
    scale = max(1.0, float(np.max(np.abs(F.c))))
    if abs(F.coeff(0, 0)) > tol * scale:
        raise DegenerateIFT("F(0,0) != 0")
    lead = F.coeff(1, 0) if solve_for == "x" else F.coeff(0, 1)
    if abs(lead) <= tol * scale:
        raise DegenerateIFT("required partial derivative vanishes at the origin")

    graph = np.zeros(max(F.degree, order) + 1)  # graph[k] multiplies param^k
    for k in range(1, order + 1):
        graph[k] = -_compose(F, graph, solve_for, k)[k] / lead
    return graph[1 : order + 1].copy()


def invert_map(u: Jet2, v: Jet2) -> tuple[Jet2, Jet2]:
    """Jet inverse of the map (x,y) -> (u(x,y), v(x,y)).

    u, v must vanish at the origin and have an invertible linear part.
    Returns (s, t) with u(s(x,y), t(x,y)) = x and v(s, t) = y up to the
    common truncation degree (fixed-point iteration on the jet).
    """
    if u.coeff(0, 0) != 0.0 or v.coeff(0, 0) != 0.0:
        raise NonzeroConstantTerm("map must fix the origin")
    k = max(u.degree, v.degree)
    A = np.array([[u.coeff(1, 0), u.coeff(0, 1)], [v.coeff(1, 0), v.coeff(0, 1)]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < 1e-14 * max(1.0, np.abs(A).max() ** 2):
        raise ValueError("linear part is not invertible")
    Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
    X = Jet2.variable("x", k)
    Y = Jet2.variable("y", k)
    # start from the linear inverse, iterate s <- s - Ainv (u(s,t)-x, v(s,t)-y)
    s = Ainv[0, 0] * X + Ainv[0, 1] * Y
    t = Ainv[1, 0] * X + Ainv[1, 1] * Y
    for _ in range(k):
        ru = u.compose(s, t) - X
        rv = v.compose(s, t) - Y
        s = s - (Ainv[0, 0] * ru + Ainv[0, 1] * rv)
        t = t - (Ainv[1, 0] * ru + Ainv[1, 1] * rv)
    return s, t


# ------------------------------------------------------------- resultant ops
def resultant_quartic_cubic(u: float, v: float, w: float) -> tuple[float, float]:
    """Resultant of y^4 + u y^2 + v y + w and its derivative 4y^3 + 2uy + v.

    Returns (closed_form, sylvester) which agree up to rounding; the
    closed form is the quartic discriminant
    256 w^3 - 128 u^2 w^2 + 16 u^4 w + 144 u v^2 w - 27 v^4 - 4 u^3 v^2.
    """
    closed = (
        256.0 * w**3
        - 128.0 * u**2 * w**2
        + 16.0 * u**4 * w
        + 144.0 * u * v**2 * w
        - 27.0 * v**4
        - 4.0 * u**3 * v**2
    )
    return closed, sylvester_resultant_quartic_cubic(u, v, w)


def sylvester_resultant_quartic_cubic(u: float, v: float, w: float) -> float:
    """7x7 Sylvester determinant of y^4+uy^2+vy+w and 4y^3+2uy+v."""
    p = [1.0, 0.0, u, v, w]      # quartic, descending
    q = [4.0, 0.0, 2.0 * u, v]   # cubic, descending
    S = np.zeros((7, 7))
    for r in range(3):           # deg q rows of p
        S[r, r : r + 5] = p
    for r in range(4):           # deg p rows of q
        S[3 + r, r : r + 4] = q
    return float(np.linalg.det(S))
