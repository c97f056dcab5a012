"""Monge-form surface patches and their feature fields.

Two chart orientations are supported:

* ``timelike``: embedding (x, f(x,z), z), j1 f = 0.  The origin has a
  timelike tangent direction, lies in the Lorentzian region (delta(0)=1)
  and E, F, G start at (1, 0, -1).
* ``lightcone``: embedding (x, y, f(x,y)), j1 f = x.  The origin lies on
  the locus of degeneracy and E, F, G start at (0, 0, 1).

``f`` is treated as an exact polynomial surface, so every derived field
(delta, the principal-direction discriminant, Gaussian and mean
curvature numerators) is computed as an exact polynomial jet; the jets
and the pointwise evaluators agree to rounding everywhere.

Derived jets have one route: ``fundamental_forms`` returns the patch's
shared form bundle, and ``feature_fields`` and ``bde_jets`` build their
jets once per bundle.  Bundles are memoised weakly, so a bundle and its
jets live exactly as long as some caller holds the bundle.

For the second Monge variable we always use the jet variable ``y``; in
the timelike chart it plays the role of the coordinate called z in the
embedding.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet2, invert_map
from . import minkowski as mk

__all__ = [
    "TIMELIKE_FORM",
    "LIGHTCONE_FORM",
    "FIELD_KINDS",
    "FrameDegeneracy",
    "MongePatch",
    "FormBundle",
    "FeatureField",
    "fundamental_forms",
    "feature_fields",
    "bde_coefficients",
    "bde_jets",
    "monge_taylor",
    "homothety",
    "LD_MEMBERSHIP_RTOL",
]

TIMELIKE_FORM = "timelike"
LIGHTCONE_FORM = "lightcone"
FIELD_KINDS = ("LD", "LPL", "PC", "MCNC")

#: |delta(q)| below this times the local gradient scale selects the
#: lightcone chart in monge_taylor.
LD_MEMBERSHIP_RTOL = 1e-8

#: weak memo (id(patch), cross sign) -> bundle; a bundle holds its patch, so the id is unique
_FORMS = weakref.WeakValueDictionary()


class FrameDegeneracy(ValueError):
    """No adapted Monge frame at the requested point (e.g. Riemannian)."""


def _check_form(form: str, f: Jet2, tol: float = 1e-9):
    if form == TIMELIKE_FORM:
        bad = max(abs(f.coeff(0, 0)), abs(f.coeff(1, 0)), abs(f.coeff(0, 1)))
        if bad > tol:
            raise ValueError("timelike form requires j1 f = 0")
    elif form == LIGHTCONE_FORM:
        bad = max(abs(f.coeff(0, 0)), abs(f.coeff(1, 0) - 1.0), abs(f.coeff(0, 1)))
        if bad > tol:
            raise ValueError("lightcone form requires j1 f = x")
    else:
        raise ValueError(f"unknown form {form!r}")


@dataclass(frozen=True)
class MongePatch:
    """A graph surface over one of the two adapted coordinate planes.

    ``normalized=True`` (the default) enforces the Monge 1-jet
    constraints at the origin; family deformations produce unnormalized
    graphs in the same embedding, for which only the field machinery
    (not the origin-centred classification) is meaningful.
    """

    form: str
    f: Jet2
    normalized: bool = True

    def __post_init__(self):
        if self.normalized:
            _check_form(self.form, self.f)
        elif self.form not in (TIMELIKE_FORM, LIGHTCONE_FORM):
            raise ValueError(f"unknown form {self.form!r}")

    @property
    def degree(self) -> int:
        return self.f.degree

    @classmethod
    def timelike(cls, degree: int, coeffs) -> "MongePatch":
        """Timelike patch from (s, i, value) triples, s >= 2."""
        return cls(TIMELIKE_FORM, Jet2.from_triangular(degree, coeffs))

    @classmethod
    def lightcone(cls, degree: int, coeffs) -> "MongePatch":
        """Lightcone patch from (s, i, value) triples for s >= 2; the
        linear term x is added automatically."""
        f = Jet2.from_triangular(degree, list(coeffs) + [(1, 0, 1.0)])
        return cls(LIGHTCONE_FORM, f)

    def a(self, s: int, i: int) -> float:
        """Monge coefficient a_{si} of x^(s-i) y^i."""
        return self.f.coeff(s - i, i)

    def embedding_components(self) -> tuple[Jet2, Jet2, Jet2]:
        """Jets of the three ambient components of the embedding."""
        k = max(self.degree, 1)
        X = Jet2.variable("x", k)
        Y = Jet2.variable("y", k)
        f = self.f.truncated(k)
        if self.form == TIMELIKE_FORM:
            return X, f, Y          # (x, f(x,z), z) with z stored in y-slot
        return X, Y, f              # (x, y, f(x,y))

    def embedding_point(self, q) -> np.ndarray:
        c0, c1, c2 = self.embedding_components()
        return np.array([c.eval(q[0], q[1]) for c in (c0, c1, c2)])

    def tangents(self, q) -> tuple[np.ndarray, np.ndarray]:
        c = self.embedding_components()
        xu = np.array([ci.diff("x").eval(q[0], q[1]) for ci in c])
        xv = np.array([ci.diff("y").eval(q[0], q[1]) for ci in c])
        return xu, xv


@dataclass(frozen=True)
class FormBundle:
    patch: MongePatch
    E: Jet2
    F: Jet2
    G: Jet2
    l: Jet2
    m: Jet2
    n: Jet2
    cross_sign: float = 1.0
    #: feature fields and BDE jets, built on first use
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class FeatureField:
    kind: str
    jet: Jet2
    #: read-only sign-change cell masks of the field's grids, keyed by
    #: (Rect, n); filled by ``tracer.intersect``
    _sign_cells: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, x, y):
        return self.jet.eval(x, y)

    def gradient_at(self, x: float, y: float) -> np.ndarray:
        return self.jet.gradient_at(x, y)


def fundamental_forms(patch: MongePatch, cross_sign: float = 1.0) -> FormBundle:
    """First fundamental form and cross-scaled second form of the patch.

    cross_sign=-1 recomputes with the flipped cross-product convention
    (flips l, m, n); exposed for the convention-invariance tests.  While a
    caller holds the bundle, every call for the same patch and sign returns it.
    """
    sign = float(np.sign(cross_sign))
    if sign not in (1.0, -1.0):
        raise ValueError(f"cross_sign must be a nonzero number, got {cross_sign!r}")
    key = (id(patch), sign)
    if (bundle := _FORMS.get(key)) is not None:
        return bundle
    k = patch.degree
    W = max(6 * k - 8, k, 4)  # large enough for every derived field to be exact
    f = patch.f.truncated(W)
    fx, fy = f.diff("x").truncated(W), f.diff("y").truncated(W)
    one = Jet2.constant(1.0, W)
    second = [f.diff(u).diff(v).truncated(W) for u, v in ("xx", "xy", "yy")]
    if patch.form == TIMELIKE_FORM:
        # x_x=(1,fx,0), x_z=(0,fz,1); x_x x x_z = (fx, -1, -fz)
        E, F, G = one + fx * fx, fx * fy, fy * fy - one
        flip = sign > 0
    else:
        # x_x=(1,0,fx), x_y=(0,1,fy); x_x x x_y = (-fx, -fy, -1)
        E, F, G = one - fx * fx, -(fx * fy), one - fy * fy
        flip = sign < 0
    l, m, n = (-j for j in second) if flip else second
    return _FORMS.setdefault(key, FormBundle(patch, E, F, G, l, m, n, cross_sign=sign))


def feature_fields(bundle: FormBundle) -> dict[str, FeatureField]:
    """The four feature fields as exact polynomial jets, built once per bundle.

    LD:   delta = F^2 - E G
    LPL:  B^2 - 4 A C, the discriminant of the BDE (see bde_jets)
    PC:   l n - m^2
    MCNC: l G - 2 m F + n E
    """
    ff = bundle._derived.get("fields")
    if ff is None:
        E, F, G, l, m, n = bundle.E, bundle.F, bundle.G, bundle.l, bundle.m, bundle.n
        A, B, C = bde_jets(bundle)
        ff = bundle._derived["fields"] = {
            "LD": FeatureField("LD", F * F - E * G),
            "LPL": FeatureField("LPL", B ** 2 - 4.0 * (A * C)),
            "PC": FeatureField("PC", l * n - m * m),
            "MCNC": FeatureField("MCNC", l * G - 2.0 * (m * F) + n * E),
        }
    return ff


def bde_jets(bundle: FormBundle) -> tuple[Jet2, Jet2, Jet2]:
    """Coefficient jets (A, B, C) of A dv^2 + B du dv + C du^2 = 0 for the
    extended curvature-line equation: A = G m - F n, B = G l - E n,
    C = F l - E m.  All three vanish exactly at umbilic points; built once per bundle."""
    abc = bundle._derived.get("bde")
    if abc is None:
        E, F, G, l, m, n = bundle.E, bundle.F, bundle.G, bundle.l, bundle.m, bundle.n
        abc = bundle._derived["bde"] = (G * m - F * n, G * l - E * n, F * l - E * m)
    return abc


def bde_coefficients(bundle: FormBundle, p) -> tuple[float, float, float]:
    return tuple(float(j.eval(p[0], p[1])) for j in bde_jets(bundle))


def homothety(patch: MongePatch, lam: float) -> MongePatch:
    """Rescale the surface by the ambient homothety v -> lam v.

    Both Monge normalizations are preserved; degree-i coefficients pick
    up lam^(1-i).
    """
    if lam == 0:
        raise ValueError("homothety factor must be nonzero")
    k = patch.degree
    c = np.array(patch.f.c)
    p, q = np.indices(c.shape)
    c = c * lam ** (1.0 - (p + q))
    return MongePatch(patch.form, Jet2(k, c))


# --------------------------------------------------------------- monge_taylor
def _largest_component_positive(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def monge_taylor(patch: MongePatch, q, degree: int | None = None) -> MongePatch:
    """Re-express the surface as a Monge patch centred at the point over q.

    Recentres the embedding at q and applies the Lorentz isometry that
    brings the surface to timelike form (Lorentzian point) or lightcone
    form (point on the locus of degeneracy, within tolerance).  Raises
    FrameDegeneracy at Riemannian points, which are out of scope.
    """
    if degree is None:
        degree = patch.degree
    k = patch.degree
    comps = patch.embedding_components()
    P = patch.embedding_point(q)
    xu, xv = patch.tangents(q)
    E_ = mk.inner(xu, xu)
    F_ = mk.inner(xu, xv)
    G_ = mk.inner(xv, xv)
    # delta at q and its gradient scale for the membership tolerance
    dj = feature_fields(fundamental_forms(patch))["LD"].jet
    delta = float(dj.eval(q[0], q[1]))
    gscale = max(1.0, float(np.hypot(*dj.gradient_at(q[0], q[1]))))

    gram = np.array([[E_, F_], [F_, G_]])
    if abs(delta) <= LD_MEMBERSHIP_RTOL * gscale:
        frame = _lightcone_frame(xu, xv, gram)
        form = LIGHTCONE_FORM
    elif delta > 0:
        frame = _timelike_frame(xu, xv, gram)
        form = TIMELIKE_FORM
    else:
        raise FrameDegeneracy("point is in the Riemannian region")

    e_graph, e_u, e_v = frame  # graph direction, first/second chart directions
    # coordinate jets: centred embedding paired with the frame covectors
    centred = []
    for c in comps:
        cr = c.recenter(q[0], q[1])
        centred.append(cr - cr.coeff(0, 0))

    def pair(e, sign=1.0):
        return sign * (e[0] * centred[0] + e[1] * centred[1] - e[2] * centred[2])

    if form == TIMELIKE_FORM:
        xt = pair(e_u)            # <., e1>, e1 spacelike
        zt = pair(e_v, -1.0)      # -<., e3>, e3 timelike
        val = pair(e_graph)       # <., e2>, e2 spacelike normal
        u_inv, v_inv = invert_map(xt, zt)
    else:
        xt = pair(e_u)            # <., E0>
        yt = pair(e_v)            # <., E1>
        val = pair(e_graph, -1.0)  # -<., E2>, E2 timelike
        u_inv, v_inv = invert_map(xt, yt)
    fnew = val.compose(u_inv, v_inv).truncated(degree)

    # snap the normalization exactly (residuals are pure rounding)
    c = np.array(fnew.c)
    if form == TIMELIKE_FORM:
        if max(abs(c[0, 0]), abs(c[1, 0]), abs(c[0, 1])) > 1e-7:
            raise FrameDegeneracy("adapted frame failed to normalize the 1-jet")
        c[0, 0] = c[1, 0] = c[0, 1] = 0.0
    else:
        if max(abs(c[0, 0]), abs(c[1, 0] - 1.0), abs(c[0, 1])) > 1e-7:
            raise FrameDegeneracy("adapted frame failed to normalize the 1-jet")
        c[0, 0] = c[0, 1] = 0.0
        c[1, 0] = 1.0
    return MongePatch(form, Jet2(degree, c))


def _timelike_frame(xu, xv, gram):
    """(normal, spacelike-in-plane, timelike-in-plane) Lorentz frame."""
    evals, evecs = np.linalg.eigh(gram)
    # Lorentzian plane: one negative, one positive eigenvalue
    if not (evals[0] < 0 < evals[1]):
        raise FrameDegeneracy("tangent metric is not Lorentzian")
    tangent = np.vstack([xu, xv])
    e1 = evecs[:, 1] @ tangent / np.sqrt(evals[1])
    e3 = evecs[:, 0] @ tangent / np.sqrt(-evals[0])
    nrm = mk.cross(xu, xv)
    n2 = mk.inner(nrm, nrm)
    if n2 <= 0:
        raise FrameDegeneracy("normal is not spacelike")
    e2 = nrm / np.sqrt(n2)
    e1 = _largest_component_positive(e1)
    if e3[2] < 0:
        e3 = -e3
    if np.linalg.det(np.vstack([e1, e2, e3])) < 0:
        e2 = -e2
    return e2, e1, e3


def _lightcone_frame(xu, xv, gram):
    """(E2, E0, E1) with tangent plane span(E0+E2, E1), Lorentz frame."""
    evals, evecs = np.linalg.eigh(gram)
    i_null = int(np.argmin(np.abs(evals)))
    i_pos = 1 - i_null
    if evals[i_pos] <= 0:
        raise FrameDegeneracy("degenerate tangent plane has no spacelike direction")
    tangent = np.vstack([xu, xv])
    L = evecs[:, i_null] @ tangent
    if abs(L[2]) < 1e-12 * np.linalg.norm(L):
        raise FrameDegeneracy("lightlike direction parallel to the spatial plane")
    L = L / L[2]  # normalize so the timelike component is +1
    S = evecs[:, i_pos] @ tangent
    E1 = S / np.sqrt(mk.inner(S, S))
    # a vector pseudo-orthogonal to E1 and independent of L
    w2 = None
    for cand in np.eye(3):
        w = cand - mk.inner(cand, E1) * E1  # E1 is a spacelike unit
        if np.linalg.norm(np.cross(w, L)) > 1e-8:
            w2 = w
            break
    if w2 is None:
        raise FrameDegeneracy("failed to build a complement of the spacelike direction")
    lw = mk.inner(L, w2)
    if abs(lw) < 1e-12:
        raise FrameDegeneracy("complement vector degenerate against the null direction")
    b = 2.0 / lw
    a = -(b * b) * mk.inner(w2, w2) / 4.0
    N = a * L + b * w2
    E0 = (L + N) / 2.0
    E2 = (L - N) / 2.0
    if np.linalg.det(np.vstack([E0, E1, E2])) < 0:
        E1 = -E1
    return E2, E0, E1
