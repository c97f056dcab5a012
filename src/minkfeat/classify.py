"""Point classification, coefficient invariants and singularity recognition.

Everything here works on the exact polynomial jets of a Monge patch.
The invariants Lambda1..Lambda14 follow the closed forms in terms of the
Monge coefficients; two of them (Lambda2, Lambda9) live in the adapted
null chart where E = G = 0 and are exposed through the ``null_chart_*``
helpers for caller-supplied coefficient bundles rather than computed
from Monge patches.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import Jet2, compose_graph, ift_series, DegenerateIFT
from .patch import (
    LIGHTCONE_FORM,
    TIMELIKE_FORM,
    FeatureField,
    MongePatch,
    bde_coefficients,
    bde_jets,
    feature_fields,
    fundamental_forms,
    homothety,
)

__all__ = [
    "MEMBERSHIP_RTOL",
    "HESSIAN_RTOL",
    "OutsideValidity",
    "InsufficientDegree",
    "WrongScenario",
    "AmbiguousScenario",
    "PointClass",
    "SingularityReport",
    "LambdaVector",
    "ScenarioReport",
    "classify_point",
    "lambda_invariants",
    "classify_singularity",
    "detect_scenario",
    "flat_umbilic_geometry",
    "lightlike_umbilic_geometry",
    "null_chart_tangency",
    "null_chart_a3",
    "series_along_graph",
    "SCENARIOS",
]

#: membership tolerance, scaled by the field's local gradient norm
MEMBERSHIP_RTOL = 1e-8
#: Hessian-degeneracy tolerance, scaled by the Hessian norm
HESSIAN_RTOL = 1e-7
#: default validity radius of jet-local statements
VALIDITY_RADIUS = 0.25

SCENARIOS = (
    "GENERIC",
    "LPL_PC_MCNC_TANGENCY",
    "FLAT_TIMELIKE_UMBILIC",
    "LPL_NON_MORSE",
    "MCNC_MORSE_SING",
    "PC_MORSE_SING",
    "LD_LPL_HIGH_TANGENCY",
    "LD_PC_TANGENCY",
    "LIGHTLIKE_UMBILIC",
)


class OutsideValidity(ValueError):
    """Query point outside the jet validity radius."""


class InsufficientDegree(ValueError):
    """Patch degree too low for the requested invariant."""


class WrongScenario(ValueError):
    """Geometry report requested for a patch not in that scenario."""


class AmbiguousScenario(RuntimeError):
    """Two discriminating quantities sit inside tolerance simultaneously."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"ambiguous scenario {report.scenario}: "
            f"quantities near zero: {report.ambiguous_quantities}"
        )


@dataclass(frozen=True)
class PointClass:
    region: str                       # Riemannian | Lorentzian | OnLD
    memberships: frozenset            # subset of {LPL, PC, MCNC}
    umbilic: str                      # none|spacelike|timelike|lightlike|flat-timelike


@dataclass(frozen=True)
class SingularityReport:
    kind: str
    label: str                        # regular|A1_plus|A1_minus|A3_plus|A3_minus|degenerate_unresolved
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    square_coeff: float = 0.0         # Hessian eigen/shear data of the nonzero square
    cubic_coeff: float = 0.0
    quartic_coeff: float = 0.0        # reduced coefficient along the kernel
    eliminated: str = ""              # variable removed in the A3 reduction


@dataclass
class LambdaVector:
    values: dict = field(default_factory=dict)   # name -> float or None (not applicable)
    aux: dict = field(default_factory=dict)

    def __getitem__(self, name):
        return self.values[name]


@dataclass
class ScenarioReport:
    scenario: str
    point: PointClass
    lambdas: LambdaVector
    singularities: dict = field(default_factory=dict)   # field kind -> label
    configuration: int | None = None
    contacts: dict = field(default_factory=dict)        # (a,b) -> order
    ambiguous_quantities: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)

    def to_jsonable(self):
        return {
            "scenario": self.scenario,
            "point": {
                "region": self.point.region,
                "memberships": sorted(self.point.memberships),
                "umbilic": self.point.umbilic,
            },
            "lambda": {k: v for k, v in sorted(self.lambdas.values.items()) if v is not None},
            "aux": {k: v for k, v in sorted(self.lambdas.aux.items())},
            "singularities": dict(sorted(self.singularities.items())),
            "configuration": self.configuration,
            "contacts": {f"{a}/{b}": n for (a, b), n in sorted(self.contacts.items())},
            "ambiguous": list(self.ambiguous_quantities),
            "tolerances": dict(sorted(self.tolerances.items())),
        }


# ------------------------------------------------------------------ helpers
def _scale(jet: Jet2, q) -> float:
    return max(1.0, float(np.linalg.norm(jet.gradient_at(q[0], q[1]))))


def series_along_graph(fld_jet: Jet2, g: np.ndarray, solve_for: str, order: int) -> np.ndarray:
    """Coefficients 0..order of a field composed with an IFT graph.

    ``g`` are the series coefficients g_1.. of the solved variable, as
    returned by ift_series with the same ``solve_for``.
    """
    return compose_graph(fld_jet, g, solve_for, order)


# ----------------------------------------------------------- classify_point
def classify_point(patch: MongePatch, q=(0.0, 0.0), tol: float = MEMBERSHIP_RTOL,
                   radius: float = VALIDITY_RADIUS) -> PointClass:
    if max(abs(q[0]), abs(q[1])) > radius:
        raise OutsideValidity(f"point {q} outside validity radius {radius}")
    bundle = fundamental_forms(patch)
    ff = feature_fields(bundle)
    delta = ff["LD"].jet
    d = float(delta.eval(q[0], q[1]))
    ds = _scale(delta, q)
    if abs(d) < tol * ds:
        region = "OnLD"
    elif d > 0:
        region = "Lorentzian"
    else:
        region = "Riemannian"

    members = set()
    for kind in ("LPL", "PC", "MCNC"):
        jet = ff[kind].jet
        if abs(float(jet.eval(q[0], q[1]))) < tol * _scale(jet, q):
            members.add(kind)

    A, B, C = bde_coefficients(bundle, q)
    bde_scale = max(
        1.0,
        *(np.linalg.norm(j.gradient_at(q[0], q[1])) for j in bde_jets(bundle)),
    )
    umbilic = "none"
    if max(abs(A), abs(B), abs(C)) < tol * bde_scale:
        if region == "OnLD":
            umbilic = "lightlike"
        elif region == "Lorentzian":
            K = float(ff["PC"].jet.eval(q[0], q[1]))
            flat = abs(K) < tol * _scale(ff["PC"].jet, q)
            umbilic = "flat-timelike" if flat else "timelike"
        else:
            umbilic = "spacelike"
    return PointClass(region, frozenset(members), umbilic)


# -------------------------------------------------------- lambda invariants
def lambda_invariants(patch: MongePatch, family=None, require=()) -> LambdaVector:
    """All invariants the patch's Monge form and degree allow.

    Null-chart quantities (Lambda2, Lambda9) are not derivable from a
    Monge patch and stay None; family-dependent quantities (Lambda8,
    Lambda14) are filled when a family with linear t-part is supplied;
    quantities beyond the patch degree stay None unless listed in
    ``require``, in which case InsufficientDegree is raised.
    """
    a = patch.a
    lv = LambdaVector({f"Lambda{i}": None for i in range(1, 15)})
    if patch.form == TIMELIKE_FORM and patch.degree >= 3:
        a10 = a11 = 0.0  # normalized chart
        a20, a21, a22 = a(2, 0), a(2, 1), a(2, 2)
        a30, a31, a32, a33 = a(3, 0), a(3, 1), a(3, 2), a(3, 3)
        lv.values["Lambda1"] = (
            (a20 - a11**2 * a20 + a22 * a10**2 + a22) * (a32 * a31 - 9 * a33 * a30)
            + (a11**2 * a21 - 2 * a11 * a22 * a10 - a21) * (a31**2 - 3 * a32 * a30)
            - (a10**2 * a21 - 2 * a11 * a10 * a20 + a21) * (a32**2 - 3 * a33 * a31)
        )
        lv.values["Lambda3"] = -a31**2 + 3 * a30 * a32 + a32**2 - 3 * a31 * a33
        lv.values["Lambda4"] = (
            -(a31**2) * a32**2 + 4 * a30 * a32**3 + 4 * a31**3 * a33
            - 18 * a30 * a31 * a32 * a33 + 27 * a30**2 * a33**2
        )
        lv.values["Lambda5"] = (a31 - 3 * a33) ** 2 + (a32 - 3 * a30) ** 2
        lv.values["Lambda6"] = (
            a31**2 - 3 * a30 * a32 - a31 * a32 + a32**2 + 9 * a30 * a33 - 3 * a31 * a33
        )
        lv.values["Lambda7"] = (
            a31**2 - 3 * a30 * a32 + a31 * a32 + a32**2 - 9 * a30 * a33 - 3 * a31 * a33
        )
        if patch.degree >= 4:
            a40, a41, a42, a43, a44 = a(4, 0), a(4, 1), a(4, 2), a(4, 3), a(4, 4)
            lv.values["Lambda11"] = 4 * a20**3 - a20 * a21**2 - 6 * a40 + a42
            lv.values["Lambda10"] = (
                -16 * (4 * a20**3 - a20 * a21**2 - 6 * a40 + a42)
                * (4 * a20**3 - a20 * a21**2 - a42 + 6 * a44)
                + (8 * a20**2 * a21 - 2 * a21**3 - 6 * a41 + 6 * a43) ** 2
            )
        if family is not None:
            h = family.linear_part()
            hxx, hxz, hzz = 2 * h.coeff(2, 0), h.coeff(1, 1), 2 * h.coeff(0, 2)
            lv.values["Lambda8"] = (
                -3 * a30 * a32 * hzz + 9 * a30 * a33 * hxz + a31**2 * hzz
                - a31 * a32 * hxz - 3 * a31 * a33 * hxx + a32**2 * hxx
            )
    elif patch.form == LIGHTCONE_FORM and patch.degree >= 3:
        a22, a30, a31, a32 = a(2, 2), a(3, 0), a(3, 1), a(3, 2)
        lv.values["Lambda13"] = 6 * a22**2 * a30 + 3 * a30 * a32 - a31**2
        a21 = a(2, 1)
        if patch.degree >= 4 and abs(a(2, 0)) < 1e-12 and abs(a21) > 1e-12:
            # Lambda12 is stated in the chart normalized to a21 = 1
            pn = homothety(patch, a21)
            lv.values["Lambda12"] = 4 * pn.a(2, 2) + 7 * pn.a(3, 1) + 12 * pn.a(4, 0)
        if family is not None:
            h = family.linear_part()
            hx = h.coeff(1, 0)
            lv.aux["h_xt"] = hx
            lv.values["Lambda14"] = a30 * hx * lv.values["Lambda13"]  # times t, sign rule
    for name in require:
        if lv.values.get(name) is None:
            raise InsufficientDegree(
                f"{name} not available for form {patch.form} at degree {patch.degree}"
            )
    return lv


# ----------------------------------------------------- classify_singularity
def classify_singularity(fld: FeatureField, q=(0.0, 0.0),
                         tol: float = MEMBERSHIP_RTOL) -> SingularityReport:
    """Recognize regular / A1+- / A3+- germs of a field at a zero.

    The A3 reduction eliminates the variable carrying the Hessian square
    by solving d(field)/d(var) = 0 as a series and restricting the field
    to that critical curve; the complementary coordinate stays as the
    curve parameter.  The x-variable is preferred whenever the Hessian
    xx-entry is usable, which reproduces the chart normalizations behind
    the closed-form quartic coefficients of the degenerate scenarios.
    """
    jet = fld.jet.recenter(q[0], q[1])
    value = jet.coeff(0, 0)
    grad = np.array([jet.coeff(1, 0), jet.coeff(0, 1)])
    H = np.array(
        [[2 * jet.coeff(2, 0), jet.coeff(1, 1)], [jet.coeff(1, 1), 2 * jet.coeff(0, 2)]]
    )
    # local scale: only coefficients through order 4 matter for the germ
    low = [abs(jet.coeff(p_, q_)) for p_ in range(5) for q_ in range(5 - p_)]
    gscale = max(1.0, *low)
    if np.linalg.norm(grad) > tol * gscale:
        return SingularityReport(fld.kind, "regular", value, grad, H)

    det = float(np.linalg.det(H))
    hnorm = float(np.linalg.norm(H))
    eps = HESSIAN_RTOL * max(1.0, hnorm**2)
    if det > eps:
        return SingularityReport(fld.kind, "A1_plus", value, grad, H)
    if det < -eps:
        return SingularityReport(fld.kind, "A1_minus", value, grad, H)
    if hnorm <= HESSIAN_RTOL * max(1.0, gscale):
        return SingularityReport(fld.kind, "degenerate_unresolved", value, grad, H)

    # rank-1 quadratic part: shear reduction
    eliminate = "x" if abs(H[0, 0]) >= HESSIAN_RTOL * hnorm else "y"
    square = H[0, 0] / 2.0 if eliminate == "x" else H[1, 1] / 2.0
    try:
        xi = ift_series(jet.diff(eliminate), eliminate, 3)
    except DegenerateIFT:
        return SingularityReport(fld.kind, "degenerate_unresolved", value, grad, H,
                                 square_coeff=square, eliminated=eliminate)
    psi = series_along_graph(jet, xi, eliminate, 4)
    c3, c4 = float(psi[3]), float(psi[4])
    cscale = gscale
    if abs(c3) > 1e-7 * cscale:
        label = "degenerate_unresolved"  # odd residual term: not an A3 germ
    elif abs(c4) <= 1e-9 * cscale:
        label = "degenerate_unresolved"
    elif c4 * np.sign(square) < 0:
        label = "A3_minus"
    else:
        label = "A3_plus"
    return SingularityReport(fld.kind, label, value, grad, H,
                             square_coeff=square, cubic_coeff=c3, quartic_coeff=c4,
                             eliminated=eliminate)


# ------------------------------------------------------- scenario detection
def _contact(ff, base: str, other: str, cap: int = 6) -> int:
    from .contact import contact_order

    return contact_order(ff[base], ff[other], (0.0, 0.0), cap=cap).order


def detect_scenario(patch: MongePatch, family=None,
                    tol: float = MEMBERSHIP_RTOL) -> ScenarioReport:
    """Codimension <= 1 scenario of the patch at its centre point.

    Raises AmbiguousScenario (carrying the partial report) when a
    nondegeneracy quantity required by the detected scenario sits inside
    tolerance as well.
    """
    bundle = fundamental_forms(patch)  # held: the helpers called below share its fields
    pc = classify_point(patch, (0.0, 0.0), tol=tol)
    lv = lambda_invariants(patch, family=family)
    ff = feature_fields(bundle)
    report = ScenarioReport("GENERIC", pc, lv,
                            tolerances={"membership": tol, "hessian": HESSIAN_RTOL})

    def near_zero(v, scale=1.0):
        return v is not None and abs(v) < 1e-6 * max(1.0, scale)

    if patch.form == LIGHTCONE_FORM:
        a20, a21 = patch.a(2, 0), patch.a(2, 1)
        if pc.umbilic == "lightlike":
            report.scenario = "LIGHTLIKE_UMBILIC"
            if patch.degree < 3:
                report.ambiguous_quantities.append("degree")
            for gate in ("Lambda13",):
                if near_zero(lv.values[gate]):
                    report.ambiguous_quantities.append(gate)
            for name, v in (("a30", patch.a(3, 0)), ("a22", patch.a(2, 2))):
                if abs(v) < 1e-6:
                    report.ambiguous_quantities.append(name)
            if not report.ambiguous_quantities:
                geo = lightlike_umbilic_geometry(patch, report=report)
                report.configuration = geo["configuration"]
                report.singularities["LD"] = geo["ld_label"]
                report.singularities["LPL"] = geo["lpl_label"]
        elif "LPL" in pc.memberships:
            # on LD and LPL (hence MCNC): tangency degree of LD vs LPL
            m_lpl = _contact(ff, "LD", "LPL")
            m_mcnc = _contact(ff, "LD", "MCNC")
            report.contacts[("LD", "LPL")] = m_lpl
            report.contacts[("LD", "MCNC")] = m_mcnc
            if m_lpl > 2:
                report.scenario = "LD_LPL_HIGH_TANGENCY"
                if near_zero(lv.values.get("Lambda12")):
                    report.ambiguous_quantities.append("Lambda12")
        elif "PC" in pc.memberships:
            m_pc = _contact(ff, "LD", "PC")
            report.contacts[("LD", "PC")] = m_pc
            if m_pc > 1:
                report.scenario = "LD_PC_TANGENCY"
    else:
        if pc.umbilic in ("timelike", "flat-timelike"):
            L3 = lv.values["Lambda3"]
            if pc.umbilic == "flat-timelike":
                report.scenario = "FLAT_TIMELIKE_UMBILIC"
                if patch.degree < 3:
                    report.ambiguous_quantities.append("degree")
                for gate in ("Lambda3", "Lambda4", "Lambda5", "Lambda6", "Lambda7"):
                    if near_zero(lv.values.get(gate)):
                        report.ambiguous_quantities.append(gate)
                if not report.ambiguous_quantities:
                    L4 = lv.values["Lambda4"]
                    L67 = lv.values["Lambda6"] * lv.values["Lambda7"]
                    report.configuration = 0 if L4 < 0 else (1 if L67 > 0 else 2)
                    report.singularities["LPL"] = "A1_minus"
                    report.singularities["PC"] = "A1_plus" if L4 < 0 else "A1_minus"
            elif near_zero(L3):
                report.scenario = "LPL_NON_MORSE"
                sing = classify_singularity(ff["LPL"])
                report.singularities["LPL"] = sing.label
            else:
                # plain timelike umbilic: stable A1- crossing of the LPL
                report.singularities["LPL"] = classify_singularity(ff["LPL"]).label
        elif len(pc.memberships) >= 2:
            m_mcnc = _contact(ff, "LPL", "MCNC")
            m_pc = _contact(ff, "LPL", "PC")
            report.contacts[("LPL", "MCNC")] = m_mcnc
            report.contacts[("LPL", "PC")] = m_pc
            if m_mcnc > 1:
                report.scenario = "LPL_PC_MCNC_TANGENCY"
                # configuration: sign of the mean-curvature field along the LPL
                report.configuration = _tangency_configuration(ff)
        else:
            H = ff["MCNC"].jet
            K = ff["PC"].jet
            if ("MCNC" in pc.memberships
                    and np.linalg.norm(H.gradient_at(0, 0)) < tol * max(1.0, np.max(np.abs(H.c)))):
                report.scenario = "MCNC_MORSE_SING"
                report.singularities["MCNC"] = classify_singularity(ff["MCNC"]).label
                if near_zero(lv.values.get("Lambda10")):
                    report.ambiguous_quantities.append("Lambda10")
            elif ("PC" in pc.memberships
                    and np.linalg.norm(K.gradient_at(0, 0)) < tol * max(1.0, np.max(np.abs(K.c)))):
                report.scenario = "PC_MORSE_SING"
                report.singularities["PC"] = classify_singularity(ff["PC"]).label

    if report.ambiguous_quantities:
        raise AmbiguousScenario(report)
    return report


def _tangency_configuration(ff) -> int:
    """1 or 2 by the sign of the quadratic term of the mean-curvature
    field along the coincidence-locus parametrization."""
    dtil = ff["LPL"].jet
    g = dtil.gradient_at(0.0, 0.0)
    solve_for = "x" if abs(g[0]) >= abs(g[1]) else "y"
    gser = ift_series(dtil, solve_for, 4)
    h = series_along_graph(ff["MCNC"].jet, gser, solve_for, 3)
    return 1 if h[2] > 0 else 2


# --------------------------------------------------- flat umbilic geometry
def flat_umbilic_geometry(patch: MongePatch) -> dict:
    """Tangent lines and sign data at a flat timelike umbilic.

    Returns the two coincidence-locus tangent lines r1, r2, the
    mean-curvature line r3, the quadratic form of the curvature field
    (sign chosen so evaluations on the tangent directions are perfect
    squares) and the four products controlling the relative positions.
    The tangent-direction evaluations use half-vectors (d/2, -c/2) for
    the quadratic form F and full vectors for the line-pair form G,
    which is the normalization under which the products equal Lambda6^2,
    Lambda7^2, Lambda6*Lambda7 and -4*Lambda6*Lambda7.
    """
    bundle = fundamental_forms(patch)  # held: classify_point shares its fields
    pc = classify_point(patch)
    if pc.umbilic != "flat-timelike":
        raise WrongScenario("patch is not centred at a flat timelike umbilic")
    a = patch.a
    a30, a31, a32, a33 = a(3, 0), a(3, 1), a(3, 2), a(3, 3)
    c1, d1 = 3 * a30 - 2 * a31 + a32, a31 - 2 * a32 + 3 * a33
    c2, d2 = 3 * a30 + 2 * a31 + a32, a31 + 2 * a32 + 3 * a33
    c3, d3 = 3 * a30 - a32, a31 - 3 * a33

    # j2 of the curvature field, in the sign convention (m^2 - l n) that
    # makes the values on the coincidence tangents nonnegative
    Kj = feature_fields(bundle)["PC"].jet
    k20, k21, k22 = -Kj.coeff(2, 0), -Kj.coeff(1, 1), -Kj.coeff(0, 2)

    def F_form(v):
        return (k20 * v[0] ** 2 + k21 * v[0] * v[1] + k22 * v[1] ** 2)

    def G_form(v):
        return (c1 * v[0] + d1 * v[1]) * (c2 * v[0] + d2 * v[1])

    v1, v2, v3 = (d1, -c1), (d2, -c2), (d3, -c3)
    half = lambda v: (v[0] / 2.0, v[1] / 2.0)
    return {
        "r1": (c1, d1),
        "r2": (c2, d2),
        "r3": (c3, d3),
        "k": (k20, k21, k22),
        "F_v1": F_form(half(v1)),
        "F_v2": F_form(half(v2)),
        "F_v3": F_form(half(v3)),
        "G_v3": G_form(v3),
        "tangents": {"r1": v1, "r2": v2, "r3": v3},
    }


# ----------------------------------------------- lightlike umbilic geometry
def lightlike_umbilic_geometry(patch: MongePatch, report=None) -> dict:
    """Curvature-graph data at a lightlike umbilic.

    Works in the chart where the squared part of the discriminant field
    is eliminated along x and the parameter stays y; in that chart the
    three curves through the point are graphs over y with vanishing
    1-jet and the configuration is decided by the y^2 coefficients.
    """
    bundle = fundamental_forms(patch)  # held: classify_point shares its fields
    pc = classify_point(patch)
    if pc.umbilic != "lightlike":
        raise WrongScenario("patch is not centred at a lightlike umbilic")
    a = patch.a
    a22, a30, a31, a32 = a(2, 2), a(3, 0), a(3, 1), a(3, 2)
    if abs(a30) < 1e-12 or abs(a22) < 1e-12:
        raise WrongScenario("degenerate lightlike umbilic (a30 or a22 vanishes)")
    L13 = 6 * a22**2 * a30 + 3 * a30 * a32 - a31**2

    dtil, K, H, delta = (feature_fields(bundle)[k].jet for k in ("LPL", "PC", "MCNC", "LD"))
    # critical curve of the discriminant field along x and reduced 1-variable germ
    xi = ift_series(dtil.diff("x"), "x", 3)
    psi = series_along_graph(dtil, xi, "x", 4)
    quartic = float(psi[4])                    # = -32 L13^3 / (27 a30^3)
    # curvature and mean-curvature zero graphs x(y), second derivatives in
    # the reduced chart: x''(0) = 12 a30 (g2 - xi2)
    gK = ift_series(K, "x", 3)
    gH = ift_series(H, "x", 3)
    xKpp = 12 * a30 * (gK[1] - xi[1])
    xHpp = 12 * a30 * (gH[1] - xi[1])

    lpl_label = "A3_minus" if quartic < 0 else "A3_plus"
    Hd = np.array([[2 * delta.coeff(2, 0), delta.coeff(1, 1)],
                   [delta.coeff(1, 1), 2 * delta.coeff(0, 2)]])
    ld_label = "A1_plus" if np.linalg.det(Hd) > 0 else "A1_minus"

    mcnc_between = None
    if quartic < 0:
        halfwidth = float(np.sqrt(-quartic))   # branches x = +- sqrt(-quartic) y^2
        mcnc_between = bool(abs(xHpp / 2.0) < halfwidth)
    # six configurations: A3 type x LD type (x MCNC position for A3-)
    if quartic > 0:
        configuration = 1 if ld_label == "A1_plus" else 2
    else:
        configuration = {
            ("A1_plus", True): 3,
            ("A1_plus", False): 4,
            ("A1_minus", True): 5,
            ("A1_minus", False): 6,
        }[(ld_label, mcnc_between)]

    out = {
        "tangent_line": (3 * a30, a31),
        "Lambda13": L13,
        "quartic": quartic,
        "x_K_pp": float(xKpp),
        "x_H_pp": float(xHpp),
        "ld_label": ld_label,
        "lpl_label": lpl_label,
        "mcnc_between": mcnc_between,
        "configuration": configuration,
    }
    if report is not None:
        report.lambdas.aux.update(
            {"x_K_pp": out["x_K_pp"], "x_H_pp": out["x_H_pp"], "quartic": quartic}
        )
    return out


# ------------------------------------------------------- null chart helpers
def null_chart_tangency(l_jet: Jet2, m_jet: Jet2, F00: float) -> dict:
    """Invariants of a first-order tangency between the coincidence locus
    and the mean-curvature curve in a chart with E = G = 0.

    Caller supplies the jets of the scaled second-form coefficients l, m
    (l(0) = m(0) = 0, l_u(0) != 0, tangency m_v l_u = m_u l_v) and the
    value F(0) != 0.  Returns Lambda2, the graph series of {l = 0} and
    the leading terms of the curvature/mean-curvature restrictions.
    """
    l10, l11 = l_jet.coeff(1, 0), l_jet.coeff(0, 1)
    if abs(l10) < 1e-12:
        raise DegenerateIFT("l_u(0) must not vanish")
    m10 = m_jet.coeff(1, 0)
    m20, m21, m22 = m_jet.coeff(2, 0), m_jet.coeff(1, 1), m_jet.coeff(0, 2)
    l20, l21, l22 = l_jet.coeff(2, 0), l_jet.coeff(1, 1), l_jet.coeff(0, 2)
    Lambda2 = (
        l10**3 * m22 - l10**2 * l11 * m21 - l10**2 * l22 * m10
        + l10 * l11**2 * m20 + l10 * l11 * l21 * m10 - l11**2 * l20 * m10
    )
    g = ift_series(l_jet, "x", 4)
    m_along = series_along_graph(m_jet, g, "x", 3)
    return {
        "Lambda2": Lambda2,
        "graph": g,
        "m_along": m_along,          # m o gamma = (Lambda2/l10^3) v^2 + ...
        "K_lead": (Lambda2 / l10**3) ** 2,
        "H_lead": -2.0 * F00 * Lambda2 / l10**3,
    }


def null_chart_a3(l_jet: Jet2, n_jet: Jet2) -> dict:
    """A3 data of the product germ l*n in a chart with E = G = 0.

    l and n vanish at 0 with proportional nonzero linear parts (the
    degenerate-umbilic setting); returns Lambda9 and the reduced quartic
    coefficient, which equals -Lambda9^2 / (4 a10^5 b10)."""
    a10, a11 = l_jet.coeff(1, 0), l_jet.coeff(0, 1)
    b10 = n_jet.coeff(1, 0)
    a20, a21, a22 = l_jet.coeff(2, 0), l_jet.coeff(1, 1), l_jet.coeff(0, 2)
    b20, b21, b22 = n_jet.coeff(2, 0), n_jet.coeff(1, 1), n_jet.coeff(0, 2)
    if abs(a10) < 1e-12 or abs(b10) < 1e-12:
        raise DegenerateIFT("linear coefficients a10, b10 must not vanish")
    Lambda9 = (
        -(a11**2) * a20 * b10 + a10 * a11 * a21 * b10 - a10**2 * a22 * b10
        + a10 * a11**2 * b20 - a10**2 * a11 * b21 + a10**3 * b22
    )
    W = l_jet.degree + n_jet.degree
    dtil = l_jet.truncated(W) * n_jet.truncated(W)
    xi = ift_series(dtil.diff("x"), "x", 3)
    psi = series_along_graph(dtil, xi, "x", 4)
    return {
        "Lambda9": Lambda9,
        "quartic": float(psi[4]),
        "quartic_closed": -(Lambda9**2) / (4 * a10**5 * b10),
        "square_sign": float(np.sign(a10 * b10)),
    }
