import numpy as np
import pytest

from minkfeat import (
    AmbiguousScenario,
    MongePatch,
    OutsideValidity,
    WrongScenario,
    classify_point,
    classify_singularity,
    detect_scenario,
    feature_fields,
    flat_umbilic_geometry,
    fundamental_forms,
    lambda_invariants,
    lightlike_umbilic_geometry,
    null_chart_a3,
    null_chart_tangency,
)
from minkfeat.jets import Jet2
from minkfeat.patch import FeatureField
from minkfeat.oracle import fd_gradient

from helpers import (
    flat_umbilic_patch,
    ld_lpl_patch,
    lightlike_umbilic_patch,
    lpl_mcnc_point_patch,
    non_morse_umbilic_patch,
    mcnc_singular_patch,
    random_timelike,
)


# ------------------------------------------------------------ classify_point
def test_timelike_umbilic_example():
    p = MongePatch.timelike(2, [(2, 0, 1.0), (2, 2, -1.0)])
    pc = classify_point(p)
    assert pc.region == "Lorentzian" and pc.umbilic == "timelike"


def test_onld_lpl_membership_example():
    p = MongePatch.lightcone(2, [(2, 1, 0.8)])
    pc = classify_point(p)
    assert pc.region == "OnLD"
    assert pc.memberships == frozenset({"LPL", "MCNC"})
    assert pc.umbilic == "none"


def test_lightlike_umbilic_membership_example():
    rng = np.random.default_rng(0)
    p = lightlike_umbilic_patch(rng)
    pc = classify_point(p)
    assert pc.umbilic == "lightlike"
    assert {"PC", "MCNC"} <= pc.memberships


def test_outside_validity():
    p = MongePatch.timelike(2, [(2, 0, 1.0)])
    with pytest.raises(OutsideValidity):
        classify_point(p, (0.5, 0.0))


def test_ld_lpl_iff_ld_mcnc():
    """On the degeneracy locus, coincidence-locus membership is equivalent
    to mean-curvature membership."""
    rng = np.random.default_rng(1)
    for _ in range(30):
        a20 = rng.normal() * 0.5
        p = MongePatch.lightcone(3, [(2, 0, a20), (2, 1, rng.normal()),
                                     (2, 2, rng.normal()), (3, 0, rng.normal())])
        pc = classify_point(p)
        assert ("LPL" in pc.memberships) == ("MCNC" in pc.memberships)


def test_lorentzian_two_implies_three():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = lpl_mcnc_point_patch(rng)
        pc = classify_point(p)
        assert pc.region == "Lorentzian"
        assert pc.memberships == frozenset({"LPL", "PC", "MCNC"})


# --------------------------------------------------------- lambda invariants
def test_lambda13_substitution():
    p = MongePatch.lightcone(3, [(2, 2, 1.0), (3, 0, 1.0)])
    assert lambda_invariants(p).values["Lambda13"] == 6.0


def test_lambda3_substitution():
    p = MongePatch.timelike(3, [(3, 0, 1.0), (3, 2, 1.0)])
    assert lambda_invariants(p).values["Lambda3"] == 4.0


def test_lambda_insufficient_degree():
    from minkfeat import InsufficientDegree

    p = MongePatch.lightcone(2, [(2, 0, 0.3)])
    assert lambda_invariants(p).values["Lambda13"] is None
    with pytest.raises(InsufficientDegree):
        lambda_invariants(p, require=("Lambda13",))


def test_lambda5_vanishing_iff_mcnc_singular():
    """Lambda5 = 0 iff a31 = 3 a33 and a32 = 3 a30, which is exactly a
    vanishing mean-curvature gradient at a flat umbilic; cross-checked by
    finite differences."""
    rng = np.random.default_rng(3)
    for tuned in (False, True):
        a30, a31 = rng.normal(size=2)
        a32 = 3 * a30 if tuned else rng.normal() + 3 * a30 + 0.5
        a33 = a31 / 3 if tuned else rng.normal() + a31 / 3 + 0.5
        p = MongePatch.timelike(3, [(3, 0, a30), (3, 1, a31), (3, 2, a32), (3, 3, a33)])
        L5 = lambda_invariants(p).values["Lambda5"]
        H = feature_fields(fundamental_forms(p))["MCNC"].jet
        g = fd_gradient(lambda x, y: float(H.eval(x, y)), (0.0, 0.0))
        assert (abs(L5) < 1e-12) == tuned
        assert (np.linalg.norm(g) < 1e-7) == tuned


def test_lambda10_vanishing_matches_hessian_degeneracy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = mcnc_singular_patch(rng)
        lv = lambda_invariants(p).values
        H = feature_fields(fundamental_forms(p))["MCNC"].jet
        Hess = H.hessian_at(0.0, 0.0)
        # derived identities: H_xx/2 = -2*Lambda11, det Hess = -Lambda10
        assert abs(Hess[0, 0] / 2 + 2 * lv["Lambda11"]) < 1e-10
        assert abs(np.linalg.det(Hess) + lv["Lambda10"]) < 1e-9 * max(
            1.0, abs(lv["Lambda10"])
        )


def test_lambda1_transversality_factor():
    """In the normalized chart the Jacobian of the discriminant and
    mean-curvature fields at a common zero equals 32 * Lambda1."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = lpl_mcnc_point_patch(rng)
        lv = lambda_invariants(p)
        ff = feature_fields(fundamental_forms(p))
        g1 = ff["LPL"].jet.gradient_at(0.0, 0.0)
        g2 = ff["MCNC"].jet.gradient_at(0.0, 0.0)
        jac = g1[0] * g2[1] - g1[1] * g2[0]
        assert abs(jac - 32.0 * lv.values["Lambda1"]) < 1e-9 * max(1.0, abs(jac))


def test_timelike_umbilic_a1_minus_predictor():
    """At timelike umbilics the discriminant-field Hessian determinant is
    negative whenever Lambda3 is bounded away from zero (500 random)."""
    rng = np.random.default_rng(6)
    for _ in range(500):
        a20 = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        tri = [(2, 0, a20), (2, 2, -a20)] + [(3, i, rng.normal()) for i in range(4)]
        p = MongePatch.timelike(3, tri)
        L3 = lambda_invariants(p).values["Lambda3"]
        if abs(L3) < 0.05:
            continue
        dtil = feature_fields(fundamental_forms(p))["LPL"].jet
        det = np.linalg.det(dtil.hessian_at(0.0, 0.0))
        assert det < 0


# ------------------------------------------------------- classify_singularity
@pytest.mark.parametrize(
    "triples,label",
    [
        ([(2, 0, 1.0), (2, 2, 1.0)], "A1_plus"),
        ([(2, 0, 1.0), (2, 2, -1.0)], "A1_minus"),
        ([(2, 0, -1.0), (2, 2, -1.0)], "A1_plus"),
        ([(2, 0, 1.0), (4, 4, 1.0)], "A3_plus"),
        ([(2, 0, 1.0), (4, 4, -1.0)], "A3_minus"),
        ([(2, 0, -1.0), (4, 4, 1.0)], "A3_minus"),
        ([(2, 0, -1.0), (4, 4, -1.0)], "A3_plus"),
        ([(2, 2, 1.0), (4, 0, 1.0)], "A3_plus"),
        ([(2, 2, 1.0), (4, 0, -1.0)], "A3_minus"),
    ],
)
def test_singularity_normal_forms(triples, label):
    f = FeatureField("LPL", Jet2.from_triangular(4, triples))
    assert classify_singularity(f).label == label


def test_singularity_regular():
    f = FeatureField("LD", Jet2.from_triangular(2, [(1, 0, 1.0), (2, 0, 1.0)]))
    assert classify_singularity(f).label == "regular"


def test_singularity_sheared_a3():
    # (x+y)^2 - y^4 has a rank-1 Hessian off-axis
    f = FeatureField("LPL", Jet2.from_triangular(
        4, [(2, 0, 1.0), (2, 1, 2.0), (2, 2, 1.0), (4, 4, -1.0)]))
    r = classify_singularity(f)
    assert r.label == "A3_minus"
    assert abs(r.quartic_coeff + 1.0) < 1e-10


def test_a3_quartic_matches_closed_form_lightlike():
    """Reduced quartic of the discriminant field at a lightlike umbilic:
    -32 Lambda13^3 / (27 a30^3), relative 1e-6."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = lightlike_umbilic_patch(rng)
        lv = lambda_invariants(p).values
        a30 = p.a(3, 0)
        target = -32.0 * lv["Lambda13"] ** 3 / (27.0 * a30**3)
        r = classify_singularity(feature_fields(fundamental_forms(p))["LPL"])
        assert r.label in ("A3_minus", "A3_plus")
        assert abs(r.quartic_coeff - target) < 1e-6 * max(1.0, abs(target))


def test_a3_quartic_matches_closed_form_null_chart():
    """Product-germ reduction in the null chart: quartic coefficient
    equals -Lambda9^2/(4 a10^5 b10), and the germ is A3-minus."""
    rng = np.random.default_rng(8)
    for _ in range(25):
        a10 = rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0])
        b10 = rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0])
        a11 = rng.normal() * 0.7
        l = Jet2.from_triangular(2, [(1, 0, a10), (1, 1, a11),
                                     (2, 0, rng.normal()), (2, 1, rng.normal()),
                                     (2, 2, rng.normal())])
        n = Jet2.from_triangular(2, [(1, 0, b10), (1, 1, a11 * b10 / a10),
                                     (2, 0, rng.normal()), (2, 1, rng.normal()),
                                     (2, 2, rng.normal())])
        out = null_chart_a3(l, n)
        if abs(out["Lambda9"]) < 1e-3:
            continue
        assert abs(out["quartic"] - out["quartic_closed"]) < 1e-6 * max(
            1.0, abs(out["quartic_closed"])
        )
        assert out["quartic"] * out["square_sign"] < 0  # always A3-minus
        germ = FeatureField("LPL", l.truncated(4) * n.truncated(4))
        assert classify_singularity(germ).label == "A3_minus"


def test_null_chart_tangency_lambda2():
    """Restrictions along the coincidence-locus graph: the curvature
    numerator starts at (Lambda2/l10^3)^2 v^4 and the mean-curvature
    restriction at -2 F00 (Lambda2/l10^3) v^2."""
    rng = np.random.default_rng(9)
    for _ in range(25):
        l10 = rng.uniform(0.5, 1.2) * rng.choice([-1.0, 1.0])
        l11 = rng.normal() * 0.6
        m10 = rng.normal()
        tri_l = [(1, 0, l10), (1, 1, l11), (2, 0, rng.normal()),
                 (2, 1, rng.normal()), (2, 2, rng.normal()),
                 (3, 0, rng.normal()), (3, 1, rng.normal()),
                 (3, 2, rng.normal()), (3, 3, rng.normal())]
        tri_m = [(1, 0, m10), (1, 1, l11 * m10 / l10), (2, 0, rng.normal()),
                 (2, 1, rng.normal()), (2, 2, rng.normal())]
        lj = Jet2.from_triangular(3, tri_l)
        mj = Jet2.from_triangular(3, tri_m)
        F00 = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        out = null_chart_tangency(lj, mj, F00)
        lead = out["Lambda2"] / l10**3
        assert abs(out["m_along"][1]) < 1e-10  # tangency kills the linear term
        assert abs(out["m_along"][2] - lead) < 1e-9 * max(1.0, abs(lead))
        assert abs(out["H_lead"] + 2 * F00 * lead) < 1e-9 * max(1.0, abs(lead))
        assert abs(out["K_lead"] - lead**2) < 1e-9 * max(1.0, lead**2)


# ------------------------------------------------------------- scenarios
def test_scenario_ld_lpl_high_tangency():
    rng = np.random.default_rng(10)
    p = ld_lpl_patch(rng, tuned=True)
    r = detect_scenario(p)
    assert r.scenario == "LD_LPL_HIGH_TANGENCY"
    assert r.contacts[("LD", "LPL")] == 4
    assert r.contacts[("LD", "MCNC")] == 2


def test_scenario_flat_umbilic_configuration():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(40):
        p = flat_umbilic_patch(rng)
        try:
            r = detect_scenario(p)
        except AmbiguousScenario:
            continue
        assert r.scenario == "FLAT_TIMELIKE_UMBILIC"
        lv = r.lambdas.values
        if lv["Lambda4"] < 0:
            assert r.configuration == 0
            assert r.singularities["PC"] == "A1_plus"
        else:
            assert r.configuration in (1, 2)
            assert r.singularities["PC"] == "A1_minus"
        assert r.singularities["LPL"] == "A1_minus"
        seen.add(r.configuration)
    assert {0, 1, 2} <= seen


def test_scenario_lightlike_umbilic():
    rng = np.random.default_rng(12)
    labels = set()
    for _ in range(40):
        p = lightlike_umbilic_patch(rng)
        try:
            r = detect_scenario(p)
        except AmbiguousScenario:
            continue
        assert r.scenario == "LIGHTLIKE_UMBILIC"
        assert r.singularities["LD"] in ("A1_plus", "A1_minus")
        assert r.singularities["LPL"] in ("A3_plus", "A3_minus")
        labels.add((r.singularities["LD"], r.singularities["LPL"]))
        assert r.configuration in (1, 2, 3, 4, 5, 6)
    assert len(labels) >= 3


def test_scenario_lpl_non_morse():
    rng = np.random.default_rng(13)
    p = non_morse_umbilic_patch(rng)
    r = detect_scenario(p)
    assert r.scenario == "LPL_NON_MORSE"
    assert r.singularities["LPL"] == "A3_minus"


def test_classify_singularity_work_count(jet_work):
    """The A3 shear reduction composes along the critical graph in one
    variable: no 2-D composition, and only the recentred jet and the
    eliminated partial are built (the 2-D route made 4 compositions and
    2 703 jets)."""
    p = non_morse_umbilic_patch(np.random.default_rng(13))
    r, work = jet_work(classify_singularity, feature_fields(fundamental_forms(p))["LPL"])
    assert r.label == "A3_minus"
    assert work["compose"] == 0
    assert work["new"] <= 4


@pytest.mark.parametrize("geometry,make", [
    (lightlike_umbilic_geometry, lightlike_umbilic_patch),
    (flat_umbilic_geometry, flat_umbilic_patch),
])
def test_umbilic_geometry_builds_one_bundle(jet_work, geometry, make):
    """Called directly, each geometry helper builds the patch's form bundle
    once and shares it with its classify_point call (it built two)."""
    geo, work = jet_work(geometry, make(np.random.default_rng(12)))
    assert geo
    assert work["forms"] == 1


def test_scenario_mcnc_morse_sing():
    rng = np.random.default_rng(14)
    p = mcnc_singular_patch(rng)
    r = detect_scenario(p)
    assert r.scenario == "MCNC_MORSE_SING"
    assert r.singularities["MCNC"] in ("A1_plus", "A1_minus")


def test_scenario_generic():
    p = MongePatch.timelike(3, [(2, 0, 0.5), (2, 1, 0.1), (2, 2, -0.2), (3, 0, 0.3)])
    assert detect_scenario(p).scenario == "GENERIC"


def test_scenario_tangency_and_configuration():
    rng = np.random.default_rng(15)
    seen = set()
    for _ in range(10):
        p = lpl_mcnc_point_patch(rng, degenerate=True)
        r = detect_scenario(p)
        assert r.scenario == "LPL_PC_MCNC_TANGENCY"
        assert r.contacts[("LPL", "MCNC")] == 2
        assert r.contacts[("LPL", "PC")] == 4
        seen.add(r.configuration)
    assert seen <= {1, 2} and seen


def test_ambiguous_scenario_raises_with_report():
    """A lightlike umbilic with Lambda13 tuned to zero is flagged, not
    guessed."""
    rng = np.random.default_rng(16)
    a22, a30, a31 = 0.5, 0.4, 0.3
    a32 = (a31**2 - 6 * a22**2 * a30) / (3 * a30)  # Lambda13 = 0
    p = MongePatch.lightcone(3, [(2, 2, a22), (3, 0, a30), (3, 1, a31), (3, 2, a32)])
    with pytest.raises(AmbiguousScenario) as exc:
        detect_scenario(p)
    assert "Lambda13" in exc.value.report.ambiguous_quantities


# ------------------------------------------------------- geometry reports
def int_rng_patch_flat(rng):
    tri = [(3, i, float(rng.integers(-4, 5))) for i in range(4)]
    if all(v == 0 for _, _, v in tri):
        tri[0] = (3, 0, 1.0)
    return MongePatch.timelike(3, tri)


def test_flat_umbilic_geometry_identities_exact():
    """With integer coefficients every quantity is integer-valued, so the
    sign-form identities hold exactly."""
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        p = int_rng_patch_flat(rng)
        a30, a31, a32, a33 = (p.a(3, i) for i in range(4))
        try:
            geo = flat_umbilic_geometry(p)
        except WrongScenario:
            continue
        checked += 1
        L6 = a31**2 - 3 * a30 * a32 - a31 * a32 + a32**2 + 9 * a30 * a33 - 3 * a31 * a33
        L7 = a31**2 - 3 * a30 * a32 + a31 * a32 + a32**2 - 9 * a30 * a33 - 3 * a31 * a33
        assert geo["F_v1"] - L6**2 == 0.0
        assert geo["F_v2"] - L7**2 == 0.0
        assert geo["F_v3"] - L6 * L7 == 0.0
        assert geo["G_v3"] + 4 * L6 * L7 == 0.0
        assert geo["k"][0] == 4 * (a31**2 - 3 * a30 * a32)
        assert geo["k"][1] == 4 * (a31 * a32 - 9 * a30 * a33)
        assert geo["k"][2] == 4 * (a32**2 - 3 * a31 * a33)


def test_flat_umbilic_geometry_wrong_scenario():
    rng = np.random.default_rng(18)
    with pytest.raises(WrongScenario):
        flat_umbilic_geometry(random_timelike(rng))


def test_lightlike_umbilic_geometry_curvatures():
    rng = np.random.default_rng(19)
    for _ in range(25):
        p = lightlike_umbilic_patch(rng)
        a22, a30, a31, a32 = p.a(2, 2), p.a(3, 0), p.a(3, 1), p.a(3, 2)
        L13 = 6 * a22**2 * a30 + 3 * a30 * a32 - a31**2
        geo = lightlike_umbilic_geometry(p)
        predH = 16 * a22 * L13 / (3 * a30)
        predK = 4 * L13 * (6 * a22**2 * a30 + L13) / (9 * a22 * a30**2)
        assert abs(geo["x_H_pp"] - predH) < 1e-8 * max(1.0, abs(predH))
        assert abs(geo["x_K_pp"] - predK) < 1e-8 * max(1.0, abs(predK))
        # sign equivalences of the configuration analysis
        if geo["quartic"] < 0:  # A3-minus case
            halfwidth = np.sqrt(-geo["quartic"])
            q31 = 3 * a30 * a32 - a31**2
            s = q31 / a30
            assert (abs(geo["x_H_pp"] / 2) > halfwidth) == (s < 0)
            assert geo["mcnc_between"] == (s > 0)
            # the curvature graph is never strictly between the branches
            assert abs(geo["x_K_pp"] / 2) > halfwidth or abs(q31) < 1e-9
            # magnitude ordering of the two graphs from the closed forms:
            # |x_K''| > |x_H''| iff q31 * (18 a22^2 a30 + Lambda13) > 0
            gate = q31 * (18 * a22**2 * a30 + L13)
            assert (abs(geo["x_K_pp"]) > abs(geo["x_H_pp"])) == (gate > 0)
            if s < 0:
                # same side of the branches; the curvature graph hugs the
                # branch pair and the mean-curvature graph lies beyond it
                assert np.sign(geo["x_K_pp"]) == np.sign(geo["x_H_pp"])
                assert gate < 0
                assert halfwidth < abs(geo["x_K_pp"] / 2) < abs(geo["x_H_pp"] / 2)


def test_lightlike_umbilic_six_configurations():
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(300):
        p = lightlike_umbilic_patch(rng)
        try:
            geo = lightlike_umbilic_geometry(p)
        except WrongScenario:
            continue
        key = (geo["lpl_label"], geo["ld_label"], geo["mcnc_between"])
        seen.add((key, geo["configuration"]))
    configs = {c for _, c in seen}
    assert configs == {1, 2, 3, 4, 5, 6}
    # the configuration index is a function of the (label, between) triple
    assert len({k for k, _ in seen}) == len(seen)
