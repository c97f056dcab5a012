"""Golden digests of every jet derived from a patch.

``golden/field_hashes.json`` holds the sha256 of ``c.tobytes()`` for the
form jets E, F, G, l, m, n, the four feature fields and the BDE jets
A, B, C of a fixed set of patches, each with both cross-product signs.
Any rewrite of the route from a patch to its derived jets must keep
these bytes.  Regenerate the file only with a deliberate, documented
change of the jets: ``python tests/test_field_hashes.py > tests/golden/field_hashes.json``
(with ``src`` on ``PYTHONPATH``).
"""
import hashlib
import json
import pathlib

import numpy as np

import helpers
from minkfeat import FIELD_KINDS, MongePatch, bde_jets, feature_fields, fundamental_forms

GOLDEN = pathlib.Path(__file__).parent / "golden" / "field_hashes.json"

CRITERION_10 = MongePatch.lightcone(4, [(2, 2, 0.6), (3, 0, 0.8), (3, 1, 0.3),
                                        (3, 2, -0.2), (3, 3, 0.4)])

#: the eight stratum constructions of helpers.py
STRATA = (
    ("lpl_mcnc_point", helpers.lpl_mcnc_point_patch),
    ("lpl_mcnc_point-degenerate", lambda r: helpers.lpl_mcnc_point_patch(r, degenerate=True)),
    ("ld_lpl", helpers.ld_lpl_patch),
    ("ld_lpl-tuned", lambda r: helpers.ld_lpl_patch(r, tuned=True)),
    ("lightlike_umbilic", helpers.lightlike_umbilic_patch),
    ("flat_umbilic", helpers.flat_umbilic_patch),
    ("non_morse_umbilic", helpers.non_morse_umbilic_patch),
    ("mcnc_singular", helpers.mcnc_singular_patch),
)


def golden_patches():
    """(name, patch): the criterion-10 patch, two draws of each stratum
    and ten random timelike/lightcone patches of degree 3 to 5."""
    yield "criterion_10", CRITERION_10
    for i, (name, make) in enumerate(STRATA):
        for draw in range(2):
            yield f"{name}/{draw}", make(np.random.default_rng(100 * i + draw))
    for k in range(10):
        make = helpers.random_timelike if k % 2 == 0 else helpers.random_lightcone
        yield f"random/{k}", make(np.random.default_rng(k), degree=3 + k % 3)


def jet_digests(patch, cross_sign):
    bundle = fundamental_forms(patch, cross_sign)
    ff = feature_fields(bundle)
    jets = {name: getattr(bundle, name) for name in ("E", "F", "G", "l", "m", "n")}
    jets.update((kind, ff[kind].jet) for kind in FIELD_KINDS)
    jets.update(zip("ABC", bde_jets(bundle)))
    return {name: hashlib.sha256(j.c.tobytes()).hexdigest() for name, j in jets.items()}


def all_digests():
    return {f"{name}:{sign:+.0f}": jet_digests(patch, sign)
            for name, patch in golden_patches() for sign in (1.0, -1.0)}


def test_derived_jets_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = all_digests()
    assert sorted(got) == sorted(want)
    bad = [(key, name) for key in want for name in want[key] if got[key][name] != want[key][name]]
    assert not bad, bad


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1, sort_keys=True))
