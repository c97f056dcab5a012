import sys
import pathlib
from collections import Counter

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))


@pytest.fixture
def jet_work(monkeypatch):
    """``jet_work(fn, *args)`` runs fn and returns its result with the
    number of Jet2 constructions ("new"), Jet2.compose calls ("compose"),
    jet evaluations ("eval"), Jet2.eval_grid calls ("eval_grid"), form
    bundles ("forms"), feature fields ("fields") and products of 1-D
    series (``jets._series_mul`` calls, "series") it made: work counts
    that repeat exactly, so a test can bound them without timing
    anything.  A stacked pass over k jets (``_JetStack.eval``) counts as
    k evaluations, one per Jet2.eval it stands for."""
    from minkfeat import jets
    from minkfeat.jets import Jet2, _JetStack
    from minkfeat.patch import FeatureField, FormBundle

    counts = Counter()

    def count(owner, attr, key, weight=lambda *args: 1):
        orig = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += weight(*args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for attr, key in (("__init__", "new"), ("compose", "compose"), ("eval", "eval"),
                      ("eval_grid", "eval_grid")):
        count(Jet2, attr, key)
    count(_JetStack, "eval", "eval", weight=lambda stack, *args: len(stack))
    count(FormBundle, "__init__", "forms")
    count(FeatureField, "__init__", "fields")
    count(jets, "_series_mul", "series")

    def run(fn, *args, **kwargs):
        counts.clear()
        out = fn(*args, **kwargs)
        return out, {key: counts[key] for key in ("new", "compose", "eval", "eval_grid",
                                                  "forms", "fields", "series")}

    return run
