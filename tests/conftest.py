import sys
import pathlib
from collections import Counter

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))


@pytest.fixture
def jet_work(monkeypatch):
    """``jet_work(fn, *args)`` runs fn and returns its result with the
    number of Jet2 constructions ("new"), Jet2.compose calls ("compose"),
    jet evaluations ("eval") and Jet2.eval_grid calls ("eval_grid") it
    made: work counts that repeat exactly, so a test can bound them
    without timing anything.  A stacked pass over k jets
    (``_JetStack.eval``) counts as k evaluations, one per Jet2.eval it
    stands for."""
    from minkfeat.jets import Jet2, _JetStack

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

    def run(fn, *args, **kwargs):
        counts.clear()
        out = fn(*args, **kwargs)
        return out, {key: counts[key] for key in ("new", "compose", "eval", "eval_grid")}

    return run
