import sys
import pathlib
from collections import Counter

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))


@pytest.fixture
def jet_work(monkeypatch):
    """``jet_work(fn, *args)`` runs fn and returns its result with the
    number of Jet2 constructions ("new"), Jet2.compose calls ("compose")
    and Jet2.eval calls ("eval") it made: work counts that repeat
    exactly, so a test can bound them without timing anything."""
    from minkfeat.jets import Jet2

    counts = Counter()
    keys = {"__init__": "new", "compose": "compose", "eval": "eval"}
    for attr, key in keys.items():
        orig = getattr(Jet2, attr)

        def counted(*args, _orig=orig, _key=key, **kwargs):
            counts[_key] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(Jet2, attr, counted)

    def run(fn, *args, **kwargs):
        counts.clear()
        out = fn(*args, **kwargs)
        return out, {key: counts[key] for key in keys.values()}

    return run
