import numpy as np
import numpy.linalg as npla
import pytest

from nshess import sets


@pytest.fixture
def svd_calls(monkeypatch):
    """Count SVDs, including the ones ``np.linalg.norm(a, 2)`` takes internally.

    The canonical-set memo is emptied first, so every geometry starts cold.
    """
    sets._canonical_pair.cache_clear()
    calls = []
    original = npla.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(npla, "svd", counting)
    inner = getattr(npla, "_linalg", None)
    if inner is not None and getattr(inner, "svd", None) is original:
        monkeypatch.setattr(inner, "svd", counting)
    return calls
