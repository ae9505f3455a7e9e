import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """A one-item list counting the np.linalg.svd calls made after the
    fixture is set up (operator_norm is one such call)."""
    count = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        count[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return count
