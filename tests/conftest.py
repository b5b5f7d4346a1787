import numpy as np
import pytest


@pytest.fixture
def small_np_full(monkeypatch):
    """np.full that fails, without allocating, above 10**7 entries: a test
    of a huge count fails instead of asking for gigabytes."""
    full = np.full

    def guarded(shape, *args, **kwargs):
        assert shape <= 10**7, f"np.full asked for {shape} entries"
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", guarded)
