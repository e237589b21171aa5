"""Fixtures and helpers shared by the test modules."""
import numpy as np
import pytest

from trapnoise import CarrierPath, spectra


def make_path(durations, horizon) -> CarrierPath:
    """A carrier path built from its durations, its ends the float64
    rounding of their whole-path longdouble prefix sum."""
    d = np.asarray(durations, dtype=np.float64)
    ends = np.cumsum(d, dtype=np.longdouble).astype(np.float64)
    return CarrierPath(durations=d, horizon=horizon, ends=ends)


@pytest.fixture
def thread_pools(monkeypatch):
    """The thread count of every pool the spectra module makes, one per
    threaded pass: the event-exact transform's direct sum makes one, and
    the four-step FFT of a sampled signal one for each of its four
    passes."""
    made = []
    real = spectra.ThreadPoolExecutor

    def spy(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(spectra, "ThreadPoolExecutor", spy)
    return made
