"""Fixtures shared by the test modules."""
import pytest

from trapnoise import spectra


@pytest.fixture
def thread_pools(monkeypatch):
    """The thread count of every pool the spectra module makes: the
    event-exact transform's direct sum and the four-step FFT of a sampled
    signal (one pool for its three passes)."""
    made = []
    real = spectra.ThreadPoolExecutor

    def spy(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(spectra, "ThreadPoolExecutor", spy)
    return made
