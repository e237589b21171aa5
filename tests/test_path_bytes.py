"""The path layer's bytes, pinned: sha256 digests of the event and signal
CSVs that ``run`` writes for two small presets.

fig4 at scale 1000 writes lone carriers' paths, each a group of one;
fig6 at scale 1024 writes the rows of carrier groups, and the signal
they superpose into.  These files do not depend on numpy's SIMD dispatch
level, but they do depend on the platform's long double, which the
prefix sums run in, and on the numpy release, whose generators and
formatting draw and write them.  So the digests are checked only where
they were made: x86_64, 80-bit long double, numpy 2.4.
"""
import hashlib
import platform

import numpy as np
import pytest

from trapnoise.presets import preset
from trapnoise.runner import run

_NUMPY = "2.4"
_DIGESTS = {
    ("fig4", 1000): {
        "fig4_T1e4_events.csv": "42719c7df2fe286874679219b5268eaddfccbc35e99b7be00b2353419369dbfa",
        "fig4_T1e6_events.csv": "5fa9eb89d9baf716c3a2074c55507b4db84e7818b827a53f4029f1bb55dbc078",
    },
    ("fig6", 1024): {
        "fig6_events.csv": "9a123444227da0188892042dd9244434f29b7096b54fdb40272bb92b20a608ee",
        "fig6_signal.csv": "339d8e63c7a33e5eeef32ba63cf7331d17d740e63a2d4c0d3cfba253bbeb1e59",
    },
}


def _where_made() -> str:
    """Why the digests do not apply here, or "" where they were made."""
    here = (
        platform.machine(),
        np.finfo(np.longdouble).nmant,
        ".".join(np.__version__.split(".")[:2]),
    )
    if here == ("x86_64", 63, _NUMPY):
        return ""
    return (
        f"digests made on x86_64 with an 80-bit long double (63-bit mantissa) "
        f"and numpy {_NUMPY}; this is {here[0]}, mantissa {here[1]}, numpy {here[2]}"
    )


@pytest.mark.skipif(bool(_where_made()), reason=_where_made() or "-")
@pytest.mark.parametrize("name, scale", list(_DIGESTS), ids=[n for n, _ in _DIGESTS])
def test_event_and_signal_csv_digests(tmp_path, name, scale):
    run(preset(name, scale=scale), tmp_path, workers=1, events_csv=True)
    got = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in _DIGESTS[name, scale]
    }
    assert got == _DIGESTS[name, scale]
