import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property test draws the same examples on every run and host, and
# keeps no example database between runs.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

from wiretap_space import secrecy
from wiretap_space.receiver import DetectorModel


@pytest.fixture(autouse=True)
def fresh_photon_memo():
    """Each test starts with an empty photon-search memo, so the kernel calls
    a test counts do not depend on which tests ran before it."""
    secrecy._photon_search.cache_clear()


@pytest.fixture
def day_detector() -> DetectorModel:
    """Daytime reference detector: clear-sky stray light, quiet dark counts."""
    return DetectorModel(p_dark=1e-7, eta_optical=1.0, stray_mean=1e-4)


@pytest.fixture
def channel_calls(monkeypatch):
    """Points each channel's information is taken on, one entry per kernel call, by channel."""
    sizes = {"receiver": [], "interceptor": []}
    for channel, recorded in sizes.items():
        name = f"_{channel}_information"

        def counted(*args, information=getattr(secrecy, name), recorded=recorded):
            info = information(*args)
            recorded.append(info.size)
            return info

        monkeypatch.setattr(secrecy, name, counted)
    return sizes
