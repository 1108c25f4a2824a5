import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
