from collections import Counter

import numpy as np
import pytest

from snsim.potentials import PhysParams
from snsim.scenarios import ScenarioConfig, build_figure1


@pytest.fixture(scope="session")
def phys():
    return PhysParams()


# reduced oscillating-soliton run shared by the guidance tests: the same
# physics as the headline configuration, smaller grid, still resolved
SMALL_FIG_CFG = ScenarioConfig(scenario="figure1", n_points=2048)


@pytest.fixture(scope="session")
def small_figure1():
    return build_figure1(SMALL_FIG_CFG)


@pytest.fixture(scope="session")
def small_figure1_cfg():
    return SMALL_FIG_CFG


# the transforms of numpy.fft; the frequency and shift helpers are not counted
FFT_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                  "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """A Counter of the numpy.fft transforms called while the test runs."""
    calls = Counter()
    for name in FFT_TRANSFORMS:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
