"""The user patience model."""

import math

import pytest

from repro.core import PatienceModel
from repro.core.patience import BETA, GAMMA


def test_paper_parameters_are_default():
    model = PatienceModel()
    assert model.alpha == 2.0
    assert BETA == 1.0
    assert GAMMA == 0.01


def test_alpha_is_the_floor():
    """Even an unimportant object earns a short wait."""
    model = PatienceModel()
    assert model.threshold(0) == pytest.approx(3.0)   # alpha + beta
    assert model.approves(0, 2.5)
    assert not model.approves(0, 3.5)


def test_threshold_grows_exponentially():
    model = PatienceModel()
    assert model.threshold(100) == pytest.approx(2 + math.e)
    assert model.threshold(900) == pytest.approx(2 + math.exp(9))
    # Monotone in priority.
    values = [model.threshold(p) for p in range(0, 1000, 50)]
    assert values == sorted(values)


def test_figure7_size_conversion():
    """60 s at 64 Kb/s = 480 KB (the paper's worked example)."""
    model = PatienceModel(alpha=59.0)     # tau(0) = 59 + 1 = 60 s
    assert model.max_file_bytes(0, 64_000) == pytest.approx(480_000)


def test_curve_shape():
    model = PatienceModel()
    sizes = [model.max_file_bytes(p, 9_600) for p in (0, 500, 1000)]
    assert sizes == sorted(sizes)


def test_higher_bandwidth_admits_larger_files():
    model = PatienceModel()
    assert model.max_file_bytes(500, 2_000_000) \
        > model.max_file_bytes(500, 9_600)
