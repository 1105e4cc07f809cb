"""Shared fixtures for the test suite.

Profiling the full model zoo is the most expensive operation in the tests,
so profile tables and latency models are session-scoped fixtures.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import pytest

from repro.gpu.architecture import a100_spec
from repro.models.registry import get_model
from repro.perf.latency_model import LatencyModel
from repro.perf.profiler import Profiler

#: A small but representative batch sweep used across tests.
TEST_BATCHES = (1, 2, 4, 8, 16, 32)


@pytest.fixture(scope="session")
def architecture():
    """A fresh A100 architecture description."""
    return a100_spec()


@pytest.fixture(scope="session")
def latency_model():
    """The default analytical latency model."""
    return LatencyModel()


@pytest.fixture(scope="session")
def profiler():
    """A profiler with a reduced batch sweep (keeps the suite fast)."""
    return Profiler(batch_sizes=TEST_BATCHES)


@pytest.fixture(scope="session")
def mobilenet_profile(profiler):
    """Profiled lookup table for MobileNet."""
    return profiler.profile(get_model("mobilenet"))


@pytest.fixture(scope="session")
def resnet_profile(profiler):
    """Profiled lookup table for ResNet-50."""
    return profiler.profile(get_model("resnet"))


@pytest.fixture(scope="session")
def bert_profile(profiler):
    """Profiled lookup table for BERT-base."""
    return profiler.profile(get_model("bert"))


@pytest.fixture(scope="session")
def all_profiles(profiler):
    """Profiled lookup tables for every paper model."""
    from repro.models.registry import PAPER_MODELS

    return {name: profiler.profile(get_model(name)) for name in PAPER_MODELS}


class Call(NamedTuple):
    """One recorded call of a spied function."""

    args: tuple
    kwargs: dict
    result: Any


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` wraps ``owner.name`` for the test's duration and
    returns the list of its :class:`Call` records, one per call."""

    def install(owner, name):
        calls = []
        real = getattr(owner, name)

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(Call(args, kwargs, result))
            return result

        monkeypatch.setattr(owner, name, recording)
        return calls

    return install
