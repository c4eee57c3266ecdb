"""Opt-in integration tests against a real CAS adapter.

Enable by pointing CLASSMAX_TEST_BACKEND_CMD at a command implementing the
wire protocol (see backend module docstring), e.g. a thin script around a
computer-algebra system.  Skipped entirely otherwise.
"""

import os
import random

import pytest

from classmax.backend import Backend
from classmax.classnum import class_number_imaginary, narrow_class_number_real
from classmax.cubic import enumerate_cubic_fields
from classmax.discriminants import IMAGINARY, iter_fundamental

COMMAND = os.environ.get("CLASSMAX_TEST_BACKEND_CMD")

pytestmark = pytest.mark.skipif(
    not COMMAND, reason="CLASSMAX_TEST_BACKEND_CMD not configured"
)


@pytest.fixture
def live_backend(tmp_path):
    with Backend(command=COMMAND, cache_path=str(tmp_path / "cache.txt")) as bk:
        yield bk


def test_native_backend_agreement_imaginary(live_backend):
    rng = random.Random(31337)
    discs = [q.value for q in iter_fundamental(IMAGINARY, 1, 100_000)]
    for d in rng.sample(discs, 200):
        assert live_backend.classno_quad(d) == class_number_imaginary(d), d


def test_native_backend_agreement_real(live_backend):
    for d in (5, 136, 229, 401, 3755521):
        assert live_backend.classno_quad(d) == narrow_class_number_real(d), d


def test_cubic_backend_source(live_backend):
    assert live_backend.classno_cubic(enumerate_cubic_fields(163)[0].coeffs) == 4
    assert live_backend.classno_cubic(enumerate_cubic_fields(7)[0].coeffs) == 1
