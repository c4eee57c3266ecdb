"""Opt-in integration test against a real CAS adapter.

Enable by pointing CLASSMAX_TEST_BACKEND_CMD at a command implementing the
wire protocol (see backend module docstring), e.g. a thin script around a
computer-algebra system.  Skipped otherwise.
"""

import os

import pytest

from classmax.backend import Backend
from classmax.cubic import enumerate_cubic_fields

COMMAND = os.environ.get("CLASSMAX_TEST_BACKEND_CMD")

pytestmark = pytest.mark.skipif(
    not COMMAND, reason="CLASSMAX_TEST_BACKEND_CMD not configured"
)


@pytest.fixture
def live_backend(tmp_path):
    with Backend(command=COMMAND, cache_path=str(tmp_path / "cache.txt")) as bk:
        yield bk


def test_cubic_backend_source(live_backend):
    assert live_backend.classno_cubic(enumerate_cubic_fields(163)[0].coeffs) == 4
    assert live_backend.classno_cubic(enumerate_cubic_fields(7)[0].coeffs) == 1
