"""The cross-backend test axis shared by the bit-identity suites."""

import pytest

from repro.jit import dispatch

requires_jit = pytest.mark.skipif(
    not dispatch.jit_available(),
    reason=f"jit engine unavailable: {dispatch.jit_unavailable_reason()}",
)

#: numpy always runs, jit skips with the engine's own failure reason
#: when it does not compile
BACKENDS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("jit", id="jit", marks=requires_jit),
]
