"""Shared fixtures and the acceptance-criterion result banner.

Acceptance tests register their criterion outcome through the
``acceptance`` fixture; after the run a one-line PASS/FAIL summary per
criterion is printed in the terminal summary.

BLAS is held to one thread for the whole suite.  The variables are read
when numpy loads, so this file refuses to run if something (a pytest
plugin, say) has imported numpy first.  Two checks compare wall-clock
medians (criterion 9's monotone ladder and the rerank-overhead ratio in
``test_pipeline.py``); with two BLAS threads and one busy neighbour on a
2-core machine, their short calls stall and both checks have failed.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py (by a pytest plugin?); "
        "the BLAS thread pin below would have no effect")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


class AcceptanceRecorder:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name
        _ACCEPTANCE_RESULTS[number] = (name, False)

    def passed(self) -> None:
        _ACCEPTANCE_RESULTS[self.number] = (self.name, True)


@pytest.fixture
def acceptance(request):
    """Factory: acceptance(n, name) -> recorder; call .passed() at the end."""
    return AcceptanceRecorder


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        name, ok = _ACCEPTANCE_RESULTS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {name}: {status}")


class SubnormalDy:
    """Per backward kernel, one flag per call: did its upstream gradient
    ``dy`` hold a subnormal entry?"""

    KERNELS = ("linear_backward", "layer_norm_backward", "gelu_backward",
               "attention_backward")

    def __init__(self):
        self.calls = {name: [] for name in self.KERNELS}

    def counts(self) -> dict[str, int]:
        return {name: sum(flags) for name, flags in self.calls.items()}

    @staticmethod
    def found_in(a) -> bool:
        """True if a float array holds a nonzero entry below its dtype's
        smallest normal number."""
        import numpy as np
        return bool(((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)).any())


@pytest.fixture
def subnormal_dy(monkeypatch):
    """A ``SubnormalDy`` fed by wrappers around the four backward kernels,
    installed in every module that imports them."""
    from cmcrank import nn
    from cmcrank.nn import attention, layer, ops
    record = SubnormalDy()
    for name, seen in record.calls.items():
        original = getattr(nn, name)

        def wrapped(dy, *args, _original=original, _seen=seen):
            _seen.append(SubnormalDy.found_in(dy))
            return _original(dy, *args)

        for module in (nn, ops, attention, layer):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    return record
