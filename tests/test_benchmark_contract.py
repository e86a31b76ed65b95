"""The traced benchmark run wraps covmem names; each one must still exist.

``perfbench/spans.py`` replaces functions and methods of covmem at the
names its callers look them up under.  A deleted or renamed name breaks
only the traced run, so this test installs the span recorder with a
probe that checks every name it is handed and wraps nothing.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


class ProbeRecorder:
    """Stands in for ``spans.Recorder``: records what would be wrapped, changes nothing."""

    def __init__(self):
        self.names = []

    def _check(self, owner, attr):
        target = getattr(owner, attr, None)
        assert callable(target), f"{owner.__name__}.{attr} is gone or not callable"
        self.names.append(f"{owner.__name__}.{attr}")

    def wrap(self, owner, attr, name, before=None, after=None):
        self._check(owner, attr)

    def wrap_generator(self, owner, attr, name):
        self._check(owner, attr)


def load_spans():
    spec = importlib.util.spec_from_file_location("covmem_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_and_is_callable():
    probe = ProbeRecorder()
    load_spans().install(probe)
    assert "covmem.selection.select" in probe.names
