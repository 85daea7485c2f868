"""The per-point reference is a test fixture, never a production mode.

``reference_kernels()`` must leave the production classes exactly as it
found them, must actually run per-point code inside the block (so the
differential suite is not comparing the kernels with themselves), and
``src/`` must work with ``tests/`` nowhere on ``sys.path``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import GridChunk
from repro.operators import Coarsen, Rescale

from tests.reference import REFERENCES, reference_kernels, reference_patches
from tests.strategies import SOURCES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
VIS = SOURCES["goes.vis"]
_ABSENT = object()


def _production_entries():
    return [
        (production, name, production.__dict__.get(name, _ABSENT))
        for production, name, _ in reference_patches()
    ]


def _assert_restored(before):
    for (production, name, was), (_, _, now) in zip(before, _production_entries()):
        assert now is was, f"{production.__name__}.{name} not restored"


class TestInstallAndRestore:
    def test_every_operator_with_a_kernel_has_a_reference(self):
        assert len(REFERENCES) == 10
        assert all(len(ref.__bases__) == 1 for ref in REFERENCES)

    def test_restores_every_attribute_on_normal_exit(self):
        before = _production_entries()
        with reference_kernels():
            for production, name, attr in reference_patches():
                assert production.__dict__[name] is attr
            # Subclasses that define no hook of their own follow the base.
            assert Rescale._process is reference_patches()[0][2]
        _assert_restored(before)

    def test_restores_every_attribute_when_the_block_raises(self):
        before = _production_entries()
        with pytest.raises(RuntimeError, match="inside"):
            with reference_kernels():
                raise RuntimeError("inside")
        _assert_restored(before)

    def test_nested_blocks_unwind_in_order(self):
        before = _production_entries()
        with reference_kernels():
            with reference_kernels():
                pass
            # Leaving the inner block hands back the outer one's install.
            for production, name, attr in reference_patches():
                assert production.__dict__[name] is attr
        _assert_restored(before)


class TestReferenceActuallyRuns:
    def test_inside_and_outside_give_different_call_traces(self, monkeypatch):
        """``GridChunk.subwindow`` is a reference-only, per-row callback."""
        calls = []
        subwindow = GridChunk.subwindow

        def traced(self, *args, **kwargs):
            calls.append(args)
            return subwindow(self, *args, **kwargs)

        monkeypatch.setattr(GridChunk, "subwindow", traced)
        outside_op = Coarsen(2)
        outside = VIS.pipe(outside_op).collect_chunks()
        assert calls == []
        with reference_kernels():
            inside_op = Coarsen(2)
            inside = VIS.pipe(inside_op).collect_chunks()
        assert len(inside) == len(outside) > 0
        assert inside_op.stats == outside_op.stats
        assert len(calls) == inside_op.stats.chunks_in  # one per buffered row


class TestSrcDoesNotNeedTests:
    @staticmethod
    def _run(args, cwd):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(SRC)
        return subprocess.run(
            [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
            timeout=300,
        )

    def test_import_repro_without_tests_on_the_path(self, tmp_path):
        code = (
            "import importlib.util, sys; import repro, repro.operators, repro.server; "
            "assert importlib.util.find_spec('tests') is None; "
            "assert not [m for m in sys.modules if m == 'tests' or m.startswith('tests.')]"
        )
        done = self._run(["-c", code], tmp_path)
        assert done.returncode == 0, done.stderr

    def test_metrics_self_test_without_tests_on_the_path(self, tmp_path):
        done = self._run(["-m", "repro.cli", "metrics", "--self-test"], tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
