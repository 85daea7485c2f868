"""The custom repo lint (tools/repro_lint.py): every rule, both ways.

Each rule gets a positive case (a synthetic file that must trip it) and
a negative case (the idiomatic form that must not), written into a tmp
tree shaped like the real repo so the path-scoped rules see the paths
they key on. The final test pins the real tree clean — the same
assertion CI makes by running ``python -m tools.repro_lint``.
"""

import pathlib

from tools.repro_lint import LINE_BUDGETS, Violation, lint_file, lint_paths, main

REPO = pathlib.Path(__file__).parent.parent


def lint_source(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(path, tmp_path)


def codes(violations):
    return [v.code for v in violations]


# -- RL001: no timing on the untraced fast path -----------------------------------


def test_rl001_flags_perf_counter_on_fast_path(tmp_path):
    src = "import time\n\ndef f():\n    return time.perf_counter()\n"
    assert codes(lint_source(tmp_path, "src/repro/core/chunk.py", src)) == ["RL001"]


def test_rl001_flags_from_import(tmp_path):
    src = "from time import perf_counter\n"
    assert codes(lint_source(tmp_path, "src/repro/geo/crs.py", src)) == ["RL001"]


def test_rl001_allows_timing_in_obs_and_server(tmp_path):
    src = "import time\n\ndef f():\n    return time.perf_counter()\n"
    for rel in (
        "src/repro/obs/probe.py",
        "src/repro/obs/trace.py",
        "src/repro/engine/scheduler.py",
        "src/repro/cli.py",
        "src/repro/operators/delivery.py",
    ):
        assert lint_source(tmp_path, rel, src) == []
    # The server is fast path: its run loop and router see every chunk.
    for rel in ("src/repro/server/dsms.py", "src/repro/server/routing.py"):
        assert codes(lint_source(tmp_path, rel, src)) == ["RL001"]


def test_rl001_forbids_timing_in_both_executors(tmp_path):
    # Only repro.obs.probe may time an operator step.
    src = "from time import perf_counter\n"
    for rel in ("src/repro/plan/stages.py", "src/repro/engine/pipeline.py"):
        assert codes(lint_source(tmp_path, rel, src)) == ["RL001"]


def test_rl001_ignores_files_outside_the_library(tmp_path):
    src = "import time\nt = time.time()\n"
    assert lint_source(tmp_path, "benchmarks/bench_x.py", src) == []


# -- RL002: no cross-package underscore imports -----------------------------------


def test_rl002_flags_relative_private_import(tmp_path):
    src = "from ..plan import _private_helper\n"
    assert codes(lint_source(tmp_path, "src/repro/query/opt.py", src)) == ["RL002"]


def test_rl002_flags_absolute_private_import(tmp_path):
    src = "from repro.obs.registry import _hidden\n"
    assert codes(lint_source(tmp_path, "src/repro/core/x.py", src)) == ["RL002"]


def test_rl002_allows_same_package_and_public_names(tmp_path):
    src = "from .nodes import _fold\nfrom ..query import ast\nfrom repro.geo import CRS\n"
    assert lint_source(tmp_path, "src/repro/plan/canonical.py", src) == []


def test_rl002_allows_dunder_names(tmp_path):
    src = "from ..plan import __version__\n"
    assert lint_source(tmp_path, "src/repro/query/opt.py", src) == []


# -- RL003: fingerprinted nodes stay frozen ---------------------------------------


def test_rl003_flags_bare_dataclass_in_nodes(tmp_path):
    # Plan nodes are the query AST classes, so ast.py is the node file RL003 guards.
    src = (
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass SpatialRestrict:\n    child: object\n"
    )
    assert codes(lint_source(tmp_path, "src/repro/query/ast.py", src)) == ["RL003"]


def test_rl003_flags_frozen_false_in_ast(tmp_path):
    src = (
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=False)\nclass StreamRef:\n    stream_id: str\n"
    )
    assert codes(lint_source(tmp_path, "src/repro/query/ast.py", src)) == ["RL003"]


def test_rl003_accepts_frozen_and_ignores_other_files(tmp_path):
    frozen = (
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass StreamRef:\n    stream_id: str\n"
    )
    assert lint_source(tmp_path, "src/repro/query/ast.py", frozen) == []
    mutable = "from dataclasses import dataclass\n\n@dataclass\nclass State:\n    n: int\n"
    assert lint_source(tmp_path, "src/repro/engine/state.py", mutable) == []


# -- RL004: registry mutations only under the lock --------------------------------


def test_rl004_flags_unlocked_mutations(tmp_path):
    src = (
        "class MetricsRegistry:\n"
        "    def put(self, k, v):\n"
        "        self._metrics[k] = v\n"
        "    def reset(self):\n"
        "        self._metrics.clear()\n"
    )
    assert codes(lint_source(tmp_path, "src/repro/obs/registry.py", src)) == [
        "RL004",
        "RL004",
    ]


def test_rl004_allows_locked_mutations_and_reads(tmp_path):
    src = (
        "class MetricsRegistry:\n"
        "    def put(self, k, v):\n"
        "        with self._lock:\n"
        "            self._metrics[k] = v\n"
        "    def get(self, k):\n"
        "        return self._metrics.get(k)\n"
    )
    assert lint_source(tmp_path, "src/repro/obs/registry.py", src) == []


def test_rl004_scoped_to_the_registry_file(tmp_path):
    src = "class X:\n    def put(self, k, v):\n        self._metrics[k] = v\n"
    assert lint_source(tmp_path, "src/repro/obs/export.py", src) == []


# -- RL005: no unseeded random in repro.faults ------------------------------------


def test_rl005_flags_module_level_random(tmp_path):
    src = "import random\n\ndef roll():\n    return random.random()\n"
    assert codes(lint_source(tmp_path, "src/repro/faults/injector.py", src)) == ["RL005"]


def test_rl005_flags_from_import_and_numpy_global(tmp_path):
    src = "from random import choice\n"
    assert codes(lint_source(tmp_path, "src/repro/faults/spec.py", src)) == ["RL005"]
    src = "import numpy as np\n\ndef roll():\n    return np.random.rand()\n"
    assert codes(lint_source(tmp_path, "src/repro/faults/chaos.py", src)) == ["RL005"]


def test_rl005_allows_seeded_random_instances(tmp_path):
    src = (
        "from random import Random\nimport random\n\n"
        "def make(seed):\n    return random.Random(seed)\n"
    )
    assert lint_source(tmp_path, "src/repro/faults/injector.py", src) == []


def test_rl005_scoped_to_faults(tmp_path):
    src = "import random\nx = random.random()\n"
    assert lint_source(tmp_path, "src/repro/ingest/scene.py", src) == []


# -- RL006: stage-table mutation only inside EpochTransition ----------------------


def test_rl006_flags_mutating_calls(tmp_path):
    src = (
        "def hack(dag, stage):\n"
        "    dag.order.append(stage)\n"
        "    stage.subscribers.add(7)\n"
        "    stage.outputs.clear()\n"
    )
    assert codes(lint_source(tmp_path, "src/repro/server/dsms.py", src)) == [
        "RL006",
        "RL006",
        "RL006",
    ]


def test_rl006_flags_subscript_assignment_and_deletion(tmp_path):
    src = (
        "def hack(dag, stage):\n"
        "    dag._by_fingerprint['fp'] = stage\n"
        "    dag.taps['goes.vis'] = []\n"
        "    del dag._by_fingerprint['fp']\n"
        "    stage.epochs[1] = 2\n"
    )
    assert codes(lint_source(tmp_path, "src/repro/plan/stages.py", src)) == [
        "RL006"
    ] * 4


def test_rl006_flags_rebinding_outside_init(tmp_path):
    src = "def hack(dag):\n    dag.order = []\n"
    assert codes(lint_source(tmp_path, "src/repro/plan/stages.py", src)) == ["RL006"]


def test_rl006_allows_init_construction_and_reads(tmp_path):
    src = (
        "class Stage:\n"
        "    def __init__(self):\n"
        "        self.outputs = []\n"
        "        self.subscribers = set()\n"
        "        self.epochs = {}\n"
        "def read(dag):\n"
        "    return [s for s in dag.order if dag.taps.get('x')]\n"
    )
    assert lint_source(tmp_path, "src/repro/plan/stages.py", src) == []


def test_rl006_exempts_epoch_transition_module(tmp_path):
    src = "def wire(dag, stage):\n    dag.order.append(stage)\n"
    assert lint_source(tmp_path, "src/repro/plan/epoch.py", src) == []


def test_rl006_scoped_to_the_library(tmp_path):
    src = "def hack(dag, stage):\n    dag.order.append(stage)\n"
    assert lint_source(tmp_path, "tests/test_x.py", src) == []


# -- RL007: telemetry timeline is logical-clock only ------------------------------


def test_rl007_flags_time_import_in_timeline(tmp_path):
    src = "import time\n\ndef now():\n    return time.time()\n"
    found = codes(lint_source(tmp_path, "src/repro/obs/timeline.py", src))
    assert found == ["RL007", "RL007"]  # the import and the attribute read


def test_rl007_flags_from_import_and_datetime(tmp_path):
    src = "from time import monotonic\n"
    assert codes(lint_source(tmp_path, "src/repro/obs/timeline.py", src)) == ["RL007"]
    src = "import datetime\n\nstamp = datetime.datetime.now()\n"
    found = codes(lint_source(tmp_path, "src/repro/obs/timeline.py", src))
    assert "RL007" in found


def test_rl007_stricter_than_rl001_obs_whitelist(tmp_path):
    # The same source is fine elsewhere in repro.obs (RL001 whitelists the
    # package) but forbidden in the timeline module specifically.
    src = "import time\n\ndef now():\n    return time.perf_counter()\n"
    assert lint_source(tmp_path, "src/repro/obs/trace.py", src) == []
    assert "RL007" in codes(lint_source(tmp_path, "src/repro/obs/timeline.py", src))


def test_rl007_allows_logical_clock_code(tmp_path):
    src = (
        "from collections import deque\n\n"
        "class MetricStore:\n"
        "    def maybe_sample(self, now):\n"
        "        self._last_t = float(now)\n"
    )
    assert lint_source(tmp_path, "src/repro/obs/timeline.py", src) == []


# -- RL008: src/ neither imports tests nor reads the environment ------------------


def test_rl008_flags_tests_imports_under_src(tmp_path):
    src = "import tests.reference\nfrom tests.reference import reference_kernels\n"
    found = codes(lint_source(tmp_path, "src/repro/operators/base.py", src))
    assert found == ["RL008", "RL008"]


def test_rl008_flags_environment_reads_under_src(tmp_path):
    src = (
        "import os\nfrom os import environ, getenv\n\n"
        "A = os.environ.get('REPRO_COLUMNAR')\nB = os.getenv('REPRO_NUMPY')\n"
    )
    found = codes(lint_source(tmp_path, "src/repro/core/columnar.py", src))
    assert found == ["RL008"] * 4  # both from-imports, both attribute reads


def test_rl008_allows_them_outside_src_and_lookalikes_inside(tmp_path):
    src = "import os\nfrom tests.reference import reference_kernels\nX = os.environ.get('X')\n"
    assert lint_source(tmp_path, "benchmarks/conftest.py", src) == []
    assert lint_source(tmp_path, "tests/test_x.py", src) == []
    # Relative imports, other os attributes and names merely containing
    # "tests" are not the rule's business.
    src = "import os\nfrom . import tests\nimport testsuite\nP = os.path.join('a', 'b')\n"
    assert lint_source(tmp_path, "src/repro/core/x.py", src) == []


# -- RL009: line budgets ------------------------------------------------------------


def _budget_of(prefix):
    return next(budget for prefixes, budget in LINE_BUDGETS if prefixes[0] == prefix)


def test_rl009_flags_a_file_over_its_budget(tmp_path):
    lines = "x = 1\n" * (_budget_of("src/repro/cli.py") + 1)
    lint_source(tmp_path, "src/repro/cli.py", lines)
    (violation,) = lint_paths(["src"], root=tmp_path)
    assert (violation.code, violation.path) == ("RL009", "src/repro/cli.py")


def test_rl009_counts_a_group_together(tmp_path):
    half = _budget_of("src/repro/analysis/checker.py") // 2 + 1
    for rel in ("src/repro/analysis/checker.py", "src/repro/query/types.py"):
        lint_source(tmp_path, rel, "x = 1\n" * half)
    assert codes(lint_paths(["src"], root=tmp_path)) == ["RL009"]
    lint_source(tmp_path, "src/repro/query/types.py", "x = 1\n")
    assert lint_paths(["src"], root=tmp_path) == []


# -- RL010: one compile step --------------------------------------------------------


def test_rl010_flags_optimize_and_canonicalize_outside_the_compile_step(tmp_path):
    src = (
        "from repro.plan import canonicalize\n"
        "from repro.query import optimizer\n"
        "tree = optimizer.optimize(node, crs_of).node\n"
        "plan = canonicalize(tree, crs_of=crs_of)\n"
    )
    found = lint_source(tmp_path, "src/repro/server/x.py", src)
    assert sorted((v.code, v.line) for v in found) == [("RL010", 3), ("RL010", 4)]


def test_rl010_allows_the_compile_step_and_compile_query_callers(tmp_path):
    src = "plan = canonicalize(optimize(tree, crs_of).node)\n"
    assert lint_source(tmp_path, "src/repro/plan/compile.py", src) == []
    clean = "compiled = compile_query(tree, catalog, optimize=False)\n"
    assert lint_source(tmp_path, "src/repro/server/x.py", clean) == []
    assert lint_source(tmp_path, "benchmarks/x.py", src) == []


# -- framework --------------------------------------------------------------------


def test_rl000_syntax_error(tmp_path):
    assert codes(lint_source(tmp_path, "src/repro/core/bad.py", "def f(:\n")) == ["RL000"]


def test_violation_render_is_grep_friendly():
    v = Violation("src/repro/x.py", 3, 4, "RL001", "boom")
    assert v.render() == "src/repro/x.py:3:4: RL001 boom"


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    # Paths are resolved against the working directory, like CI runs it.
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "src/repro/faults"
    bad.mkdir(parents=True)
    (bad / "dice.py").write_text("import random\nx = random.random()\n")
    assert main(["src/repro/faults/dice.py"]) == 1
    assert "RL005" in capsys.readouterr().out
    good = tmp_path / "src/repro/core/ok.py"
    good.parent.mkdir(parents=True)
    good.write_text("x = 1\n")
    assert main(["src/repro/core/ok.py"]) == 0
    assert "clean" in capsys.readouterr().out


def test_real_tree_is_clean():
    violations = lint_paths(["src/repro"], root=REPO)
    assert violations == [], "\n".join(v.render() for v in violations)
