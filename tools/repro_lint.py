"""Custom AST lint enforcing repo invariants generic linters can't.

Run as ``python -m tools.repro_lint [paths...]`` (defaults to
``src/repro``). Exit code 0 when clean, 1 when any violation is found.
Used as a hard gate in CI next to ruff and mypy.

Rules:

* **RL001 — no timing calls on the untraced fast path.** The
  observability acceptance bar is that disabled tracing costs nothing;
  ``time.perf_counter``/``time.monotonic``/``time.time`` may only be
  referenced from the modules that are *allowed* to time things (obs,
  engine/scheduler, operators/delivery, faults, cli). The executor
  (``plan/stages.py``), its adapters (``engine/pipeline.py``) and the server (its run
  loop and router see every chunk and run on the stream clock) are not
  among them: an operator step is timed by ``repro.obs.probe`` alone. A
  timing call creeping into e.g. ``repro.core``, ``server/dsms.py`` or an
  operator kernel silently taxes every chunk.
* **RL002 — no cross-package underscore imports.** ``from ..pkg import
  _private`` couples packages to names that are free to change; private
  helpers may only be imported within their own package.
* **RL003 — fingerprinted nodes stay frozen.** Every dataclass in
  ``repro/query/ast.py`` (the one node hierarchy; canonical plans are
  query ASTs) must declare ``frozen=True``: plan sharing keys on
  structural fingerprints cached per node, so a mutable node would
  silently corrupt the shared DAG.
* **RL004 — obs registry mutations only under its lock.** Inside
  ``MetricsRegistry``, any statement that mutates ``self._metrics``
  must be lexically within a ``with self._lock:`` block.
* **RL005 — no unseeded random in repro.faults.** The chaos layer's
  determinism contract requires every random decision to flow from a
  seeded ``random.Random`` instance; module-level ``random.*`` functions
  (and ``numpy.random``'s global state) are forbidden there.
* **RL006 — stage-table mutation only inside EpochTransition.** The
  shared ``PlanDAG``'s membership tables (``order``, ``_by_fingerprint``,
  ``taps``, per-stage ``outputs``/``subscribers``/``epochs``) change
  transactionally through ``repro.plan.epoch.EpochTransition`` — the only
  code allowed to wire, graft, or retire stages. Anywhere else under
  ``src/repro``, mutating those tables (mutator method calls, subscript
  assignment/deletion, or rebinding outside ``__init__``) would bypass
  epoch bookkeeping and corrupt hot swaps.
* **RL007 — no wall clocks in the telemetry timeline.** Stricter than
  RL001 (which whitelists all of ``repro.obs``):
  ``src/repro/obs/timeline.py`` may not reference the ``time`` or
  ``datetime`` modules *at all*. Its determinism contract — bit-identical
  event journals for traced and untraced chaos runs, sample timestamps
  that tests can assert exactly — only holds if every timestamp is a
  logical time passed in by the caller (DSMS stream clock or fault-layer
  ``SimClock``).
* **RL008 — no way back to a second execution mode.** ``src/`` holds one
  implementation of each operator; the per-point reference lives in
  ``tests/reference/`` and is installed by tests, never selected by
  production. So no module under ``src/`` may import ``tests``, and none
  may read the process environment (``os.environ`` / ``os.getenv``):
  behaviour is decided by arguments, not by a variable nobody measures.
* **RL009 — line budgets only go down.** ``LINE_BUDGETS`` caps the line
  count of ``src/`` as a whole and of the modules that have grown before
  (the DSMS server, ``repro.obs``, the CLI, and the analyzer + cost model +
  stream-type table). A change that shrinks a group lowers its budget to
  the new count, so a later change cannot quietly spend the saving.
* **RL010 — one compile step.** Inside ``src/``, only
  ``src/repro/plan/compile.py`` may call ``optimize(`` or
  ``canonicalize(``. Every other path turns a query into a plan through
  ``compile_query``, so a hand-copied optimize → canonicalize sequence
  (with its own timestamp policy or routing walk) cannot come back.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = ["Violation", "lint_file", "lint_paths", "main"]

TIMING_NAMES = frozenset({"perf_counter", "monotonic", "perf_counter_ns", "monotonic_ns"})
TIMING_TIME_ATTRS = TIMING_NAMES | {"time"}

# Modules allowed to reference wall clocks: the observability layer (its
# probe times every operator step for both executors), the source-merge
# scheduler, fault recovery (op timeouts), and the CLI. Everything else
# under src/repro — the server's run loop and router included — is fast path.
TIMING_ALLOWED = (
    "src/repro/obs/",
    "src/repro/engine/scheduler.py",
    "src/repro/faults/",
    "src/repro/cli.py",
    "src/repro/operators/delivery.py",
)

FROZEN_NODE_FILES = ("src/repro/query/ast.py",)

RANDOM_FORBIDDEN_PREFIX = "src/repro/faults/"

REGISTRY_FILE = "src/repro/obs/registry.py"
REGISTRY_MUTATORS = frozenset(
    {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}
)


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _norm(path: Path) -> str:
    return path.as_posix()


def _rel(path: Path, root: Path) -> str:
    try:
        return _norm(path.relative_to(root))
    except ValueError:
        return _norm(path)


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


# -- RL001: timing on the fast path -----------------------------------------------


def _check_timing(rel: str, tree: ast.AST) -> Iterator[Violation]:
    if not rel.startswith("src/repro/"):
        return
    if any(
        rel.startswith(allowed) or rel == allowed.rstrip("/")
        for allowed in TIMING_ALLOWED
    ):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in TIMING_TIME_ATTRS:
                    yield Violation(
                        rel,
                        node.lineno,
                        node.col_offset,
                        "RL001",
                        f"timing call time.{alias.name} imported on the untraced "
                        "fast path (see docs/observability.md)",
                    )
        elif isinstance(node, ast.Attribute) and node.attr in TIMING_TIME_ATTRS:
            value = node.value
            if isinstance(value, ast.Name) and value.id in ("time", "_time"):
                yield Violation(
                    rel,
                    node.lineno,
                    node.col_offset,
                    "RL001",
                    f"timing call time.{node.attr} referenced on the untraced "
                    "fast path (see docs/observability.md)",
                )


# -- RL002: cross-package underscore imports --------------------------------------


def _check_private_imports(rel: str, tree: ast.AST) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        crosses = False
        if node.level >= 2:
            crosses = True  # `from ..pkg import x` leaves the current package
        elif node.level == 0 and (module == "repro" or module.startswith("repro.")):
            crosses = True
        if not crosses:
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__"):
                yield Violation(
                    rel,
                    node.lineno,
                    node.col_offset,
                    "RL002",
                    f"cross-package import of private name {name!r} from "
                    f"{'.' * node.level}{module}",
                )


# -- RL003: fingerprinted nodes must be frozen dataclasses ------------------------


def _dataclass_frozen(decorator: ast.expr) -> bool | None:
    """True/False when `decorator` is a dataclass decorator; None otherwise."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else (
        target.id if isinstance(target, ast.Name) else None
    )
    if name != "dataclass":
        return None
    if isinstance(decorator, ast.Call):
        for kw in decorator.keywords:
            if kw.arg == "frozen":
                return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False  # bare @dataclass (or no frozen kwarg) defaults to mutable


def _check_frozen_nodes(rel: str, tree: ast.AST) -> Iterator[Violation]:
    if rel not in FROZEN_NODE_FILES:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            frozen = _dataclass_frozen(decorator)
            if frozen is None:
                continue
            if not frozen:
                yield Violation(
                    rel,
                    node.lineno,
                    node.col_offset,
                    "RL003",
                    f"plan/AST node {node.name} must be @dataclass(frozen=True): "
                    "fingerprints are cached per node and sharing keys on them",
                )


# -- RL004: registry mutations under the lock -------------------------------------


def _is_self_metrics(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "_metrics"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _with_holds_lock(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr == "_lock":
            return True
    return False


def _under_lock(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    cursor: ast.AST | None = node
    while cursor is not None:
        if isinstance(cursor, ast.With) and _with_holds_lock(cursor):
            return True
        cursor = parents.get(cursor)
    return False


def _metrics_mutations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_self_metrics(target.value):
                    yield node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _is_self_metrics(target.value):
                    yield node
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in REGISTRY_MUTATORS
                and _is_self_metrics(func.value)
            ):
                yield node


def _check_registry_lock(rel: str, tree: ast.AST) -> Iterator[Violation]:
    if rel != REGISTRY_FILE:
        return
    parents = _parents(tree)
    for node in _metrics_mutations(tree):
        if not _under_lock(node, parents):
            yield Violation(
                rel,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                "RL004",
                "mutation of MetricsRegistry._metrics outside `with self._lock:`",
            )


# -- RL005: unseeded random in repro.faults ---------------------------------------


def _check_seeded_random(rel: str, tree: ast.AST) -> Iterator[Violation]:
    if not rel.startswith(RANDOM_FORBIDDEN_PREFIX):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    yield Violation(
                        rel,
                        node.lineno,
                        node.col_offset,
                        "RL005",
                        f"import of module-level random.{alias.name}; fault "
                        "decisions must come from a seeded random.Random",
                    )
        elif isinstance(node, ast.Attribute):
            value = node.value
            if (
                isinstance(value, ast.Name)
                and value.id == "random"
                and node.attr != "Random"
            ):
                yield Violation(
                    rel,
                    node.lineno,
                    node.col_offset,
                    "RL005",
                    f"module-level random.{node.attr} in repro.faults; use a "
                    "seeded random.Random instance",
                )
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
            ):
                yield Violation(
                    rel,
                    node.lineno,
                    node.col_offset,
                    "RL005",
                    "numpy.random global state in repro.faults; use a seeded "
                    "Generator or random.Random",
                )


# -- RL006: DAG stage tables mutate only inside EpochTransition -------------------

EPOCH_EXEMPT_FILE = "src/repro/plan/epoch.py"
STAGE_TABLES = frozenset(
    {"order", "_by_fingerprint", "taps", "outputs", "subscribers", "epochs"}
)
TABLE_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)


def _table_attr(node: ast.expr) -> str | None:
    """The stage-table name when `node` is `<expr>.<table>`, else None."""
    if isinstance(node, ast.Attribute) and node.attr in STAGE_TABLES:
        return node.attr
    return None


def _enclosing_function(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.AST | None:
    cursor: ast.AST | None = parents.get(node)
    while cursor is not None:
        if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return cursor
        cursor = parents.get(cursor)
    return None


def _check_stage_table_mutation(rel: str, tree: ast.AST) -> Iterator[Violation]:
    if not rel.startswith("src/repro/") or rel == EPOCH_EXEMPT_FILE:
        return
    parents = _parents(tree)

    def violation(node: ast.AST, table: str, how: str) -> Violation:
        return Violation(
            rel,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            "RL006",
            f"{how} of DAG stage table .{table} outside "
            "plan.epoch.EpochTransition (stage membership is transactional)",
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in TABLE_MUTATORS:
                table = _table_attr(func.value)
                if table is not None:
                    yield violation(node, table, f"mutating call .{func.attr}()")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    table = _table_attr(target.value)
                    if table is not None:
                        yield violation(node, table, "subscript assignment")
                else:
                    table = _table_attr(target)
                    if table is None:
                        continue
                    # Plain `self.<table> = ...` in __init__ constructs the
                    # empty tables; anywhere else, rebinding swaps state out
                    # from under the epoch bookkeeping.
                    fn = _enclosing_function(node, parents)
                    in_ctor = (
                        isinstance(fn, ast.FunctionDef)
                        and fn.name == "__init__"
                        and isinstance(target.value, ast.Name)  # type: ignore[union-attr]
                        and target.value.id == "self"  # type: ignore[union-attr]
                    )
                    if not in_ctor:
                        yield violation(node, table, "rebinding")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    table = _table_attr(target.value)
                    if table is not None:
                        yield violation(node, table, "subscript deletion")
                else:
                    table = _table_attr(target)
                    if table is not None:
                        yield violation(node, table, "deletion")


# -- RL007: the telemetry timeline is logical-clock only --------------------------

TIMELINE_FILE = "src/repro/obs/timeline.py"
WALL_CLOCK_MODULES = frozenset({"time", "datetime"})


def _check_timeline_clock(rel: str, tree: ast.AST) -> Iterator[Violation]:
    if rel != TIMELINE_FILE:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in WALL_CLOCK_MODULES:
                    yield Violation(
                        rel,
                        node.lineno,
                        node.col_offset,
                        "RL007",
                        f"import of {alias.name!r} in the telemetry timeline; "
                        "timeline timestamps are logical clocks only",
                    )
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".")[0]
            if node.level == 0 and top in WALL_CLOCK_MODULES:
                yield Violation(
                    rel,
                    node.lineno,
                    node.col_offset,
                    "RL007",
                    f"import from {node.module!r} in the telemetry timeline; "
                    "timeline timestamps are logical clocks only",
                )
        elif isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in (
                "time",
                "_time",
                "datetime",
            ):
                yield Violation(
                    rel,
                    node.lineno,
                    node.col_offset,
                    "RL007",
                    f"wall-clock reference {value.id}.{node.attr} in the "
                    "telemetry timeline; pass logical times in from the caller",
                )


# -- RL008: src/ neither imports tests nor reads the environment ------------------

ENVIRON_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})


def _check_no_mode_switch(rel: str, tree: ast.AST) -> Iterator[Violation]:
    if not rel.startswith("src/"):
        return
    for node in ast.walk(tree):
        # Dotted names this node brings in or reads: modules, os.<attr>.
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] + [f"os.{a.name}" for a in node.names if module == "os"]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            names = [f"os.{node.attr}"]
        else:
            continue
        for name in names:
            head, _, attr = name.partition(".")
            if head == "tests":
                message = (
                    f"import of {name!r} under src/; the per-point reference "
                    "is installed by tests, never imported by production"
                )
            elif head == "os" and attr in ENVIRON_NAMES:
                message = (
                    f"{name} under src/; pass settings as arguments, not "
                    "through the environment"
                )
            else:
                continue
            yield Violation(rel, node.lineno, node.col_offset, "RL008", message)


# -- RL009: line budgets -----------------------------------------------------------

# (repo-relative path prefixes, most lines the files under them may hold together)
LINE_BUDGETS: tuple[tuple[tuple[str, ...], int], ...] = (
    (("src/",), 22_472),
    (("src/repro/server/dsms.py",), 1_026),
    (("src/repro/obs/",), 3_687),
    (("src/repro/cli.py",), 1_018),
    (
        (
            "src/repro/analysis/checker.py",
            "src/repro/query/cost.py",
            "src/repro/query/types.py",
        ),
        1_066,
    ),
)


def _check_line_budgets(lines_of: Mapping[str, int]) -> Iterator[Violation]:
    for prefixes, budget in LINE_BUDGETS:
        total = sum(n for rel, n in lines_of.items() if rel.startswith(prefixes))
        if total > budget:
            yield Violation(
                prefixes[0],
                0,
                0,
                "RL009",
                f"{' + '.join(prefixes)} holds {total} lines, over its budget of {budget}",
            )


# -- RL010: only the compile step optimizes and canonicalizes ----------------------

COMPILE_STEP = "src/repro/plan/compile.py"
COMPILE_CALLS = frozenset({"optimize", "canonicalize"})


def _check_one_compile_step(rel: str, tree: ast.AST) -> Iterator[Violation]:
    if not rel.startswith("src/") or rel == COMPILE_STEP:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in COMPILE_CALLS:
            yield Violation(
                rel,
                node.lineno,
                node.col_offset,
                "RL010",
                f"{name}() outside {COMPILE_STEP}; compile queries with compile_query",
            )


_CHECKS = (
    _check_timing,
    _check_private_imports,
    _check_frozen_nodes,
    _check_registry_lock,
    _check_seeded_random,
    _check_stage_table_mutation,
    _check_timeline_clock,
    _check_no_mode_switch,
    _check_one_compile_step,
)


def lint_file(path: Path, root: Path) -> list[Violation]:
    rel = _rel(path, root)
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(rel, exc.lineno or 0, exc.offset or 0, "RL000", f"syntax error: {exc.msg}")
        ]
    out: list[Violation] = []
    for check in _CHECKS:
        out.extend(check(rel, tree))
    return out


def _iter_files(paths: Sequence[str], root: Path) -> Iterable[Path]:
    for raw in paths:
        path = (root / raw) if not Path(raw).is_absolute() else Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[str], root: Path | None = None) -> list[Violation]:
    root = root if root is not None else Path.cwd()
    violations: list[Violation] = []
    lines_of: dict[str, int] = {}
    for path in _iter_files(paths, root):
        violations.extend(lint_file(path, root))
        lines_of[_rel(path, root)] = len(path.read_text(encoding="utf-8").splitlines())
    violations.extend(_check_line_budgets(lines_of))
    return violations


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    paths = args or ["src/repro"]
    violations = lint_paths(paths)
    for violation in sorted(violations, key=lambda v: (v.path, v.line, v.col)):
        print(violation.render())
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"repro_lint: {', '.join(paths)} clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
