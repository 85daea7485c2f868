"""Cost-model calibration from observed stage statistics.

The static cost model (:mod:`repro.query.cost`) predicts ``work`` in
*point touches* — a unit, not a wall time. A :class:`CalibrationProfile`
closes the loop: from accumulated :class:`~repro.obs.stats.StageStats`
it fits one *seconds per point-touch* coefficient per operator kind
(query-node class name), so ``estimate_query`` can price rewritings and
canonical plans in measured seconds instead of seed guesses.

The fit is a per-kind ratio estimator — ``Σ observed wall seconds /
Σ estimated work units`` over every stage of that kind — which is the
least-squares slope through the origin weighted by work. An
*uncalibrated* profile prices every kind with one seed constant
(:data:`DEFAULT_SECONDS_PER_UNIT`); ``benchmarks/bench_f5_calibration``
shows the fitted profile's relative error is far smaller.

Profiles persist to JSON so a calibration run can feed later planning
sessions (``CalibrationProfile.save`` / ``load``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..errors import PlanError

__all__ = [
    "CalibrationSample",
    "CalibrationProfile",
    "DEFAULT_SECONDS_PER_UNIT",
    "kind_of",
]

# Seed guess before any run has been measured: one microsecond per point
# touch (1M touches/s). Deliberately conservative — vectorized numpy
# operators run orders of magnitude faster, which is exactly the gap
# calibration closes.
DEFAULT_SECONDS_PER_UNIT = 1e-6


def kind_of(node: object) -> str:
    """Calibration kind of a query node: its class name."""
    return type(node).__name__


@dataclass(frozen=True)
class CalibrationSample:
    """One observation: a stage of ``kind`` spent ``wall_s`` on ``work_units``."""

    kind: str
    work_units: float
    wall_s: float


@dataclass(frozen=True)
class CalibrationProfile:
    """Per-operator-kind seconds-per-work-unit coefficients."""

    coefficients: Mapping[str, float] = field(default_factory=dict)
    default_coefficient: float = DEFAULT_SECONDS_PER_UNIT
    n_samples: int = 0
    # The operator kinds the fit actually observed, in sorted order. A
    # plan whose kind set differs was priced against a different operator
    # mix — the profile is *stale* for it (see :meth:`stale_kinds`).
    kinds: tuple[str, ...] = ()

    def coefficient(self, kind: str) -> float:
        return self.coefficients.get(kind, self.default_coefficient)

    @property
    def kind_fingerprint(self) -> str:
        """Stable digest of the fitted operator-kind set.

        Persisted in the profile JSON so tooling can detect staleness
        without parsing the coefficient table: two profiles fitted over
        the same operator mix share a fingerprint.
        """
        digest = hashlib.sha1("\n".join(self.kinds).encode("utf-8"))
        return digest.hexdigest()[:12]

    def stale_kinds(
        self, live_kinds: Iterable[str]
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(unfitted, unused): how a live plan's kind set diverges.

        ``unfitted`` — kinds the plan runs that the fit never observed
        (priced by the fallback coefficient); ``unused`` — kinds the fit
        observed that the plan no longer contains. Both empty means the
        profile matches the plan's operator mix exactly.
        """
        live = set(live_kinds)
        fitted = set(self.kinds)
        return tuple(sorted(live - fitted)), tuple(sorted(fitted - live))

    def seconds(self, kind: str, work_units: float) -> float:
        return self.coefficient(kind) * work_units

    def cost_seconds(self, breakdown: Sequence) -> float:
        """Predicted wall seconds for a ``NodeCost`` breakdown (per frame)."""
        return sum(self.seconds(kind_of(c.node), c.op_work) for c in breakdown)

    @classmethod
    def uncalibrated(
        cls, default: float = DEFAULT_SECONDS_PER_UNIT
    ) -> "CalibrationProfile":
        """The seed profile: one constant for every operator kind."""
        return cls(coefficients={}, default_coefficient=default, n_samples=0)

    @classmethod
    def fit(
        cls,
        samples: Iterable[CalibrationSample],
        default: float | None = None,
    ) -> "CalibrationProfile":
        """Fit per-kind coefficients; unknown kinds fall back to ``default``.

        With ``default=None`` the fallback is the *pooled* coefficient
        across every sample, so even unseen operator kinds are priced
        from this machine's measured throughput.
        """
        work: dict[str, float] = {}
        wall: dict[str, float] = {}
        n = 0
        for s in samples:
            if s.work_units <= 0:
                continue
            n += 1
            work[s.kind] = work.get(s.kind, 0.0) + float(s.work_units)
            wall[s.kind] = wall.get(s.kind, 0.0) + float(s.wall_s)
        coefficients = {kind: wall[kind] / work[kind] for kind in work}
        if default is None:
            total_work = sum(work.values())
            default = (
                sum(wall.values()) / total_work
                if total_work > 0
                else DEFAULT_SECONDS_PER_UNIT
            )
        return cls(
            coefficients=coefficients,
            default_coefficient=default,
            n_samples=n,
            kinds=tuple(sorted(work)),
        )

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "default_coefficient": self.default_coefficient,
                "n_samples": self.n_samples,
                "coefficients": dict(sorted(self.coefficients.items())),
                "kinds": list(self.kinds),
                "kind_fingerprint": self.kind_fingerprint,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"invalid calibration profile JSON: {exc}") from exc
        if not isinstance(payload, dict) or "coefficients" not in payload:
            raise PlanError("calibration profile JSON must carry 'coefficients'")
        profile = cls(
            coefficients={str(k): float(v) for k, v in payload["coefficients"].items()},
            default_coefficient=float(
                payload.get("default_coefficient", DEFAULT_SECONDS_PER_UNIT)
            ),
            n_samples=int(payload.get("n_samples", 0)),
            kinds=tuple(str(k) for k in payload.get("kinds", ())),
        )
        recorded = payload.get("kind_fingerprint")
        if recorded is not None and recorded != profile.kind_fingerprint:
            raise PlanError(
                f"calibration profile kind fingerprint {recorded!r} does not "
                f"match its kind set (expected {profile.kind_fingerprint!r}); "
                "the file was hand-edited or truncated — re-fit it"
            )
        return profile

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationProfile":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
