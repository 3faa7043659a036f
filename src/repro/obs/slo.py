"""Declarative SLOs with multi-window burn-rate alerting.

RM-SSD's serving argument is an SLA argument (Fig. 12/13: sustained
QPS under a latency bound); this module turns that bound into a
monitored *objective* evaluated on the simulated clock:

    engine.objective(names.SLO_SERVING_TAIL,
                     names.METRIC_SERVING_LATENCY,
                     quantile=99.9, threshold_ns=2e6)

declares "p999(serving.latency_ns) < 2 ms, per window".  Evaluation
is pure post-processing of the windowed latency series a windowed
:class:`~repro.obs.metrics.MetricsRegistry` already collects
(:mod:`repro.obs.timeseries`): a window *violates* when it has
observations and its interpolated quantile exceeds the threshold.

Alerting follows SRE multi-window burn-rate practice: the *burn rate*
over a trailing span of L windows is

    (violating windows in span) / L / error_budget

where the budget is the tolerated violating-window fraction.  A rule
fires when both its long span (sustained burn) and its short span
(still happening *now*) exceed the rule's threshold — the long span
gives the alert memory, the short span resets it quickly once the
incident ends.  Two default severities mirror the classic fast/slow
pairing: ``page`` (6/2 windows, 10x budget) and ``ticket`` (24/6
windows, 2x budget).  Alerts are emitted as structured events on the
simulated clock, once per rising edge — `tests/test_obs_slo.py` pins
that an injected violation fires in exactly the expected window.

Evaluation is streaming: :class:`BurnRateStream` consumes one closed
window at a time (count and quantile read once, violating bit appended
to a prefix sum, each rule's rising-edge state advanced once).  The
offline :meth:`SLOEngine.evaluate` is a fold of a fresh stream over
the populated windows, and the autoscaler advances its own stream
epoch by epoch, so both share one implementation and a run's alerting
work is linear in its windows.

Determinism: evaluation reads only the windowed series (whose inputs
are bitwise-equal across the DES and fast paths) and does integer
window arithmetic, so SLO reports are byte-identical across paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.obs import names


@dataclass(frozen=True)
class Objective:
    """One declarative SLO: ``quantile(metric) < threshold_ns`` per
    window, with ``budget`` the tolerated violating-window fraction."""

    name: str
    metric: str
    quantile: float
    threshold_ns: float
    budget: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 100.0:
            raise ValueError("objective quantile must be in (0, 100]")
        if self.threshold_ns <= 0:
            raise ValueError("objective threshold must be positive")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("error budget must be a fraction in (0, 1]")


@dataclass(frozen=True)
class BurnRateRule:
    """One severity tier: fire when the burn rate over the trailing
    ``long_windows`` *and* ``short_windows`` spans both reach
    ``burn_threshold`` times the budget."""

    severity: str
    long_windows: int
    short_windows: int
    burn_threshold: float

    def __post_init__(self) -> None:
        if self.long_windows < 1 or self.short_windows < 1:
            raise ValueError("burn-rate spans must be >= 1 window")
        if self.short_windows > self.long_windows:
            raise ValueError("short span must not exceed the long span")
        if self.burn_threshold <= 0:
            raise ValueError("burn threshold must be positive")


#: The classic SRE fast/slow pairing, in window units.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule(
        severity=names.ALERT_PAGE,
        long_windows=6,
        short_windows=2,
        burn_threshold=10.0,
    ),
    BurnRateRule(
        severity=names.ALERT_TICKET,
        long_windows=24,
        short_windows=6,
        burn_threshold=2.0,
    ),
)


class BurnRateStream:
    """Streaming burn-rate state of one objective.

    Consumes *closed* windows one at a time, in index order from
    ``first``: each step reads the window's observation count and
    objective quantile once, appends its violating bit to an integer
    prefix sum, derives every rule's long/short burn from two prefix
    entries, and advances each rule's rising-edge state once.  Windows
    before ``first`` comply, exactly like windows without data.
    """

    def __init__(
        self,
        objective: Objective,
        rules: Sequence[BurnRateRule],
        window_ns: float,
        first: int,
    ) -> None:
        self.objective = objective
        self.rules: Tuple[BurnRateRule, ...] = tuple(rules)
        self.window_ns = float(window_ns)
        #: Index of the next window to consume; every window below it
        #: has been judged and must not change.
        self.next_index = first
        #: ``_prefix[k]`` = violating windows among the first k consumed.
        self._prefix: List[int] = [0]
        #: Rising-edge state per rule, by position (rules may share a
        #: severity).
        self._fired: List[bool] = [False] * len(self.rules)

    def advance(self, series, stop: int, alerts: List[dict]) -> List[dict]:
        """Consume windows ``next_index .. stop - 1`` of ``series`` (a
        :class:`~repro.obs.timeseries.WindowedLatency`, or None for no
        data); append their rising-edge alerts to ``alerts`` and return
        their window records."""
        objective = self.objective
        budget = objective.budget
        prefix = self._prefix
        fired = self._fired
        windows: List[dict] = []
        for index in range(self.next_index, stop):
            if series is None:
                count, value = 0, 0.0
            else:
                count = series.window_count(index)
                value = series.window_percentile(index, objective.quantile)
            bad = count > 0 and value > objective.threshold_ns
            prefix.append(prefix[-1] + bad)
            end = len(prefix) - 1
            windows.append(
                {
                    "index": index,
                    "start_ns": index * self.window_ns,
                    "count": count,
                    "value_ns": value,
                    "ok": not bad,
                }
            )
            # Rising-edge alert per rule: fire the window the condition
            # becomes true, stay silent while it holds, re-arm once clear.
            for position, rule in enumerate(self.rules):
                long_burn = (
                    prefix[end] - prefix[max(0, end - rule.long_windows)]
                ) / rule.long_windows / budget
                short_burn = (
                    prefix[end] - prefix[max(0, end - rule.short_windows)]
                ) / rule.short_windows / budget
                active = (
                    long_burn >= rule.burn_threshold
                    and short_burn >= rule.burn_threshold
                )
                if active and not fired[position]:
                    alerts.append(
                        {
                            "type": names.ALERT_BURN_RATE,
                            "severity": rule.severity,
                            "objective": objective.name,
                            "window": index,
                            "t_ns": (index + 1) * self.window_ns,
                            "long_burn": long_burn,
                            "short_burn": short_burn,
                            "long_windows": rule.long_windows,
                            "short_windows": rule.short_windows,
                        }
                    )
                fired[position] = active
        self.next_index = max(self.next_index, stop)
        return windows


class SLOEngine:
    """Holds declared objectives; evaluates them against a windowed
    registry's latency series."""

    def __init__(
        self,
        window_ns: float,
        rules: Sequence[BurnRateRule] = DEFAULT_RULES,
    ) -> None:
        if window_ns <= 0:
            raise ValueError("window width must be positive")
        self.window_ns = float(window_ns)
        self.rules: Tuple[BurnRateRule, ...] = tuple(rules)
        self._objectives: List[Objective] = []

    def objective(
        self,
        name: str,
        metric: str,
        quantile: float = 99.9,
        threshold_ns: float = 1e6,
        budget: float = 0.01,
    ) -> Objective:
        """Declare one objective; returns the frozen record."""
        declared = Objective(
            name=name,
            metric=metric,
            quantile=quantile,
            threshold_ns=threshold_ns,
            budget=budget,
        )
        self._objectives.append(declared)
        return declared

    @property
    def objectives(self) -> Tuple[Objective, ...]:
        return tuple(self._objectives)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate_objective(self, objective: Objective, series) -> dict:
        record: dict = {
            "name": objective.name,
            "metric": objective.metric,
            "quantile": objective.quantile,
            "threshold_ns": objective.threshold_ns,
            "budget": objective.budget,
            "windows": [],
            "alerts": [],
        }
        indices = series.window_indices() if series is not None else []
        if not indices:
            return record
        # Offline evaluation is a fold of a fresh stream over the
        # populated span: the same per-window step the autoscaler runs.
        stream = BurnRateStream(
            objective, self.rules, self.window_ns, indices[0]
        )
        record["windows"] = stream.advance(
            series, indices[-1] + 1, record["alerts"]
        )
        return record

    def evaluate(self, metrics) -> List[dict]:
        """Evaluate every objective against ``metrics`` (a windowed
        :class:`~repro.obs.metrics.MetricsRegistry`)."""
        return [
            self._evaluate_objective(objective, metrics.series(objective.metric))
            for objective in self._objectives
        ]

    def alerts(self, metrics) -> List[dict]:
        """All alert events across objectives, in (time, severity) order."""
        events: List[dict] = []
        for record in self.evaluate(metrics):
            events.extend(record["alerts"])
        events.sort(key=lambda e: (e["t_ns"], e["severity"], e["objective"]))
        return events

    def report_dict(self, metrics) -> dict:
        """The ``slo`` section of the timeseries document."""
        return {
            "window_ns": self.window_ns,
            "rules": [
                {
                    "severity": rule.severity,
                    "long_windows": rule.long_windows,
                    "short_windows": rule.short_windows,
                    "burn_threshold": rule.burn_threshold,
                }
                for rule in self.rules
            ],
            "objectives": self.evaluate(metrics),
        }
