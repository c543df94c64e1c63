"""Result containers and plain-text table rendering.

Experiments produce a :class:`ResultMatrix` (workload x scheme grid of
:class:`~repro.sim.simulator.RunResult`), from which the figure modules
derive raw and LRU-normalised metric tables.  Rendering is plain
monospaced text: the harness prints the same rows/series the paper's
figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.analysis.metrics import geomean, normalize_to_baseline
from repro.common.errors import ConfigError
from repro.sim.simulator import RunResult


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one failed (workload, scheme) run.

    The crash-tolerant harness records these into the
    :class:`ResultMatrix` instead of letting one poisoned cell abort an
    entire experiment grid; ``seeds`` lists every scheme seed the retry
    policy attempted before giving up.
    """

    workload: str
    scheme: str
    error_type: str
    message: str
    attempts: int = 1
    seeds: Tuple[int, ...] = ()
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable view."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "seeds": list(self.seeds),
            "elapsed_seconds": self.elapsed_seconds,
        }

    def __str__(self) -> str:
        return (
            f"{self.scheme} on {self.workload} failed after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )


@dataclass
class ResultMatrix:
    """Grid of run results keyed by (workload, scheme).

    Failed cells are first-class: :meth:`add_failure` records them
    without blocking the rest of the grid, the axes still list the
    failed workload/scheme (tables render the cell as ``-``), and
    :meth:`get` on a failed cell raises an error that carries the
    recorded failure.
    """

    schemes: List[str] = field(default_factory=list)
    workloads: List[str] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    _cells: Dict[str, Dict[str, RunResult]] = field(default_factory=dict)

    def add(self, result: RunResult) -> None:
        """Insert one run, extending the axes as needed."""
        workload = result.trace_name
        scheme = result.scheme
        if workload not in self._cells:
            self._cells[workload] = {}
            self.workloads.append(workload)
        if scheme not in self.schemes:
            self.schemes.append(scheme)
        self._cells[workload][scheme] = result

    def add_failure(self, failure: RunFailure) -> None:
        """Record a failed run, still extending the axes."""
        if failure.workload not in self._cells:
            self._cells[failure.workload] = {}
            self.workloads.append(failure.workload)
        if failure.scheme not in self.schemes:
            self.schemes.append(failure.scheme)
        self.failures.append(failure)

    def failure_for(
        self, workload: str, scheme: str
    ) -> Optional[RunFailure]:
        """The recorded failure for a cell, if any (latest wins)."""
        found = None
        for failure in self.failures:
            if failure.workload == workload and failure.scheme == scheme:
                found = failure
        return found

    def failed_cells(self) -> List[Tuple[str, str]]:
        """(workload, scheme) pairs that failed, in recording order."""
        return [
            (failure.workload, failure.scheme) for failure in self.failures
        ]

    def get(self, workload: str, scheme: str) -> RunResult:
        """Fetch a single cell; raises ConfigError if missing/failed."""
        try:
            return self._cells[workload][scheme]
        except KeyError as exc:
            failure = self.failure_for(workload, scheme)
            if failure is not None:
                raise ConfigError(
                    f"run failed for workload={workload!r} "
                    f"scheme={scheme!r}: {failure.error_type}: "
                    f"{failure.message}"
                ) from exc
            raise ConfigError(
                f"no result for workload={workload!r} scheme={scheme!r}"
            ) from exc

    def results(self) -> Iterator[RunResult]:
        """Every finished cell, workload-major in axis order."""
        for workload in self.workloads:
            row = self._cells[workload]
            for scheme in self.schemes:
                if scheme in row:
                    yield row[scheme]

    def series_for(self, workload: str, scheme: str):
        """The windowed metrics series of a cell, or None.

        None covers both a cell run without ``metrics_window`` and a
        failed cell (a :class:`RunFailure` carries no series).
        """
        row = self._cells.get(workload, {})
        result = row.get(scheme)
        return result.series if result is not None else None

    def ledger_for(self, workload: str, scheme: str):
        """The sealed capacity-flow ledger of a cell, or None.

        None covers both a cell run without a ledger and a
        failed cell (a :class:`RunFailure` carries no ledger).
        """
        row = self._cells.get(workload, {})
        result = row.get(scheme)
        return result.ledger if result is not None else None

    def metric_table(
        self, metric: Callable[[RunResult], float]
    ) -> Dict[str, Dict[str, float]]:
        """{workload: {scheme: metric(result)}} over the whole grid."""
        return {
            workload: {
                scheme: metric(result) for scheme, result in row.items()
            }
            for workload, row in self._cells.items()
        }

    def normalized_table(
        self,
        metric: Callable[[RunResult], float],
        baseline: str = "LRU",
        include_geomean: bool = True,
    ) -> Dict[str, Dict[str, float]]:
        """Per-workload normalisation to ``baseline`` (Figures 7-9)."""
        raw = self.metric_table(metric)
        normalized = {
            workload: normalize_to_baseline(values, baseline=baseline)
            for workload, values in raw.items()
        }
        if include_geomean and normalized:
            summary: Dict[str, float] = {}
            for scheme in self.schemes:
                summary[scheme] = geomean(
                    normalized[workload][scheme]
                    for workload in self.workloads
                    if scheme in normalized[workload]
                )
            normalized["Geomean"] = summary
        return normalized


def format_table(
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    title: str = "",
    precision: int = 3,
    row_header: str = "workload",
) -> str:
    """Render a nested mapping as an aligned monospaced table."""
    width = max(
        [len(row_header)] + [len(str(name)) for name in rows]
    ) + 2
    col_width = max([8] + [len(col) + 2 for col in columns])
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    header = row_header.ljust(width) + "".join(
        col.rjust(col_width) for col in columns
    )
    lines.append(header)
    for name, values in rows.items():
        cells = []
        for col in columns:
            value = values.get(col)
            if value is None:
                cells.append("-".rjust(col_width))
            else:
                cells.append(f"{value:.{precision}f}".rjust(col_width))
        lines.append(str(name).ljust(width) + "".join(cells))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[float],
    x_label: str = "x",
    title: str = "",
    precision: int = 3,
) -> str:
    """Render {series_name: [y...]} against shared x values."""
    rows: Dict[str, Dict[str, float]] = {}
    columns = [str(x) for x in x_values]
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ConfigError(
                f"series {name!r} length {len(values)} != {len(x_values)}"
            )
        rows[name] = dict(zip(columns, values))
    return format_table(
        rows, columns, title=title, precision=precision, row_header=x_label
    )
