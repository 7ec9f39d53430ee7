"""Result records and their CSV/JSON serialization.

A ResultRecord is the output of one experiment run: a label for the
experiment, a flat parameter map, a table of estimate rows, and a small
metadata block.  JSON carries the full record; CSV carries the estimate
table only (header ``experiment,label,mean,stderr,n,seed``), which is the
handy format for feeding plots.

Numbers are written with 17 significant digits so that a write/read cycle
reproduces every double exactly.  Timing metadata is disabled by default:
records produced from the same seed are then byte-identical no matter when
or on how many workers they were computed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CuelabError, InvalidArgumentError, NumericalFailureError

__all__ = [
    "EstimateRow",
    "ResultRecord",
    "to_csv_text",
    "to_json_text",
    "emit",
    "read_record",
]

_CSV_HEADER = ("experiment", "label", "mean", "stderr", "n", "seed")


@dataclass(frozen=True)
class EstimateRow:
    """One labeled line of an estimate table.

    Monte Carlo rows come from :meth:`from_samples` and carry the mean, its
    standard error and the sample count ``n >= 2``; deterministic rows
    (formula values, KS distances) use ``stderr = 0`` and whatever ``n``
    describes the computation.
    """

    label: str
    mean: float
    stderr: float
    n: int
    seed: int

    def __post_init__(self):
        if not self.label:
            raise InvalidArgumentError("estimate row label must be nonempty")
        if not self.stderr >= 0.0:
            raise InvalidArgumentError(f"stderr must be >= 0, got {self.stderr!r}")
        if self.n < 0:
            raise InvalidArgumentError(f"n must be >= 0, got {self.n!r}")

    @classmethod
    def from_samples(cls, label: str, values, seed: int) -> "EstimateRow":
        """Mean and standard error of a batch of per-sample values."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or len(arr) < 2:
            raise InvalidArgumentError("from_samples needs at least two values")
        if not np.all(np.isfinite(arr)):
            raise NumericalFailureError("non-finite values in estimate input")
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr)))
        return cls(label, float(arr.mean()), stderr, len(arr), int(seed))

    def z_score(self, reference: float) -> float:
        """Standardized deviation of the mean from a reference value."""
        gap = self.mean - float(reference)
        if self.stderr == 0.0:
            return 0.0 if gap == 0.0 else math.inf
        return gap / self.stderr


@dataclass
class ResultRecord:
    """Full output of an experiment run."""

    experiment: str
    parameters: dict = field(default_factory=dict)
    estimates: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.experiment:
            raise InvalidArgumentError("experiment name must be nonempty")
        self.estimates = [
            row if isinstance(row, EstimateRow) else EstimateRow(*row)
            for row in self.estimates
        ]

    def checks(self) -> list:
        """The (name, passed, detail) check triples stored in parameters."""
        return [
            (c["name"], bool(c["passed"]), c.get("detail", ""))
            for c in self.parameters.get("checks", [])
        ]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def to_csv_text(record: ResultRecord) -> str:
    """The estimate table as CSV text (header + one row per estimate)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for row in record.estimates:
        writer.writerow(
            [record.experiment, row.label, _fmt(row.mean), _fmt(row.stderr), row.n, row.seed]
        )
    return buf.getvalue()


def to_json_text(record: ResultRecord) -> str:
    """The full record as deterministic (sorted-key) JSON text."""
    payload = {
        "experiment": record.experiment,
        "parameters": record.parameters,
        "estimates": [
            {
                "label": row.label,
                "mean": float(row.mean),
                "stderr": float(row.stderr),
                "n": row.n,
                "seed": row.seed,
            }
            for row in record.estimates
        ],
        "metadata": record.metadata,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit(record: ResultRecord, format: str = "csv", path: str | None = None) -> str:
    """Serialize ``record`` and, if ``path`` is given, write it there.

    Returns the serialized text either way, so callers without a path can
    print it.  IO failures are re-raised with the offending path attached.
    """
    if format == "csv":
        text = to_csv_text(record)
    elif format == "json":
        text = to_json_text(record)
    else:
        raise InvalidArgumentError(f"format must be 'csv' or 'json', got {format!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise CuelabError(f"cannot write result file {path!r}: {exc}") from exc
    return text


def _record_from_json(text: str) -> ResultRecord:
    payload = json.loads(text)
    rows = [
        EstimateRow(e["label"], e["mean"], e["stderr"], int(e["n"]), int(e["seed"]))
        for e in payload["estimates"]
    ]
    return ResultRecord(
        experiment=payload["experiment"],
        parameters=payload.get("parameters", {}),
        estimates=rows,
        metadata=payload.get("metadata", {}),
    )


def _record_from_csv(text: str) -> ResultRecord:
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise CuelabError("empty CSV input: missing header") from None
    if header != _CSV_HEADER:
        raise CuelabError(f"unexpected CSV header {header!r}")
    experiment = ""
    rows = []
    for line in reader:
        if not line:
            continue
        experiment = line[0]
        rows.append(
            EstimateRow(line[1], float(line[2]), float(line[3]), int(line[4]), int(line[5]))
        )
    # A header-only table carries no experiment name; keep a placeholder.
    return ResultRecord(experiment=experiment or "unknown", estimates=rows)


def read_record(path: str, format: str | None = None) -> ResultRecord:
    """Parse a record previously written by emit.

    The format is inferred from the file extension unless given.  JSON
    restores the full record; CSV restores the experiment name and the
    estimate table (the parameter and metadata blocks are not part of the
    CSV schema).
    """
    if format is None:
        format = "json" if path.endswith(".json") else "csv"
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise CuelabError(f"cannot read result file {path!r}: {exc}") from exc
    if format == "json":
        return _record_from_json(text)
    if format == "csv":
        return _record_from_csv(text)
    raise InvalidArgumentError(f"format must be 'csv' or 'json', got {format!r}")
