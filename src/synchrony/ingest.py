"""Frame-CSV reading, activity-based action-unit (AU) selection, and
multi-annotator label aggregation.

File formats:
  - Frame CSV, read by ``read_frame_csv``: UTF-8 text, header
    ``frame,NAME,...`` with distinct non-empty names, whole frame numbers
    counting up by 1, finite values. An AU CSV (one participant,
    ``frame,AU01,AU02,...``) and a pair CSV are frame CSVs.
  - Group manifest, read by ``synchrony ingest``: JSON mapping group_id to
    an ordered list of participant CSV paths (order defines channel-set
    position).
  - Annotation CSV: rows ``group_id,labeler_id,score`` with scores in [1, 5].
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import InteractionSample, TimeSeries


class IngestError(ValueError):
    """Malformed input file or inconsistent annotation data."""


@dataclass(frozen=True)
class AuRecording:
    """One participant's AU intensity traces."""

    participant_id: str
    au_channels: dict[str, TimeSeries]

    def __post_init__(self):
        if not self.au_channels:
            raise IngestError("recording has no AU channels")
        if len({len(ts) for ts in self.au_channels.values()}) != 1:
            raise IngestError("AU channels must share one length")


@dataclass(frozen=True)
class AnnotationSet:
    """All labelers' synchrony scores for one group."""

    group_id: str
    scores: dict[str, float]

    def __post_init__(self):
        if len(self.scores) < 2:
            raise IngestError("need at least 2 labelers per group")
        for labeler, s in self.scores.items():
            if not (1.0 <= s <= 5.0):
                raise IngestError(
                    f"score {s} from labeler {labeler!r} outside [1, 5]"
                )


def read_frame_csv(path) -> tuple[list[str], np.ndarray]:
    """The value-column names and (T, C) float64 values of a frame CSV.

    The file is UTF-8 text. The header is ``frame,NAME,...`` and names
    every column, none twice; each row below it holds a frame number and
    one finite value per name, and frame numbers are whole and count up
    by 1. ``#`` comments and blank lines are skipped. A file that breaks
    the rule raises IngestError naming the path and, when a line is at
    fault, the file line, counting the header as line 1.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            line = fh.readline()
            if not line:
                raise IngestError(f"{path}: empty file")
            header = [h.strip() for h in line.split(",")]
            if header[0] != "frame" or len(header) < 2:
                raise IngestError(f"{path}: line 1: missing columns (expected "
                                  f"'frame,NAME,...'), found {line.strip()!r}")
            if "" in header:
                raise IngestError(f"{path}: line 1: column {header.index('') + 1} has no name")
            twice = [h for i, h in enumerate(header) if h in header[:i]]
            if twice:
                raise IngestError(f"{path}: line 1: column {twice[0]!r} named twice")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
                    rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise IngestError(f"{path}: {_bad_line(path, len(header)) or exc}") from None
    except UnicodeDecodeError:
        # text is decoded a block at a time, so any read above, the re-read
        # that places another error included, can be the one that meets it
        raise IngestError(f"{path}: line {_undecodable_line(path)}: not UTF-8 text") from None
    if len(rows) == 0:
        raise IngestError(f"{path}: no data rows")
    if rows.shape[1] != len(header):
        raise IngestError(f"{path}: {_bad_line(path, len(header))}")
    frame = rows[:, 0]
    finite = np.isfinite(rows).all(axis=1)
    breaks = np.flatnonzero(~finite | (frame != np.round(frame[0]) + np.arange(len(rows))))
    if breaks.size:
        k = breaks[0]
        n = _data_lines(path)[k][0]
        if not finite[k]:
            raise IngestError(f"{path}: line {n}: non-finite value")
        after = f" after {frame[k - 1]:.15g}" if k else ""
        raise IngestError(f"{path}: line {n}: frame {frame[k]:.15g}{after}; "
                          "frames must be whole numbers that count up by 1")
    return header[1:], rows[:, 1:]


def _data_lines(path) -> list[tuple[int, str]]:
    """(file line, text) of each row ``np.loadtxt`` reads below the header
    of a frame CSV: each line with its ``#`` comment cut, unless nothing is
    left (a line of spaces is a row). Read only to place an error."""
    with open(path, encoding="utf-8") as fh:
        lines = [(n, line.rstrip("\n").split("#", 1)[0]) for n, line in enumerate(fh, start=1)]
    return [(n, text) for n, text in lines[1:] if text]


def _undecodable_line(path) -> int:
    """The file line of a frame CSV's first byte that is not UTF-8, with
    lines ended as text mode ends them. Read only to place an error."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for n, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return n


def _bad_line(path, n_columns: int) -> str | None:
    """Where and why a frame CSV is not rows of ``n_columns`` numbers; None
    when no line shows it."""
    for n, text in _data_lines(path):
        cells = text.split(",")
        if len(cells) != n_columns:
            return f"line {n}: expected the {n_columns} columns of the header, found {len(cells)}"
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                return f"line {n}: not a number: {cell.strip()!r}"
    return None


def load_au_csv(path) -> AuRecording:
    """One participant's AU frame CSV; the participant id is the file name
    without its suffix."""
    names, values = read_frame_csv(path)
    channels = {au: TimeSeries(col) for au, col in zip(names, values.T)}
    return AuRecording(participant_id=Path(path).stem, au_channels=channels)


def mean_average_deviation(series: TimeSeries) -> float:
    """Mean absolute deviation from the mean; the AU activity measure."""
    v = series.values
    return float(np.mean(np.abs(v - v.mean())))


def select_top_aus(recordings: list[AuRecording], k: int = 3) -> list[str]:
    """The k most active AUs of a group, shared across its participants.

    Activity of an AU is the mean over participants of its mean average
    deviation; ties break lexicographically so channel order is stable and
    independent of participant ordering.
    """
    if not recordings:
        raise IngestError("no recordings")
    shared = set(recordings[0].au_channels)
    for rec in recordings[1:]:
        shared &= set(rec.au_channels)
    if len(shared) < k:
        raise IngestError(f"only {len(shared)} shared AUs, need {k}")
    activity = {
        au: float(
            np.mean([mean_average_deviation(r.au_channels[au]) for r in recordings])
        )
        for au in shared
    }
    ranked = sorted(activity, key=lambda au: (-activity[au], au))
    return ranked[:k]


def group_to_sample(
    recordings: list[AuRecording], label: float, group_id: str, k: int = 3
) -> InteractionSample:
    """Assemble a group's recordings into a labeled InteractionSample,
    keeping only the group's top-k most active AUs (aligned positionally
    across participants)."""
    aus = select_top_aus(recordings, k=k)
    parts = tuple(
        tuple(rec.au_channels[au] for au in aus) for rec in recordings
    )
    return InteractionSample(parts, label=label, group_id=group_id)


def load_annotation_csv(path) -> list[AnnotationSet]:
    """Annotation CSV (group_id,labeler_id,score) grouped by group."""
    path = Path(path)
    by_group: dict[str, dict[str, float]] = {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise IngestError(f"{path.name}: empty file")
    first_data_row = 1
    if [h.strip() for h in rows[0][:3]] == ["group_id", "labeler_id", "score"]:
        rows = rows[1:]
        first_data_row = 2
    for row_num, row in enumerate(rows, start=first_data_row):
        if len(row) < 3:
            raise IngestError(f"{path.name}: short row at row {row_num}")
        gid, labeler = row[0].strip(), row[1].strip()
        try:
            score = float(row[2])
        except ValueError:
            raise IngestError(
                f"{path.name}: unparsable score at row {row_num}"
            ) from None
        by_group.setdefault(gid, {})
        if labeler in by_group[gid]:
            raise IngestError(
                f"{path.name}: duplicate score for group {gid}, labeler {labeler}"
            )
        by_group[gid][labeler] = score
    return [AnnotationSet(g, scores) for g, scores in by_group.items()]


def aggregate_annotations(
    sets: list[AnnotationSet],
    variance_threshold: float = 1.0,
    pooled: bool = False,
) -> tuple[dict[str, float], list[str], str]:
    """Prune the most variance-causing labeler, then average the rest.

    For each labeler, the total variance of the scores of all OTHER
    labelers is computed (summed per-group population variance by default,
    variance of the pooled score vector with ``pooled=True``). The labeler
    whose exclusion minimizes this total is removed; ties break on the
    lowest labeler id. Remaining scores are averaged per group; groups
    whose remaining-score variance exceeds ``variance_threshold`` are
    flagged for re-annotation, not re-scored.

    Returns (per-group labels, flagged group ids, removed labeler id).
    """
    if not sets:
        raise IngestError("no annotation sets")
    labelers = sorted(sets[0].scores)
    if len(labelers) < 3:
        raise IngestError("need at least 3 labelers")
    for s in sets:
        if sorted(s.scores) != labelers:
            raise IngestError(
                f"incomplete score matrix: group {s.group_id} labelers differ"
            )

    def total_variance(excluded: str) -> float:
        rest = [l for l in labelers if l != excluded]
        if pooled:
            all_scores = [s.scores[l] for s in sets for l in rest]
            return float(np.var(all_scores))
        return float(
            sum(np.var([s.scores[l] for l in rest]) for s in sets)
        )

    removed = min(labelers, key=lambda l: (total_variance(l), l))
    rest = [l for l in labelers if l != removed]
    labels = {
        s.group_id: float(np.mean([s.scores[l] for l in rest])) for s in sets
    }
    flagged = [
        s.group_id
        for s in sets
        if float(np.var([s.scores[l] for l in rest])) > variance_threshold
    ]
    return labels, flagged, removed
