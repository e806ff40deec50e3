"""Facial action-unit CSV loading, activity-based channel selection, and
multi-annotator label aggregation.

File formats:
  - AU CSV, one participant per file: header ``frame,AU01,AU02,...``,
    contiguous integer frame index, decimal intensities.
  - Group manifest, read by ``synchrony ingest``: JSON mapping group_id to
    an ordered list of participant CSV paths (order defines channel-set
    position).
  - Annotation CSV: rows ``group_id,labeler_id,score`` with scores in [1, 5].
"""

from __future__ import annotations

import csv
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


def load_au_csv(path) -> AuRecording:
    """Load one participant's AU CSV, validating the frame column; the
    participant id is the file name without its suffix."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path.name}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "frame" or len(header) < 2:
            raise IngestError(f"{path.name}: missing columns (expected 'frame,AU...')")
        au_ids = header[1:]
        columns: list[list[float]] = [[] for _ in au_ids]
        prev_frame = None
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestError(
                    f"{path.name}: wrong column count at row {row_num}"
                )
            try:
                frame = int(row[0])
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise IngestError(
                    f"{path.name}: unparsable value at row {row_num}"
                ) from None
            if prev_frame is not None and frame != prev_frame + 1:
                raise IngestError(
                    f"{path.name}: non-contiguous frames at row {row_num}"
                )
            prev_frame = frame
            for col, v in zip(columns, values):
                if not np.isfinite(v):
                    raise IngestError(
                        f"{path.name}: non-finite value at row {row_num}"
                    )
                col.append(v)
        if prev_frame is None:
            raise IngestError(f"{path.name}: no data rows")
    channels = {au: TimeSeries(col) for au, col in zip(au_ids, columns)}
    return AuRecording(participant_id=path.stem, au_channels=channels)


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
