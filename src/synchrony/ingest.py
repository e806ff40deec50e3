"""Frame-CSV reading, activity-based action-unit (AU) selection, and
multi-annotator label aggregation.

File formats:
  - Frame CSV, read by ``read_frame_csv``: UTF-8 text, header
    ``frame,NAME,...`` with distinct non-empty names, whole frame numbers
    counting up by 1, finite values, numbers as ``np.loadtxt`` reads them.
    An AU CSV (one participant, ``frame,AU01,AU02,...``) and a pair CSV
    are frame CSVs.
  - Group manifest, read by ``synchrony ingest``: JSON mapping group_id to
    an ordered list of participant CSV paths (order defines participant
    position).
  - Annotation CSV: UTF-8 rows ``group_id,labeler_id,score``, scores in [1, 5]
    read as a frame CSV's numbers are.

Each CSV is read once, by ``_text_lines``; an error names the file line.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import InteractionSample


class IngestError(ValueError):
    """Malformed input file or inconsistent annotation data."""


@dataclass(frozen=True)
class AuRecording:
    """One participant's AU intensity traces as ``read_frame_csv`` gives
    them: column j of the (T, C) ``values`` is the trace of AU
    ``names[j]``."""

    participant_id: str
    names: list[str]
    values: np.ndarray


@dataclass(frozen=True)
class AnnotationSet:
    """All labelers' synchrony scores for one group."""

    group_id: str
    scores: dict[str, float]

    def __post_init__(self):
        if len(self.scores) < 2:
            raise IngestError(f"group {self.group_id!r}: need at least 2 labelers")
        for labeler, s in self.scores.items():
            if not (1.0 <= s <= 5.0):
                raise IngestError(f"group {self.group_id!r}: score {s} from labeler "
                                  f"{labeler!r} outside [1, 5]")


def read_frame_csv(path) -> tuple[list[str], np.ndarray]:
    """The value-column names and (T, C) float64 values of a frame CSV.

    The file is UTF-8 text. The header is ``frame,NAME,...`` and names
    every column, none twice; each row below it holds a frame number and
    one finite value per name, read by ``np.loadtxt``, and frame numbers
    are whole and count up by 1. ``#`` comments and the lines they leave
    empty are skipped. A file that breaks the rule raises IngestError
    naming the path and, when a line is at fault, the file line (1 is the
    header).
    """
    lines = _text_lines(path)
    if not lines:
        raise IngestError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "frame" or len(header) < 2:
        raise IngestError(f"{path}: line 1: missing columns (expected "
                          f"'frame,NAME,...'), found {lines[0].strip()!r}")
    if "" in header:
        raise IngestError(f"{path}: line 1: column {header.index('') + 1} has no name")
    twice = [h for i, h in enumerate(header) if h in header[:i]]
    if twice:
        raise IngestError(f"{path}: line 1: column {twice[0]!r} named twice")
    # (file line, text) of each row, its comment cut; a line of spaces is a row
    cut = (line.split("#", 1)[0] for line in lines[1:])
    kept = [(n, text) for n, text in enumerate(cut, start=2) if text]
    if not kept:
        raise IngestError(f"{path}: no data rows")
    try:
        rows = np.loadtxt([text for _, text in kept], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise IngestError(f"{path}: {_bad_row(kept, len(header)) or exc}") from None
    if rows.shape[1] != len(header):
        raise IngestError(f"{path}: {_bad_row(kept, len(header))}")
    frame = rows[:, 0]
    finite = np.isfinite(rows).all(axis=1)
    breaks = np.flatnonzero(~finite | (frame != np.round(frame[0]) + np.arange(len(rows))))
    if breaks.size:
        k = breaks[0]
        n = kept[k][0]
        if not finite[k]:
            raise IngestError(f"{path}: line {n}: non-finite value")
        after = f" after {frame[k - 1]:.15g}" if k else ""
        raise IngestError(f"{path}: line {n}: frame {frame[k]:.15g}{after}; "
                          "frames must be whole numbers that count up by 1")
    return header[1:], rows[:, 1:]


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, read once and split where text mode
    splits them; a line that is not UTF-8 raises IngestError naming it."""
    with open(path, "rb") as fh:
        raw = fh.read().splitlines()
    lines = []
    for n, line in enumerate(raw, start=1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            raise IngestError(f"{path}: line {n}: not UTF-8 text") from None
    return lines


def _bad_row(kept: list[tuple[int, str]], n_columns: int) -> str | None:
    """Where and why the (file line, text) rows are not rows of ``n_columns``
    numbers; None when no row shows it."""
    for n, text in kept:
        cells = text.split(",")
        if len(cells) != n_columns:
            return f"line {n}: expected the {n_columns} columns of the header, found {len(cells)}"
        if not _reads(text):
            for j, cell in enumerate(cells):
                if not _reads(text, usecols=j):
                    return f"line {n}: not a number: {cell.strip()!r}"
    return None


def _reads(text: str, usecols=None) -> bool:
    """Whether ``np.loadtxt`` reads the row ``text``, or its column ``usecols``."""
    try:
        np.loadtxt([text], delimiter=",", comments=None, usecols=usecols)
    except ValueError:
        return False
    return True


def load_au_csv(path) -> AuRecording:
    """One participant's AU frame CSV; the participant id is the file name
    without its suffix."""
    return AuRecording(Path(path).stem, *read_frame_csv(path))


def mean_average_deviation(trace) -> float:
    """Mean absolute deviation from the mean of a 1-D trace; the AU
    activity measure."""
    v = np.asarray(trace, dtype=np.float64)
    return float(np.mean(np.abs(v - v.mean())))


def select_top_aus(recordings: list[AuRecording], k: int = 3) -> list[str]:
    """The k most active AUs of a group, shared across its participants.

    Activity of an AU is the mean over participants of its mean average
    deviation; ties break lexicographically so channel order is stable and
    independent of participant ordering.
    """
    if not recordings:
        raise IngestError("no recordings")
    shared = set(recordings[0].names)
    for rec in recordings[1:]:
        shared &= set(rec.names)
    if len(shared) < k:
        raise IngestError(f"only {len(shared)} shared AUs, need {k}")
    activity = {
        au: float(np.mean([mean_average_deviation(r.values[:, r.names.index(au)])
                           for r in recordings]))
        for au in shared
    }
    ranked = sorted(activity, key=lambda au: (-activity[au], au))
    return ranked[:k]


def group_to_sample(
    recordings: list[AuRecording], aus: list[str], label: float, group_id: str
) -> InteractionSample:
    """A group's recordings as a labeled InteractionSample of the named AUs,
    in the order given, for every participant."""
    if len({len(rec.values) for rec in recordings}) != 1:
        raise IngestError("all channels must share one length")
    return InteractionSample(
        np.stack([rec.values[:, [rec.names.index(au) for au in aus]] for rec in recordings],
                 axis=1),
        label=label, group_id=group_id,
    )


def load_annotation_csv(path) -> list[AnnotationSet]:
    """Annotation CSV (group_id,labeler_id,score; UTF-8 text, header
    optional) grouped by group. An error names the path and, when a line
    is at fault, the file line."""
    lines = _text_lines(path)
    if not lines:
        raise IngestError(f"{path}: empty file")
    by_group: dict[str, dict[str, float]] = {}
    rows = csv.reader(lines)
    try:
        for row in rows:
            n = rows.line_num
            if n == 1 and [h.strip() for h in row[:3]] == ["group_id", "labeler_id", "score"]:
                continue
            if len(row) < 3:
                raise IngestError(f"line {n}: short row")
            gid, labeler = row[0].strip(), row[1].strip()
            # the frame CSV's number rule; an empty cell is passed as " ",
            # which loadtxt rejects, as it would skip "" as an empty row
            try:
                (score,) = np.loadtxt([row[2] or " "], delimiter=",", comments=None, ndmin=1)
            except ValueError:
                raise IngestError(f"line {n}: unparsable score {row[2]!r}") from None
            scores = by_group.setdefault(gid, {})
            if labeler in scores:
                raise IngestError(f"line {n}: duplicate score for group {gid}, labeler {labeler}")
            scores[labeler] = float(score)
        return [AnnotationSet(g, scores) for g, scores in by_group.items()]
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise IngestError(f"{path}: line {rows.line_num}: {exc}") from None
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from None


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
