import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synchrony.cli import load_dataset
from synchrony.ingest import (
    AnnotationSet,
    AuRecording,
    IngestError,
    aggregate_annotations,
    group_to_sample,
    load_annotation_csv,
    load_au_csv,
    mean_average_deviation,
    read_frame_csv,
    select_top_aus,
)


def write_au_csv(path, n_rows=20, aus=("AU01", "AU02"), start=0, mutate=None):
    rng = np.random.default_rng(0)
    lines = ["frame," + ",".join(aus)]
    for i in range(n_rows):
        vals = ",".join(f"{v:.3f}" for v in rng.uniform(0, 5, len(aus)))
        lines.append(f"{start + i},{vals}")
    if mutate:
        lines = mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


# AU CSV loading


def test_load_well_formed_file(tmp_path):
    path = write_au_csv(tmp_path / "p1.csv", n_rows=1800)
    rec = load_au_csv(path)
    assert rec.participant_id == "p1"
    assert rec.names == ["AU01", "AU02"]
    assert rec.values.shape == (1800, 2)


def test_load_detects_frame_gap(tmp_path):
    def drop_row(lines):
        return lines[:11] + lines[12:]

    path = write_au_csv(tmp_path / "p.csv", mutate=drop_row)
    with pytest.raises(IngestError, match="p.csv: line 12: "):
        load_au_csv(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(IngestError, match="empty"):
        load_au_csv(path)


def test_load_rejects_header_only(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("frame,AU01\n")
    with pytest.raises(IngestError, match="no data rows"):
        load_au_csv(path)


def test_load_rejects_missing_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("time,AU01\n0,1.0\n")
    with pytest.raises(IngestError, match="missing columns"):
        load_au_csv(path)


def test_load_rejects_non_finite(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("frame,AU01\n0,1.0\n1,inf\n")
    with pytest.raises(IngestError, match="n.csv: line 3: non-finite"):
        load_au_csv(path)


def _rows(frames):
    return "".join(f"{f},0.5,0.25\n" for f in frames)


# A frame CSV body with ``{}`` for its two value-column names, and the start
# of the error after the file's path, or None for a file that loads.
FRAME_CSV_FAULTS = {
    "swapped-frames": ("frame,{}\n" + _rows([0, 1, 2, 4, 3, 5]), "line 5: frame 4 after 2"),
    "frame-gap": ("frame,{}\n" + _rows([*range(10), *range(11, 20)]), "line 12: frame 11"),
    "fractional-frame": ("frame,{}\n" + _rows([0, 1, 1.5, 2]), "line 4: frame 1.5"),
    "float-style-frames": ("frame,{}\n" + _rows(["0.0", "1.0", "2.0"]), None),
    "gap-after-comment": ("frame,{}\n" + _rows(range(5)) + "# a comment\n\n" + _rows([6, 7]),
                          "line 9: frame 6 after 4"),
    "non-numeric-cell": ("frame,{}\n0,0.5,0.25\n1,abc,0.25\n", "line 3: not a number: 'abc'"),
    "quoted-cell": ('frame,{}\n0,0.5,0.25\n1,"0.5",0.25\n', "line 3: not a number"),
    # Python's float() reads both of these; np.loadtxt reads neither
    "underscore-cell": ("frame,{}\n0,0.5,0.25\n1,1_0,0.25\n", "line 3: not a number: '1_0'"),
    "non-ascii-digit": ("frame,{}\n0,0.5,0.25\n1,\u0661,0.25\n", "line 3: not a number"),
    "nan-cell": ("frame,{}\n0,0.5,0.25\n1,nan,0.25\n", "line 3: non-finite"),
    "inf-cell": ("frame,{}\n0,0.5,0.25\n1,0.5,-inf\n", "line 3: non-finite"),
    "ragged-row": ("frame,{}\n0,0.5,0.25\n1,0.5\n", "line 3: expected the 3 columns"),
    "header-only": ("frame,{}\n", "no data rows"),
    "empty-file": ("", "empty file"),
    "first-header-cell": ("time,{}\n" + _rows(range(3)), "line 1: missing columns"),
    "byte-not-utf8": ("frame,{}\n0,0.5,0.25\n1,0.5\xff,0.25\n", "line 3: not UTF-8 text"),
    # these two headers stand in for the named columns in both files
    "trailing-comma-header": ("frame,AU01,\n" + _rows(range(3)), "line 1: column 3 has no name"),
    "blank-column-name": ("frame, ,AU02\n" + _rows(range(3)), "line 1: column 2 has no name"),
}


def _encode(body: str) -> bytes:
    """``body`` as UTF-8, except that "\xff" stands for the one byte 0xff,
    which is not UTF-8."""
    return b"\xff".join(part.encode("utf-8") for part in body.split("\xff"))


@pytest.mark.parametrize("case", list(FRAME_CSV_FAULTS))
def test_frame_csv_rule_is_shared(tmp_path, case):
    """An AU CSV and a pair CSV with the same body load, or fail at the
    same line with the same message."""
    body, expected = FRAME_CSV_FAULTS[case]
    au = tmp_path / "p.csv"
    au.write_bytes(_encode(body.format("AU01,AU02")))
    pair = tmp_path / "pair_0000.csv"
    pair.write_bytes(_encode(body.format("x,y")))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"kind": "pairs", "pairs": [{"file": pair.name, "label": 0.5}]}))
    if expected is None:
        rec = load_au_csv(au)
        (sample,) = load_dataset(tmp_path)
        assert rec.names == ["AU01", "AU02"]
        assert np.array_equal(rec.values[:, 0], [0.5, 0.5, 0.5])
        assert np.array_equal(sample.values[:, 1, 0], [0.25, 0.25, 0.25])
        return
    for path, load in ((au, load_au_csv), (pair, lambda _: load_dataset(tmp_path))):
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: {expected}")


@pytest.mark.parametrize("header, name", [("frame,AU01,AU01", "AU01"),
                                          ("frame,frame,AU01", "frame")])
def test_frame_csv_rejects_a_column_named_twice(tmp_path, header, name):
    path = tmp_path / "p.csv"
    path.write_text(header + "\n0,1,2\n1,3,4\n")
    with pytest.raises(IngestError) as info:
        load_au_csv(path)
    assert str(info.value) == f"{path}: line 1: column {name!r} named twice"


# the pieces of a frame-CSV body: number syntax that np.loadtxt reads and
# syntax that only Python's float() reads ("_"), the delimiter, comments,
# blanks and both line-end bytes
CSV_PIECES = [*"0123456789", ".", "-", "e", "_", ",", "#", " ", "\n", "\r", "nan", "inf"]
_text = st.lists(st.sampled_from(CSV_PIECES), max_size=6).map("".join)
_cell = st.one_of(st.integers(-99, 99).map(str), st.integers(0, 99).map(lambda i: str(i / 8)),
                  _text)


@st.composite
def frame_csv_bodies(draw):
    """Bodies of rows that count up from a drawn frame, with drawn cells,
    mixed with lines of drawn text and drawn line ends."""
    first, lines = draw(st.integers(-2, 2)), []
    for i in range(draw(st.integers(0, 5))):
        row = f"{first + i},{draw(_cell)},{draw(_cell)}"
        lines.append(draw(st.one_of(st.just(row), _text)))
    return "".join(line + draw(st.sampled_from(["\n", "\r", "\r\n"])) for line in lines)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(frame_csv_bodies())
def test_frame_csv_reads_what_loadtxt_reads(tmp_path, body):
    """The reader rejects a body with IngestError or returns what np.loadtxt
    reads below the header of the same file."""
    path = tmp_path / "p.csv"
    path.write_bytes(("frame,x,y\n" + body).encode("ascii"))
    try:
        names, values = read_frame_csv(path)
    except IngestError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert names == ["x", "y"]
    assert np.array_equal(values, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:])


def _annotation(rows, end="\n"):
    return "".join(row + end for row in rows)


# An annotation CSV body and the start of its error after the file's path.
ANNOTATION_CSV_FAULTS = {
    "byte-not-utf8": (_annotation(["group_id,labeler_id,score", "g1,l1,3", "g1,l\xff2,4"]),
                      "line 3: not UTF-8 text"),
    "short-row": (_annotation(["g1,l1,3", "g1,l2"], end="\r\n"), "line 2: short row"),
    "blank-line": (_annotation(["g1,l1,3", "", "g1,l2,4"]), "line 2: short row"),
    "unparsable-score": (_annotation(["group_id,labeler_id,score", "g1,l1,3", "g1,l2,high"]),
                         "line 3: unparsable score 'high'"),
    "non-ascii-digit-score": (_annotation(["g1,l1,3", "g1,l2,\u0663"]),
                              "line 2: unparsable score '\u0663'"),
    "underscore-score": (_annotation(["g1,l1,3", "g1,l2,3_0"]),
                         "line 2: unparsable score '3_0'"),
    "empty-score": (_annotation(["g1,l1,3", "g1,l2,"]), "line 2: unparsable score ''"),
    "two-numbers-score": (_annotation(["g1,l1,3", 'g1,l2,"3,4"']),
                          "line 2: unparsable score '3,4'"),
    "duplicate-score": (_annotation(["g1,l1,3", "g2,l1,4", "g1,l1,4"], end="\r"),
                        "line 3: duplicate score for group g1, labeler l1"),
    "field-too-long": (_annotation(["g1,l1,3", "g1," + "l" * 200_000 + ",4"]),
                       "line 2: field larger than field limit"),
    "one-labeler": (_annotation(["g1,l1,3", "g2,l1,3", "g2,l2,4"]),
                    "group 'g1': need at least 2 labelers"),
    "score-out-of-range": (_annotation(["g1,l1,3", "g1,l2,6"]),
                           "group 'g1': score 6.0 from labeler 'l2' outside [1, 5]"),
}


@pytest.mark.parametrize("case", list(ANNOTATION_CSV_FAULTS))
def test_annotation_csv_errors_name_the_path_and_line(tmp_path, case):
    body, expected = ANNOTATION_CSV_FAULTS[case]
    path = tmp_path / "ann.csv"
    path.write_bytes(_encode(body))
    with pytest.raises(IngestError) as info:
        load_annotation_csv(path)
    assert str(info.value).startswith(f"{path}: {expected}")


# mean average deviation


def test_mad_examples():
    assert mean_average_deviation([3.0, 3.0, 3.0]) == 0.0
    assert mean_average_deviation([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)
    assert mean_average_deviation([0.0, 4.0]) == 2.0


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=30),
    st.floats(-50, 50),
)
def test_mad_translation_invariant(values, shift):
    base = mean_average_deviation(values)
    shifted = mean_average_deviation([v + shift for v in values])
    assert shifted == pytest.approx(base, abs=1e-9)


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=30),
    st.floats(-10, 10),
)
def test_mad_absolutely_homogeneous(values, scale):
    if abs(scale) < 1e-6:
        return
    base = mean_average_deviation(values)
    scaled = mean_average_deviation([v * scale for v in values])
    assert scaled == pytest.approx(abs(scale) * base, rel=1e-9, abs=1e-9)


# top-AU selection


def make_recording(pid, channels):
    return AuRecording(pid, list(channels), np.column_stack(list(channels.values())))


def test_constant_au_never_selected():
    recs = [
        make_recording(
            f"p{i}",
            {
                "AU01": [0.0, 5.0, 0.0, 5.0],
                "AU02": [0.0, 1.0, 0.0, 1.0],
                "AU04": [2.0, 2.0, 2.0, 2.0],  # constant, MAD 0
            },
        )
        for i in range(3)
    ]
    assert "AU04" not in select_top_aus(recs, k=2)


def test_k_equal_channel_count_returns_rank_order():
    recs = [
        make_recording("p0", {"AU01": [0.0, 2.0], "AU02": [0.0, 8.0], "AU04": [0.0, 4.0]})
    ]
    assert select_top_aus(recs, k=3) == ["AU02", "AU04", "AU01"]


def test_top3_known_mads():
    # per-AU mean MADs: AU01 1.0, AU02 2.0, AU04 0.5, AU06 3.0
    def series(mad):
        return [0.0, 2 * mad]  # MAD of [0, 2m] is m

    recs = [
        make_recording(
            f"p{i}",
            {"AU01": series(1.0), "AU02": series(2.0),
             "AU04": series(0.5), "AU06": series(3.0)},
        )
        for i in range(3)
    ]
    assert select_top_aus(recs, k=3) == ["AU06", "AU02", "AU01"]


def test_selection_independent_of_participant_order():
    rng = np.random.default_rng(5)
    recs = [
        make_recording(f"p{i}", {au: rng.uniform(0, 5, 30) for au in
                                 ("AU01", "AU02", "AU04", "AU06")})
        for i in range(3)
    ]
    assert select_top_aus(recs, k=3) == select_top_aus(recs[::-1], k=3)


def test_too_few_shared_aus():
    recs = [make_recording("p0", {"AU01": [0.0, 1.0]})]
    with pytest.raises(IngestError):
        select_top_aus(recs, k=3)


def test_group_to_sample_aligns_channels():
    recs = [
        make_recording(
            f"p{i}",
            {"AU01": np.arange(10.0) * (i + 1), "AU02": np.ones(10),
             "AU04": np.arange(10.0)},
        )
        for i in range(3)
    ]
    aus = select_top_aus(recs, k=2)
    assert aus == ["AU01", "AU04"]
    sample = group_to_sample(recs, aus, label=3.5, group_id="g1")
    assert sample.n_participants == 3
    assert sample.n_channels == 2
    assert sample.label == 3.5
    for rec, member in zip(recs, sample.values.transpose(1, 0, 2)):
        assert np.array_equal(member, rec.values[:, [0, 2]])
    short = make_recording("p3", {"AU01": np.arange(9.0), "AU04": np.arange(9.0)})
    with pytest.raises(IngestError, match="all channels must share one length"):
        group_to_sample(recs + [short], aus, label=3.5, group_id="g1")


# annotation aggregation


def full_sets(score_matrix):
    """score_matrix: {group: {labeler: score}}"""
    return [AnnotationSet(g, dict(scores)) for g, scores in score_matrix.items()]


def test_all_labelers_agree():
    sets = full_sets({
        "g1": {"l1": 3.0, "l2": 3.0, "l3": 3.0},
        "g2": {"l1": 4.0, "l2": 4.0, "l3": 4.0},
    })
    labels, flagged, removed = aggregate_annotations(sets)
    assert removed == "l1"  # tie broken by lowest labeler id
    assert labels == {"g1": 3.0, "g2": 4.0}
    assert flagged == []


def test_outlier_labeler_removed():
    groups = {}
    for g in ("g1", "g2", "g3"):
        groups[g] = {"l1": 1.0, "l2": 1.0, "l3": 1.0, "l4": 5.0}
    labels, flagged, removed = aggregate_annotations(full_sets(groups))
    assert removed == "l4"
    assert all(v == 1.0 for v in labels.values())
    assert flagged == []


def test_zero_threshold_flags_disagreement():
    sets = full_sets({
        "g1": {"l1": 2.0, "l2": 2.0, "l3": 2.0},
        "g2": {"l1": 2.0, "l2": 3.0, "l3": 4.0},
    })
    _, flagged, _ = aggregate_annotations(sets, variance_threshold=0.0)
    assert flagged == ["g2"]


def test_exactly_one_labeler_removed_labels_in_range():
    rng = np.random.default_rng(8)
    sets = full_sets({
        f"g{i}": {f"l{j}": float(rng.integers(1, 6)) for j in range(5)}
        for i in range(6)
    })
    labels, _, removed = aggregate_annotations(sets)
    assert removed in {f"l{j}" for j in range(5)}
    assert all(1.0 <= v <= 5.0 for v in labels.values())


def test_duplicate_labeler_does_not_change_original_outlier():
    base = {
        f"g{i}": {"l1": 1.0, "l2": 2.0, "l3": 1.0, "l4": 5.0}
        for i in range(4)
    }
    _, _, removed_base = aggregate_annotations(full_sets(base))
    with_dup = {
        g: dict(scores, l9=scores["l2"]) for g, scores in base.items()
    }
    _, _, removed_dup = aggregate_annotations(full_sets(with_dup))
    assert removed_base == "l4"
    assert removed_dup == "l4"


def test_incomplete_matrix_rejected():
    sets = [
        AnnotationSet("g1", {"l1": 1.0, "l2": 2.0, "l3": 3.0}),
        AnnotationSet("g2", {"l1": 1.0, "l2": 2.0, "l4": 3.0}),
    ]
    with pytest.raises(IngestError, match="incomplete"):
        aggregate_annotations(sets)


def test_requires_three_labelers():
    sets = [AnnotationSet("g1", {"l1": 1.0, "l2": 2.0})]
    with pytest.raises(IngestError):
        aggregate_annotations(sets)


def test_pooled_variance_mode_runs():
    sets = full_sets({
        "g1": {"l1": 1.0, "l2": 2.0, "l3": 1.0},
        "g2": {"l1": 3.0, "l2": 4.0, "l3": 3.0},
    })
    labels, _, removed = aggregate_annotations(sets, pooled=True)
    assert set(labels) == {"g1", "g2"}


# file-level loaders


def test_load_annotation_csv(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(
        "group_id,labeler_id,score\n"
        "g1,l1,3\ng1,l2,4\ng2,l1,2\ng2,l2,5\n"
    )
    sets = load_annotation_csv(path)
    assert {s.group_id for s in sets} == {"g1", "g2"}


def test_load_annotation_csv_duplicate(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("g1,l1,3\ng1,l1,4\n")
    with pytest.raises(IngestError, match="duplicate"):
        load_annotation_csv(path)
