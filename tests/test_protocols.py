import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode import protocols
from graphon_decode.errors import ContractError, ParameterError, ParseError, ZeroResponseError
from graphon_decode.lif import SimParams, SpikeRaster, run_trial
from graphon_decode.protocols import (
    Protocol,
    Responses,
    _read_trial_table,
    extract_response,
    load_experimental_responses,
    mixed_cluster_protocol,
    normalize_response,
    read_block_map,
    read_responses_csv,
    two_cluster_protocol,
    write_responses_csv,
)
from graphon_decode.sbm import SbmConfig, block_membership, sample_adjacency


def raster_from(spikes, duration=200.0, seed=0):
    times = np.concatenate([np.asarray(s, dtype=float) for s in spikes])
    offsets = np.cumsum([0] + [len(s) for s in spikes])
    return SpikeRaster(times=times, offsets=offsets, duration=duration, seed=seed)


# ---------------------------------------------------------------------------
# protocols


def test_two_cluster_small():
    targets = dict(two_cluster_protocol(3).stimuli)
    assert targets["s1"] == (0, 1, 2)
    assert targets["s2"] == (3, 4, 5)


def test_two_cluster_targets_fill_blocks():
    n = 100
    targets = dict(two_cluster_protocol(n).stimuli)
    s1, s2 = targets["s1"], targets["s2"]
    assert len(s1) == len(s2) == n
    assert not set(s1) & set(s2)
    blocks = block_membership(n)
    assert all(blocks[t] == 1 for t in s1)
    assert all(blocks[t] == 2 for t in s2)


def test_mixed_cluster_small():
    targets = dict(mixed_cluster_protocol(3).stimuli)
    assert targets["s1"] == (0, 1)
    assert targets["s2"] == (2, 3)
    assert targets["s3"] == (4, 5)


def test_mixed_cluster_divisible_sizes():
    targets = dict(mixed_cluster_protocol(99).stimuli)
    assert len(targets["s1"]) == 66
    assert len(targets["s2"]) == 66
    assert len(targets["s3"]) == 66
    blocks = block_membership(99)
    s2_blocks = [blocks[t] for t in targets["s2"]]
    assert s2_blocks.count(1) == 33 and s2_blocks.count(2) == 33


@given(st.integers(min_value=3, max_value=200))
@settings(max_examples=60, deadline=None)
def test_mixed_cluster_partitions_first_two_blocks(n):
    targets = dict(mixed_cluster_protocol(n).stimuli)
    sets = [set(targets[lab]) for lab in ("s1", "s2", "s3")]
    assert sum(len(s) for s in sets) == 2 * n
    union = sets[0] | sets[1] | sets[2]
    assert union == set(range(2 * n))
    assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])


def test_mixed_cluster_rejects_tiny_n():
    with pytest.raises(ParameterError):
        mixed_cluster_protocol(2)


def test_protocol_rejects_duplicate_labels():
    with pytest.raises(ContractError):
        Protocol(stimuli=(("a", (0,)), ("a", (1,))))


def test_protocol_targets_must_be_integers():
    with pytest.raises(ContractError, match="stimulus 'a' targets must be integers"):
        Protocol(stimuli=(("a", (0.5, 1.7)),))
    assert Protocol(stimuli=(("a", (3.0, np.int8(1))),)).stimuli == (("a", (1, 3)),)


@pytest.mark.parametrize("label", ["a,b", 'a"b', "a|b", "a\nb", "a\rb"])
def test_protocol_rejects_labels_that_break_a_csv_row(label):
    with pytest.raises(ContractError, match="comma, quote"):
        Protocol(stimuli=((label, (0,)), ("c", (1,))))


# ---------------------------------------------------------------------------
# response extraction


def test_single_active_neuron_gives_unit_coordinate():
    raster = raster_from([[], [10.0, 20.0, 30.0], []])
    counts = extract_response(raster, onset=0.0, window=100.0, trial_id=1)
    assert counts.dtype == np.int64 and counts.tolist() == [0, 3, 0]
    assert np.array_equal(normalize_response(counts), [0.0, 1.0, 0.0])


def test_three_four_five_normalization():
    raster = raster_from([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]])
    counts = extract_response(raster, onset=0.0, window=100.0)
    assert counts.tolist() == [3, 4]
    assert np.allclose(normalize_response(counts), [0.6, 0.8])


def test_window_is_half_open():
    raster = raster_from([[50.0], [150.0]])
    r = extract_response(raster, onset=50.0, window=100.0)
    # the spike exactly at onset counts, the one exactly at onset+window does not
    assert np.array_equal(r, [1.0, 0.0])


def test_zero_response_rejected():
    raster = raster_from([[], []])
    with pytest.raises(ZeroResponseError):
        extract_response(raster, onset=0.0, window=100.0, trial_id=7)


def test_window_must_fit_trial():
    raster = raster_from([[10.0]], duration=80.0)
    with pytest.raises(ParameterError):
        extract_response(raster, onset=0.0, window=100.0)


def test_normalization_is_idempotent():
    for counts in ([3.0, 4.0, 0.0], [2.0, 3.0, 5.0, 7.0]):
        once = normalize_response(np.array(counts))
        twice = normalize_response(once)
        assert np.array_equal(once, twice), counts


@st.composite
def spike_counts(draw):
    """Nonnegative integer count vectors, not all zero; a third of them hold
    a single spike, the one integer row whose norm is exactly 1."""
    m = draw(st.integers(1, 50))
    if draw(st.integers(0, 2)) == 0:
        counts = np.zeros(m, dtype=np.int64)
        counts[draw(st.integers(0, m - 1))] = 1
        return counts
    counts = np.array(draw(st.lists(st.integers(0, 30), min_size=m, max_size=m)), dtype=np.int64)
    if not counts.any():
        counts[draw(st.integers(0, m - 1))] = draw(st.integers(1, 30))
    return counts


@given(spike_counts())
@settings(max_examples=200, deadline=None)
def test_normalizing_counts_divides_by_their_norm_bit_for_bit(counts):
    # a run writes counts and every consumer normalizes them, so the unit
    # rows must be exactly the counts divided by their norm
    floats = counts.astype(float)
    expected = floats / np.linalg.norm(floats)
    assert normalize_response(counts).tobytes() == expected.tobytes()
    stored = Responses(values=[counts], labels=("s1",), trial_ids=(0,)).values[0]
    assert stored.tobytes() == expected.tobytes()


def test_response_round_trip_keeps_label():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=5, seed=1))
    for label, targets in two_cluster_protocol(5).stimuli:
        raster = run_trial(adj, targets, 3, SimParams(onset=15.0, duration=130.0))
        r = normalize_response(extract_response(raster, onset=15.0, trial_id=0))
        responses = Responses(values=[r], labels=[label], trial_ids=[0])
        assert responses.labels == (label,)
        assert abs(np.linalg.norm(responses.values[0]) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_validation():
    unit = np.array([[1.0, 0.0], [0.6, 0.8]])
    with pytest.raises(ContractError, match="one label"):
        Responses(values=unit, labels=("s1",), trial_ids=(0, 1))
    with pytest.raises(ContractError, match="one label"):
        Responses(values=unit, labels=("s1", "s2"), trial_ids=(0,))
    with pytest.raises(ContractError, match="nonempty"):
        Responses(values=np.empty((0, 2)), labels=(), trial_ids=())
    with pytest.raises(ContractError, match="nonempty"):
        Responses(values=np.array([1.0, 0.0]), labels=("s1",), trial_ids=(0,))  # 1-D
    source = unit.copy()
    ds = Responses(values=source, labels=["s1", "s2"], trial_ids=[0, 1])
    assert ds.values.shape == (2, 2)
    assert ds.labels == ("s1", "s2") and ds.trial_ids == (0, 1)
    assert not ds.values.flags.writeable
    source[0, 0] = 0.0  # the container holds its own copy
    assert ds.values[0, 0] == 1.0


def test_responses_row_validation():
    # a row not at unit norm is normalized on construction, not rejected
    ds = Responses(values=[[1.0, 0.0], [0.6, 0.9]], labels=("s1", "s2"), trial_ids=(0, 1))
    assert ds.values[1].tobytes() == normalize_response([0.6, 0.9]).tobytes()
    with pytest.raises(ContractError, match="row 1: cannot normalize an all-zero response"):
        Responses(values=[[1.0, 0.0], [0.0, 0.0]], labels=("s1", "s2"), trial_ids=(0, 1))
    with pytest.raises(ContractError, match="nonnegative"):
        Responses(values=[[-1.0, 0.0]], labels=("s1",), trial_ids=(0,))
    with pytest.raises(ContractError, match="nonnegative"):
        Responses(values=[[np.nan, 1.0]], labels=("s1",), trial_ids=(0,))
    with pytest.raises(ContractError, match="row 0"):
        Responses(values=[[np.inf, 0.0]], labels=("s1",), trial_ids=(0,))
    with np.errstate(over="ignore"), pytest.raises(ContractError, match="row 0: .* of norm inf"):
        Responses(values=[[1e200, 1e200]], labels=("s1",), trial_ids=(0,))  # the norm overflows


# ---------------------------------------------------------------------------
# file formats


def _write_dataset(tmp_path, rows, block_rows):
    resp = tmp_path / "responses.csv"
    resp.write_text("\n".join(rows) + "\n")
    bmap = tmp_path / "blocks.csv"
    bmap.write_text("\n".join(block_rows) + "\n")
    return resp, bmap


def test_load_experimental_responses(tmp_path):
    rows = [
        "trial_id,label,roi_0,roi_1,roi_2,roi_3",
        "0,s1,1.0,0.0,0.0,0.0",
        "1,s2,0.0,2.0,0.0,0.0",  # norm 2, must be renormalized
    ]
    blocks = ["roi_index,block", "0,1", "1,2", "2,3", "3,4"]
    resp, bmap = _write_dataset(tmp_path, rows, blocks)
    responses, block_map = load_experimental_responses(resp, bmap)
    assert responses.values.shape == (2, 4)
    assert responses.labels == ("s1", "s2") and responses.trial_ids == (0, 1)
    assert np.array_equal(responses.values[1], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(block_map, [1, 2, 3, 4])


def test_unknown_label_rejected_with_row_number(tmp_path):
    rows = [
        "trial_id,label,roi_0,roi_1",
        "0,s1,1.0,0.0",
        "1,s4,0.0,1.0",
    ]
    blocks = ["roi_index,block", "0,1", "1,2"]
    resp, bmap = _write_dataset(tmp_path, rows, blocks)
    with pytest.raises(ParseError, match="row 3"):
        load_experimental_responses(resp, bmap)


def _rows_with(cell, count, at):
    """A two-ROI responses table of ``count`` rows whose rows ``at`` (0-based)
    and, if there is one, ``at + 1`` hold ``cell`` as their second value, so
    the first bad row of a block must be the one named."""
    rows = ["trial_id,label,roi_0,roi_1"]
    rows += [f"{i},s{1 + i % 3},1.0,{cell if i in (at, at + 1) else '0.5'}" for i in range(count)]
    return rows


# where the bad row sits: the only row, and two rows deep inside a longer table
_BAD_ROW_AT = [(1, 0), (2 * 64 + 5, 64 + 3), (2 * 64 + 5, 2 * 64 + 2)]


def test_non_numeric_cell_rejected(tmp_path):
    # numpy's reader takes only ASCII decimals: Python's float() also read
    # "1_000" and Arabic-Indic digits; a quoted "1,5" is two cells once unquoted
    blocks = ["roi_index,block", "0,1", "1,2"]
    for cell in ["oops", '"1,5"', "1_000", "\u0661"]:
        for count, at in _BAD_ROW_AT:
            resp, bmap = _write_dataset(tmp_path, _rows_with(cell, count, at), blocks)
            with pytest.raises(ParseError, match=f"row {at + 2}: non-numeric cell"):
                load_experimental_responses(resp, bmap)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_cell_rejected(tmp_path, cell):
    blocks = ["roi_index,block", "0,1", "1,2"]
    for count, at in [(2, 1), *_BAD_ROW_AT[1:]]:
        resp, bmap = _write_dataset(tmp_path, _rows_with(cell, count, at), blocks)
        with pytest.raises(ParseError, match=f"row {at + 2}: non-finite cell"):
            load_experimental_responses(resp, bmap)


def test_empty_cell_of_a_one_column_table_is_non_numeric(tmp_path):
    # the joined cells form an empty line, which numpy would skip with a warning
    resp = tmp_path / "responses.csv"
    resp.write_text("trial_id,label,roi_0\n0,s1,1.0\n1,s2,\n2,s1,3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="row 3: non-numeric cell"):
            read_responses_csv(resp)


@pytest.mark.parametrize("bad, first", [("1,s2,1.0,x", "non-numeric"), ("1,s2,nan,0.5", "non-finite")])
def test_first_rejected_row_is_named(tmp_path, bad, first):
    # a bad trial id later in the table does not hide a bad value before it
    resp = tmp_path / "responses.csv"
    resp.write_text(f"trial_id,label,roi_0,roi_1\n0,s1,1.0,0.5\n{bad}\n2,s1,1.0,0.5\nx,s2,1.0,0.5\n")
    with pytest.raises(ParseError, match=f"row 3: {first} cell"):
        read_responses_csv(resp)


def test_row_by_row_fallback_names_the_first_bad_row_of_either_kind(tmp_path):
    # the x makes the one-call parse fail; the nan two rows before it is
    # numeric but non-finite, and it is the row named
    resp = tmp_path / "responses.csv"
    resp.write_text("trial_id,label,roi_0,roi_1\n0,s1,1.0,0.5\n1,s2,nan,0.5\n2,s1,1.0,0.5\n3,s2,x,0.5\n")
    with pytest.raises(ParseError, match="row 3: non-finite cell"):
        read_responses_csv(resp)


def test_row_by_row_fallback_returns_the_rows_it_parsed(tmp_path, monkeypatch):
    # rows that parse one by one after the one-call parse failed still come
    # back as the value matrix
    parse = protocols._parse_values
    monkeypatch.setattr(protocols, "_parse_values", lambda texts, m: parse(texts, m) if len(texts) == 1 else None)
    resp = tmp_path / "responses.csv"
    resp.write_text("trial_id,label,roi_0,roi_1\n0,s1,1.0,0.0\n1,s2,0.0,1.0\n")
    assert read_responses_csv(resp).values.tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("count", [64 - 1, 64, 64 + 1])
def test_value_cells_read_as_float_reads_them(tmp_path, count):
    # every ASCII spelling float() reads, with blank lines between rows
    rng = np.random.default_rng(count)
    spellings = ["3", "+2", "-0.0", ".5", "5.", "1e-3", "2.5E+2", " 7.25 ", '"1.5"', "0.1", "123456789.123456789012"]
    lines = ["trial_id,label," + ",".join(f"roi_{i}" for i in range(12))]
    for i in range(count):
        cells = [spellings[(i + j) % len(spellings)] for j in range(11)] + [repr(float(rng.standard_normal()))]
        lines.append(f"{i},s{1 + i % 3}," + ",".join(cells))
        if i % 5 == 0:
            lines.append("")
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    with open(path, newline="") as fh:
        rows = [(row_no, row) for row_no, row in enumerate(csv.reader(fh), start=1) if row][1:]
    trial_ids, _, values, row_nos, _ = _read_trial_table(path, "roi_", 0)
    assert trial_ids == list(range(count)) and row_nos == [row_no for row_no, _ in rows]
    expected = np.array([[float(cell) for cell in row[2:]] for _, row in rows])
    assert values.tobytes() == expected.tobytes()
    assert values[0, 8] == 1.5  # the quoted cell


def test_block_map_mismatch_rejected(tmp_path):
    rows = ["trial_id,label,roi_0,roi_1", "0,s1,1.0,0.0"]
    blocks = ["roi_index,block", "0,1", "1,2", "2,3"]
    resp, bmap = _write_dataset(tmp_path, rows, blocks)
    with pytest.raises(ParseError, match="covers 3"):
        load_experimental_responses(resp, bmap)


def test_block_map_gaps_rejected(tmp_path):
    bmap = tmp_path / "blocks.csv"
    bmap.write_text("roi_index,block\n0,1\n2,2\n")
    with pytest.raises(ParseError, match="cover 0..1"):
        read_block_map(bmap)


def test_block_map_rows_need_two_cells(tmp_path):
    bmap = tmp_path / "blocks.csv"
    bmap.write_text("roi_index,block\n0,1,99\n1,2\n")
    with pytest.raises(ParseError, match="row 2: bad row"):
        read_block_map(bmap)


@pytest.mark.parametrize(
    "body, match",
    [
        ("roi,block\n0,1\n", "header must be roi_index,block"),
        ("roi_index,block\n0,1\n1,5\n", "row 3: block 5 outside 1..4"),
        ("roi_index,block\n0,1\n0,2\n", "row 3: duplicate roi_index 0"),
        ("roi_index,block\n0,1\n\n1\n", "row 4: bad row"),
    ],
)
def test_block_map_rows_are_checked_one_by_one(tmp_path, body, match):
    bmap = tmp_path / "blocks.csv"
    bmap.write_text(body)
    with pytest.raises(ParseError, match=match):
        read_block_map(bmap)
    # a blank row is skipped, and still counted in the row numbers
    bmap.write_text("roi_index,block\n0,4\n\n1,1\n")
    assert read_block_map(bmap).tolist() == [4, 1]


def test_missing_header_rejected(tmp_path):
    resp = tmp_path / "responses.csv"
    resp.write_text("id,label,roi_0\n0,s1,1.0\n")
    with pytest.raises(ParseError, match="header"):
        read_responses_csv(resp)


def test_repeated_trial_id_rejected(tmp_path):
    resp = tmp_path / "responses.csv"
    resp.write_text("trial_id,label,roi_0\n0,s1,1.0\n1,s1,2.0\n0,s2,1.0\n")
    with pytest.raises(ParseError, match="row 4: duplicate trial_id 0"):
        read_responses_csv(resp)


def test_responses_csv_round_trip(tmp_path):
    counts = np.array([[1, 2, 2], [0, 0, 3]])
    path = tmp_path / "responses.csv"
    write_responses_csv(counts, ("s1", "s2"), (0, 7), path)
    assert path.read_text().splitlines() == ["trial_id,label,roi_0,roi_1,roi_2", "0,s1,1,2,2", "7,s2,0,0,3"]
    back = read_responses_csv(path)
    assert back.labels == ("s1", "s2") and back.trial_ids == (0, 7)
    expected = np.vstack([normalize_response(row) for row in counts])
    assert back.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "counts, match",
    [
        ([[0.6, 0.8]], "nonnegative integers"),
        ([[3, -4]], "nonnegative integers"),
        ([3, 4], "nonnegative integers"),
        (np.array([[True, False]]), "nonnegative integers"),
        ([[3, 4], [1, 0]], "one label and one trial id per response row"),
    ],
    ids=["floats", "negative", "one-dimensional", "booleans", "two-rows-one-label"],
)
def test_responses_are_written_as_nonnegative_integer_counts(tmp_path, counts, match):
    with pytest.raises(ContractError, match=match):
        write_responses_csv(counts, ("s1",), (0,), tmp_path / "responses.csv")
    assert not (tmp_path / "responses.csv").exists()


def test_block_map_round_trip(tmp_path):
    path = tmp_path / "blocks.csv"
    path.write_text("roi_index,block\n0,1\n1,1\n2,2\n3,2\n4,3\n5,3\n6,4\n7,4\n")
    assert np.array_equal(read_block_map(path), [1, 1, 2, 2, 3, 3, 4, 4])
