import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode.errors import ContractError, ParameterError, ParseError, ZeroResponseError
from graphon_decode.lif import SpikeRaster, StimulusPulse, run_trial
from graphon_decode.protocols import (
    Protocol,
    Responses,
    extract_response,
    load_experimental_responses,
    mixed_cluster_protocol,
    normalize_response,
    read_block_map,
    read_responses_csv,
    two_cluster_protocol,
    write_block_map,
    write_responses_csv,
)
from graphon_decode.sbm import SbmConfig, block_membership, sample_adjacency


def raster_from(spikes, duration=200.0, seed=0):
    return SpikeRaster(spikes=tuple(np.asarray(s, dtype=float) for s in spikes), duration=duration, seed=seed)


# ---------------------------------------------------------------------------
# protocols


def test_two_cluster_small():
    p = two_cluster_protocol(3)
    assert p.targets_of("s1") == (0, 1, 2)
    assert p.targets_of("s2") == (3, 4, 5)


def test_two_cluster_targets_fill_blocks():
    n = 100
    p = two_cluster_protocol(n)
    s1, s2 = p.targets_of("s1"), p.targets_of("s2")
    assert len(s1) == len(s2) == n
    assert not set(s1) & set(s2)
    blocks = block_membership(n)
    assert all(blocks[t] == 1 for t in s1)
    assert all(blocks[t] == 2 for t in s2)


def test_mixed_cluster_small():
    p = mixed_cluster_protocol(3)
    assert p.targets_of("s1") == (0, 1)
    assert p.targets_of("s2") == (2, 3)
    assert p.targets_of("s3") == (4, 5)


def test_mixed_cluster_divisible_sizes():
    p = mixed_cluster_protocol(99)
    assert len(p.targets_of("s1")) == 66
    assert len(p.targets_of("s2")) == 66
    assert len(p.targets_of("s3")) == 66
    blocks = block_membership(99)
    s2_blocks = [blocks[t] for t in p.targets_of("s2")]
    assert s2_blocks.count(1) == 33 and s2_blocks.count(2) == 33


@given(st.integers(min_value=3, max_value=200))
@settings(max_examples=60, deadline=None)
def test_mixed_cluster_partitions_first_two_blocks(n):
    p = mixed_cluster_protocol(n)
    sets = [set(p.targets_of(lab)) for lab in ("s1", "s2", "s3")]
    assert sum(len(s) for s in sets) == 2 * n
    union = sets[0] | sets[1] | sets[2]
    assert union == set(range(2 * n))
    assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])


def test_mixed_cluster_rejects_tiny_n():
    with pytest.raises(ParameterError):
        mixed_cluster_protocol(2)


def test_protocol_rejects_duplicate_labels():
    with pytest.raises(ContractError):
        Protocol(name="custom", stimuli=(("a", (0,)), ("a", (1,))))


# ---------------------------------------------------------------------------
# response extraction


def test_single_active_neuron_gives_unit_coordinate():
    raster = raster_from([[], [10.0, 20.0, 30.0], []])
    r = extract_response(raster, onset=0.0, window=100.0, trial_id=1)
    assert np.array_equal(r, [0.0, 1.0, 0.0])


def test_three_four_five_normalization():
    raster = raster_from([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]])
    r = extract_response(raster, onset=0.0, window=100.0)
    assert np.allclose(r, [0.6, 0.8])


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
    v = np.array([3.0, 4.0, 0.0])
    once = normalize_response(v)
    twice = normalize_response(once)
    assert np.array_equal(once, twice)


def test_response_round_trip_keeps_label():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=5, seed=1))
    p = two_cluster_protocol(5)
    for label in p.labels:
        stim = StimulusPulse(targets=p.targets_of(label), onset=15.0, duration=5.0, amplitude=2.5)
        raster = run_trial(adj, stimulus=stim, duration=130.0, seed=3)
        r = extract_response(raster, onset=15.0, trial_id=0)
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
    with pytest.raises(ContractError, match="row 1"):
        Responses(values=[[1.0, 0.0], [0.6, 0.9]], labels=("s1", "s2"), trial_ids=(0, 1))
    with pytest.raises(ContractError, match="nonnegative"):
        Responses(values=[[-1.0, 0.0]], labels=("s1",), trial_ids=(0,))
    with pytest.raises(ContractError, match="nonnegative"):
        Responses(values=[[np.nan, 1.0]], labels=("s1",), trial_ids=(0,))
    with pytest.raises(ContractError, match="row 0"):
        Responses(values=[[np.inf, 0.0]], labels=("s1",), trial_ids=(0,))


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


def test_non_numeric_cell_rejected(tmp_path):
    rows = ["trial_id,label,roi_0,roi_1", "0,s1,1.0,oops"]
    blocks = ["roi_index,block", "0,1", "1,2"]
    resp, bmap = _write_dataset(tmp_path, rows, blocks)
    with pytest.raises(ParseError, match="row 2"):
        load_experimental_responses(resp, bmap)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_cell_rejected(tmp_path, cell):
    rows = ["trial_id,label,roi_0,roi_1", "0,s1,1.0,0.0", f"1,s2,{cell},1.0"]
    blocks = ["roi_index,block", "0,1", "1,2"]
    resp, bmap = _write_dataset(tmp_path, rows, blocks)
    with pytest.raises(ParseError, match="row 3: non-finite"):
        load_experimental_responses(resp, bmap)


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


def test_missing_header_rejected(tmp_path):
    resp = tmp_path / "responses.csv"
    resp.write_text("id,label,roi_0\n0,s1,1.0\n")
    with pytest.raises(ParseError, match="header"):
        read_responses_csv(resp)


def test_responses_csv_round_trip(tmp_path):
    rs = Responses(
        values=[normalize_response(np.array([1.0, 2.0, 2.0])), [0.0, 0.0, 1.0]],
        labels=("s1", "s2"),
        trial_ids=(0, 7),
    )
    path = tmp_path / "responses.csv"
    write_responses_csv(rs, path)
    back = read_responses_csv(path)
    assert back.labels == ("s1", "s2") and back.trial_ids == (0, 7)
    assert np.allclose(back.values, rs.values)


def test_block_map_round_trip(tmp_path):
    path = tmp_path / "blocks.csv"
    write_block_map(block_membership(2), path)
    assert np.array_equal(read_block_map(path), [1, 1, 2, 2, 3, 3, 4, 4])
