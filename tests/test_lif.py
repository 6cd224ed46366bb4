import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode.errors import ContractError, ParameterError, ZeroResponseError
from graphon_decode.experiment import ExperimentConfig, run_protocol_trials, sample_graph
from graphon_decode.lif import (
    SimParams,
    SpikeRaster,
    _noise_schedule,
    _stable_argsort,
    noise_events,
    run_trial,
    run_trials,
    scaling_factors,
    write_raster_csv,
)
from graphon_decode.protocols import extract_response
from graphon_decode.sbm import AdjacencyMatrix, SbmConfig, edge_probability_matrix, sample_adjacency

QUIET = SimParams(poisson_rate=0.0)


def held(amplitude_na=2.5, **overrides):
    """A noise-free 110 ms trial whose pulse is on from 0 to 110 ms."""
    return SimParams(
        poisson_rate=0.0, onset=0.0, pulse_ms=110.0, duration=110.0, amplitude_na=amplitude_na, **overrides
    )


def single_neuron():
    return AdjacencyMatrix(np.zeros((1, 1), dtype=int))


def pair():
    return AdjacencyMatrix(np.array([[0, 1], [1, 0]]))


# ---------------------------------------------------------------------------
# membrane dynamics


def test_silent_network_relaxes_to_rest():
    sim = SimParams(poisson_rate=0.0, duration=120.0, v0=-60.0, zero_degree="isolate")
    raster = run_trial(single_neuron(), sim=sim, record_trace=True)
    assert raster.total_spikes == 0
    idx = np.searchsorted(raster.trace.times, 5 * sim.tau_mem)
    assert abs(raster.trace.v[idx, 0] - sim.e_leak) < 0.1


def test_constant_drive_spike_time_matches_closed_form():
    # R_in * I = 30 mV from rest crosses the 20 mV threshold gap at
    # tau_mem * ln(30 / (30 - 20)) ~= 21.9722 ms.
    dt = 0.1
    amp_na = 30.0 / (SimParams().r_in * 1e-3)  # drive of exactly 30 mV
    raster = run_trial(single_neuron(), (0,), sim=held(amp_na, dt=dt, zero_degree="isolate"))
    assert raster.spikes[0].size > 0
    expected = 20.0 * np.log(3.0)
    assert abs(raster.spikes[0][0] - expected) <= 2 * dt


def test_resource_drops_by_beta_at_spike():
    raster = run_trial(single_neuron(), (0,), sim=held(zero_degree="isolate"), record_trace=True)
    t_first = raster.spikes[0][0]
    k = int(round(t_first / 0.1))
    assert raster.trace.resource[k - 1, 0] == 1.0
    assert raster.trace.resource[k, 0] == pytest.approx(0.8, abs=1e-12)


def test_membrane_resets_exactly_after_spike():
    raster = run_trial(single_neuron(), (0,), sim=held(zero_degree="isolate"), record_trace=True)
    for t_spike in raster.spikes[0]:
        k = int(round(t_spike / 0.1))
        assert raster.trace.v[k, 0] == SimParams().v_reset


def test_refractory_clamp_spacing():
    raster = run_trial(single_neuron(), (0,), sim=held(5.0, zero_degree="isolate"))
    assert raster.spikes[0].size >= 2
    assert np.all(np.diff(raster.spikes[0]) >= SimParams().refractory_ms - 1e-9)


# ---------------------------------------------------------------------------
# synaptic transmission


def test_conduction_delay_fidelity():
    # Neuron 0 is driven to spike; neuron 1's conductance must stay zero up to
    # and including t_spike + 2.8 ms and be raised by exactly g_max / S at the
    # next recorded step.
    dt = 0.1
    raster = run_trial(pair(), (0,), sim=held(dt=dt), record_trace=True)
    t0 = raster.spikes[0][0]
    g1 = raster.trace.g_syn[:, 1]
    times = raster.trace.times
    at_delay = int(round((t0 + 2.8) / dt))
    assert np.all(g1[: at_delay + 1] == 0.0)
    assert g1[at_delay + 1] > 0.0
    assert times[at_delay + 1] == pytest.approx(t0 + 2.8 + dt)
    assert g1[at_delay + 1] == pytest.approx(SimParams().g_max, rel=1e-12)


def test_depressed_resource_scales_later_transmission():
    # Second spike of neuron 0 is emitted with R = 0.8, so the increment seen
    # by neuron 1 is beta * g_max / S.
    raster = run_trial(pair(), (0,), sim=held(5.0), record_trace=True)
    spikes0 = raster.spikes[0]
    assert spikes0.size >= 2
    g1 = raster.trace.g_syn[:, 1]
    k2 = int(round((spikes0[1] + 2.8) / 0.1)) + 1
    jump = g1[k2] - g1[k2 - 1] * (1.0 - 0.1 / SimParams().tau_g)
    # the post-spike trace holds beta * R_emitted, so back out the exact weight
    k_sp2 = int(round(spikes0[1] / 0.1))
    r_emitted = raster.trace.resource[k_sp2, 0] / 0.8
    assert jump == pytest.approx(r_emitted * SimParams().g_max, rel=1e-9)
    # recovery between the two spikes is ~1e-5, so the weight is still ~beta
    assert r_emitted == pytest.approx(0.8, abs=1e-3)


def test_only_targets_spike_without_coupling_or_noise():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=5, seed=1))
    targets = (0, 1, 2)
    sim = SimParams(poisson_rate=0.0, g_max=0.0, onset=10.0, duration=120.0)
    raster = run_trial(adj, targets, sim=sim)
    spiking = {i for i, t in enumerate(raster.spikes) if t.size}
    assert spiking == set(targets)


def test_state_bounds_during_network_burst():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=10, seed=3))
    raster = run_trial(adj, tuple(range(10)), seed=7, record_trace=True)
    assert raster.total_spikes > 0
    assert np.all(raster.trace.resource > 0.0)
    assert np.all(raster.trace.resource <= 1.0)
    assert np.all(raster.trace.g_syn >= 0.0)


def test_identical_seeds_give_identical_rasters():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=8, seed=2))
    targets, sim = tuple(range(8)), SimParams(onset=15.0, duration=130.0)
    r1 = run_trial(adj, targets, 42, sim)
    r2 = run_trial(adj, targets, 42, sim)
    assert all(np.array_equal(a, b) for a, b in zip(r1.spikes, r2.spikes))
    r3 = run_trial(adj, targets, 43, sim)
    assert any(not np.array_equal(a, b) for a, b in zip(r1.spikes, r3.spikes))


def test_spike_count_stable_under_dt_halving():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=6, seed=5))
    targets = tuple(range(6))

    def mean_count(dt):
        sim = SimParams(onset=10.0, duration=115.0, dt=dt)
        rasters = run_trials(adj, [targets] * 20, range(20), sim)
        return np.mean([raster.counts(10.0, 110.0).sum() for raster in rasters])

    coarse = mean_count(0.1)
    fine = mean_count(0.05)
    assert abs(coarse - fine) / coarse <= 0.05


# ---------------------------------------------------------------------------
# scaling factors


def test_scaling_factors_complete_graph():
    k4 = AdjacencyMatrix(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    assert np.array_equal(scaling_factors(k4), [3.0, 3.0, 3.0, 3.0])


def test_scaling_factors_star_graph():
    star = np.zeros((6, 6), dtype=int)
    star[0, 1:] = 1
    star[1:, 0] = 1
    s = scaling_factors(AdjacencyMatrix(star))
    assert s[0] == 5.0
    assert np.all(s[1:] == 1.0)


def test_scaling_factors_match_binomial_expectation():
    cfg = SbmConfig(alpha=0.05, n=100, seed=6)
    adj = sample_adjacency(cfg)
    probs = edge_probability_matrix(cfg)
    expected = probs.sum(axis=1)
    sigma = np.sqrt((probs * (1.0 - probs)).sum(axis=1))
    s = scaling_factors(adj)
    assert abs(s.mean() - expected.mean()) < 3 * sigma.mean() / np.sqrt(adj.size)


def test_zero_degree_policy():
    lonely = AdjacencyMatrix(np.zeros((3, 3), dtype=int))
    with pytest.raises(ParameterError):
        scaling_factors(lonely)
    assert np.all(scaling_factors(lonely, zero_degree="isolate") == 0.0)
    with pytest.raises(ParameterError):
        scaling_factors(lonely, zero_degree="drop")


# ---------------------------------------------------------------------------
# parameter validation


def test_dt_must_divide_delay():
    with pytest.raises(ParameterError, match="delay"):
        SimParams(dt=0.3)
    # divisors that are inexact in binary pass the 1e-9 relative tolerance
    for dt in (0.05, 0.07, 0.14, 0.7):
        SimParams(dt=dt)


def test_empty_network_rejected():
    empty = AdjacencyMatrix(np.zeros((0, 0), dtype=int))
    with pytest.raises(ParameterError, match="empty"):
        run_trial(empty)


def test_trial_must_cover_counting_window():
    # the default 100 ms window from a 50 ms onset needs a 150 ms trial,
    # stimulated or not
    with pytest.raises(ParameterError, match=r"onset \+ window = 150 ms"):
        SimParams(onset=50.0, duration=100.0)


def test_trial_covers_the_given_counting_window():
    sim = SimParams(poisson_rate=0.0, onset=50.0, duration=100.0, window=50.0)
    raster = run_trial(pair(), (0,), sim=sim)
    assert raster.counts(50.0, 100.0)[0] > 0
    with pytest.raises(ParameterError, match="110 ms"):
        replace(sim, window=60.0)
    with pytest.raises(ParameterError, match="window must be positive"):
        replace(sim, window=0.0)


def test_stimulus_targets_validated():
    with pytest.raises(ParameterError, match="targets"):
        run_trial(pair(), (7,), sim=SimParams(poisson_rate=0.0, onset=0.0, duration=120.0))


# one case per check of SimParams: the field set, its bad value, the message
SIM_PARAM_CASES = [
    ("dt", 0.0, "sim.dt must be positive"),
    ("tau_mem", -20.0, "sim.tau_mem must be positive"),
    ("tau_g", 0.0, "sim.tau_g must be positive"),
    ("tau_recovery", -1.0, "sim.tau_recovery must be positive"),
    ("kca_tau", 0.0, "sim.kca_tau must be positive"),
    ("delay", 0.0, "sim.delay must be positive"),
    ("pulse_ms", 0.0, "sim.pulse_ms must be positive"),
    ("poisson_rate", -1.0, "sim.poisson_rate must be nonnegative"),
    ("refractory_ms", -0.5, "sim.refractory_ms must be nonnegative"),
    ("g0", -1e-6, "sim.g0 must be nonnegative"),
    ("onset", -1.0, "sim.onset must be nonnegative"),
    ("v_reset", -50.0, "v_reset must lie below"),
    ("v_reset", -54.0, "v_reset must lie below"),
    ("beta", 0.0, r"sim.beta must lie in \(0, 1\]"),
    ("beta", 1.5, r"sim.beta must lie in \(0, 1\]"),
    ("r0", 0.0, r"sim.r0 must lie in \(0, 1\]"),
    ("r0", 1.01, r"sim.r0 must lie in \(0, 1\]"),
    ("dt", 0.3, "divide the conduction delay"),
    ("zero_degree", "drop", "unknown zero_degree policy"),
    ("window", 0.0, "sim.window must be positive"),
    ("duration", 119.0, r"onset \+ window = 120 ms"),
]


@pytest.mark.parametrize(
    "name, value, match", SIM_PARAM_CASES, ids=[f"{n}={v}" for n, v, _ in SIM_PARAM_CASES]
)
def test_sim_params_validation(name, value, match):
    with pytest.raises(ParameterError, match=match):
        SimParams(**{name: value})


def test_sim_params_accept_the_edges():
    SimParams(beta=1.0, r0=1.0, poisson_rate=0.0, refractory_ms=0.0, onset=0.0, duration=100.0)


def test_raster_invariants_enforced():
    with pytest.raises(ContractError):
        SpikeRaster(times=[5.0, 5.0], offsets=[0, 2], duration=10.0, seed=0)
    with pytest.raises(ContractError):
        SpikeRaster(times=[5.0, 5.5], offsets=[0, 2], duration=10.0, seed=0, refractory_ms=2.0)


@pytest.mark.parametrize(
    "times, match",
    [
        ([1.0, 4.0, 2.0, 11.0], "neuron 2: spike time outside"),
        ([1.0, 4.0, 2.0, float("nan")], "neuron 2: spike time outside"),
        ([1.0, 4.0, 6.0, 6.0], "neuron 2: spike times must be strictly increasing"),
        ([1.0, 4.0, 6.0, 5.0], "neuron 2: spike times must be strictly increasing"),
        ([1.0, 4.0, 6.0, 7.5], "neuron 2: spikes closer than the refractory period"),
    ],
)
def test_raster_validation_names_the_offending_neuron(times, match):
    # neuron 0 spikes at 1 and 4, neuron 1 never, neuron 2 at the last two times;
    # the gaps 4 -> 6 and 4 -> 2 cross a neuron boundary and are not checked
    with pytest.raises(ContractError, match=match):
        SpikeRaster(times=times, offsets=[0, 2, 2, 4], duration=10.0, seed=0, refractory_ms=2.0)
    SpikeRaster(times=[1.0, 4.0, 2.0, 4.0], offsets=[0, 2, 2, 4], duration=10.0, seed=0, refractory_ms=2.0)


def test_raster_offsets_validated():
    for offsets in ([1, 2], [0, 3], [0, 2, 1, 2], []):
        with pytest.raises(ContractError, match="offsets"):
            SpikeRaster(times=[1.0, 4.0], offsets=offsets, duration=10.0, seed=0)


def test_raster_offsets_must_be_integers():
    # int64 would read 2.9 as 2, a valid end offset for two spike times
    with pytest.raises(ContractError, match="offsets must be integers"):
        SpikeRaster(times=[1.0, 4.0], offsets=[0, 2.9], duration=10.0, seed=0)
    raster = SpikeRaster(times=[1.0, 4.0], offsets=[0.0, 2.0], duration=10.0, seed=0)
    assert raster.offsets.dtype == np.int64 and raster.offsets.tolist() == [0, 2]


def test_raster_views_and_half_open_counts():
    raster = SpikeRaster(times=[10.0, 20.0, 9.9, 19.9, 30.0], offsets=[0, 2, 2, 5], duration=40.0, seed=0)
    assert raster.size == 3 and raster.total_spikes == 5
    assert [t.tolist() for t in raster.spikes] == [[10.0, 20.0], [], [9.9, 19.9, 30.0]]
    assert not raster.spikes[0].flags.writeable
    # [start, stop): a spike at start counts, one at stop does not
    assert raster.counts(10.0, 20.0).tolist() == [1.0, 0.0, 1.0]
    assert raster.counts(9.9, 30.0).tolist() == [2.0, 0.0, 2.0]


def test_rasters_compare_by_value_without_the_trace():
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=10, seed=4))
    traced = run_trial(adj, seed=3, record_trace=True)
    plain = run_trial(adj, seed=3)
    assert traced.trace is not None and plain.trace is None
    assert traced.times.tobytes() == plain.times.tobytes()
    assert np.array_equal(traced.offsets, plain.offsets)
    other = run_trial(adj, seed=4)
    assert not (other.times.tobytes() == plain.times.tobytes() and np.array_equal(other.offsets, plain.offsets))


# ---------------------------------------------------------------------------
# batched trials


@pytest.mark.parametrize(
    "sim",
    [
        SimParams(duration=130.0),
        SimParams(duration=130.0, kca_increment=2e-5),
        SimParams(duration=130.0, poisson_rate=0.0),
        SimParams(duration=130.0, dt=0.05),
    ],
    ids=["default", "kca", "no_noise", "dt_0.05"],
)
def test_batched_trials_match_single_trials(sim):
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=10, seed=4))
    first, second = tuple(range(10)), tuple(range(15, 30))
    targets = [first, second, (), first, second]
    seeds = [11, 12, 13, 14, 11]
    batch = run_trials(adj, targets, seeds, sim)
    assert len(batch) == len(seeds)
    for raster, trial_targets, seed in zip(batch, targets, seeds):
        alone = run_trial(adj, trial_targets, seed, sim)
        assert raster.seed == seed
        assert np.array_equal(raster.times, alone.times)
        assert np.array_equal(raster.offsets, alone.offsets)
    assert batch[0].total_spikes > 0 and batch[1].total_spikes > 0


@pytest.mark.parametrize(
    "sim",
    [
        SimParams(duration=130.0),
        SimParams(duration=130.0, kca_increment=2e-5),
        SimParams(duration=130.0, poisson_rate=0.0),
        SimParams(duration=130.0, dt=0.05),
        SimParams(duration=130.0, onset=0.0),
        SimParams(duration=130.0, window=110.0),
    ],
    ids=["default", "kca", "no_noise", "dt_0.05", "onset_0", "window_to_duration"],
)
def test_stopping_at_the_window_changes_no_response(sim):
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=10, seed=4))
    first, second = tuple(range(10)), tuple(range(15, 30))
    targets = [first, second, (), first, second]
    seeds = [11, 12, 13, 14, 11]
    full = run_trials(adj, targets, seeds, sim)
    cut = run_trials(adj, targets, seeds, sim, stop_at_window=True)
    stop = sim.onset + sim.window
    if stop == sim.duration:
        span = sim.duration
    else:
        # the first step end at or after onset + window
        span = next(k * sim.dt for k in range(1, 10**5) if k * sim.dt >= stop)
        assert span < sim.duration
    assert sum(r.total_spikes for r in cut) > 0
    for whole, part in zip(full, cut):
        assert part.duration == span and part.seed == whole.seed
        for kept, all_spikes in zip(part.spikes, whole.spikes):
            assert np.array_equal(kept, all_spikes[all_spikes <= span])
        rows = []
        for raster in (whole, part):
            try:
                rows.append(extract_response(raster, sim.onset, sim.window))
            except ZeroResponseError:
                rows.append(None)
        assert (rows[0] is None and rows[1] is None) or rows[0].tobytes() == rows[1].tobytes()


@pytest.mark.parametrize(
    "bound", [0, 1, 2**8 - 1, 2**8, 2**8 + 1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**32 + 1]
)
def test_narrowed_sort_keys_keep_the_stable_order(bound):
    assert _stable_argsort(np.empty(0, dtype=np.int64), bound).size == 0
    if bound == 0:
        return
    rng = np.random.default_rng(bound)
    # heavy ties at both ends of the range, so stability shows
    keys = np.concatenate(
        [rng.integers(bound, size=300), rng.choice([0, bound // 2, bound - 1], size=300)]
    )
    rng.shuffle(keys)
    assert np.array_equal(_stable_argsort(keys, bound), np.argsort(keys, kind="stable"))


def test_noise_events_follow_the_per_step_poisson_law():
    # a neuron's count over the trial is Poisson(steps * lam) and its events
    # spread uniformly over the steps, so each step's count is Poisson(lam):
    # every check allows 5 standard errors over 2,000 seeds
    lam = np.array([0.0, 0.0015, 0.03, 0.3])
    steps, trials = 200, 2000
    per_step = np.zeros((trials, lam.size, steps))
    for seed in range(trials):
        at, source = noise_events(seed, lam, steps)
        np.add.at(per_step[seed], (source, at), 1)
    totals = per_step.sum(axis=2)
    expected = steps * lam
    assert totals[:, 0].max() == 0
    assert np.all(np.abs(totals.mean(axis=0) - expected) <= 5 * np.sqrt(expected / trials))
    spread = 5 * np.sqrt((expected + 2 * expected**2) / trials)
    assert np.all(np.abs(totals.var(axis=0) - expected) <= spread)
    # uniform over the steps: chi-square with steps - 1 = 199 degrees of freedom
    by_step = per_step.sum(axis=(0, 1))
    mean_step = by_step.mean()
    assert ((by_step - mean_step) ** 2 / mean_step).sum() < 199 + 5 * np.sqrt(2 * 199)
    # per-step counts of the busiest neuron: Poisson(0.3) in mean, variance and zeros
    counts = per_step[:, 3].ravel()
    assert abs(counts.mean() - 0.3) <= 5 * np.sqrt(0.3 / counts.size)
    assert abs(counts.var() - 0.3) <= 5 * np.sqrt((0.3 + 2 * 0.3**2) / counts.size)
    zero = np.exp(-0.3)
    assert abs((counts == 0).mean() - zero) <= 5 * np.sqrt(zero * (1 - zero) / counts.size)


@pytest.mark.parametrize("steps", [37, 1_200, 1_500, 65_536, 100_000])
def test_noise_events_are_the_int64_draws_held_as_int32(steps):
    lam = np.array([0.0, 0.5, 4.0, 20.0]) / steps
    for seed in range(20):
        at, source = noise_events(seed, lam, steps)
        assert at.dtype == source.dtype == np.int32
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        counts = rng.poisson(steps * lam)
        assert np.array_equal(at, rng.integers(steps, size=counts.sum(), dtype=np.int64))
        assert np.array_equal(source, np.repeat(np.arange(lam.size, dtype=np.int64), counts))


def searchsorted_schedule(seeds, noise_lam, steps, run_steps):
    """The noise schedule built from int64 arrays: a stable argsort of the
    event steps, and bounds found by searching the sorted steps."""
    events = [noise_events(seed, noise_lam, steps) for seed in seeds]
    event_steps = np.concatenate([at.astype(np.int64) for at, _ in events])
    order = np.argsort(event_steps, kind="stable")
    cells = np.concatenate([b * noise_lam.size + source.astype(np.int64) for b, (_, source) in enumerate(events)])
    return cells[order], np.searchsorted(event_steps[order], np.arange(run_steps + 1))


@given(
    batch=st.integers(min_value=1, max_value=4),
    size=st.sampled_from([1, 2, 7, 64, 255, 256, 257, 20_000]),
    steps=st.sampled_from([1, 2, 37, 255, 256, 257, 1_500, 65_536, 65_537, 100_000]),
    cut=st.floats(min_value=0.0, max_value=1.0),
    rate=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=80, deadline=None)
def test_noise_schedule_equals_the_searchsorted_schedule(batch, size, steps, cut, rate, seed):
    # up to 3 events per neuron whatever the steps; 4 x 20,000 cells need 32-bit ones
    noise_lam = rate * np.random.default_rng(seed).random(size) / steps
    seeds = [seed + b for b in range(batch)]
    run_steps = max(1, round(cut * steps))
    cells, bounds = _noise_schedule(seeds, noise_lam, steps, run_steps)
    expected_cells, expected_bounds = searchsorted_schedule(seeds, noise_lam, steps, run_steps)
    assert cells.dtype == np.min_scalar_type(batch * size - 1)
    assert np.array_equal(cells, expected_cells)
    assert np.array_equal(bounds, expected_bounds)


def test_default_protocol_batch_stays_within_its_memory_budget():
    # numpy reports its buffers to tracemalloc.  The default protocol runs its
    # 40 trials as one batch of ~240k noise events and ~300k spikes, which
    # peaked at 24.3 MB while the int64 schedule and spike log lived on
    config = ExperimentConfig()
    adjacency = sample_graph(config.sbm)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run_protocol_trials(adjacency, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14e6, peak


def test_batch_arguments_validated():
    with pytest.raises(ParameterError, match="single trial"):
        run_trials(pair(), [(), ()], [0, 1], QUIET, record_trace=True)
    with pytest.raises(ParameterError, match="in full"):
        run_trials(pair(), [()], [0], QUIET, record_trace=True, stop_at_window=True)
    with pytest.raises(ParameterError, match="one stimulus"):
        run_trials(pair(), [()], [0, 1], QUIET)


# ---------------------------------------------------------------------------
# raster file format


def test_raster_csv_round_trip(tmp_path):
    adj = sample_adjacency(SbmConfig(alpha=0.05, n=4, seed=8))
    raster = run_trial(adj, (0, 1, 2, 3), 9, SimParams(onset=10.0, duration=120.0))
    path = tmp_path / "raster.csv"
    write_raster_csv(raster, path, meta={"dt_ms": 0.1, "alpha": 0.05})
    lines = path.read_text().splitlines()
    assert lines[:7] == [
        "# nodes=16",
        "# duration_ms=120.0",
        "# seed=9",
        "# refractory_ms=2.0",
        "# alpha=0.05",
        "# dt_ms=0.1",
        "neuron_id,spike_time_ms",
    ]
    rows = lines[7:]
    assert len(rows) == raster.total_spikes
    assert raster.spikes[0].size > 0
    assert [row for row in rows if row.startswith("0,")] == [f"0,{t!r}" for t in raster.spikes[0].tolist()]
