"""A scalar reference simulator, checked bit for bit against run_trials.

The reference is transcribed from the lif module docstring: one loop per
step and per neuron, in plain Python floats, sharing no data structure with
run_trials (no batch, no sparse product, no pending dict, no refractory
deque, no sort).  It takes its noise from ``noise_events`` alone.  To match
bits it follows the step loop's order of IEEE operations:

- g decays, then the spikes of step k - delay - 1 arrive, summed over their
  sources in neuron order, then the noise events add in the order drawn;
- then the drive, the resource recovery, the membrane update, the
  refractory clamp and the threshold test;
- a spike emits its neuron's resource before depressing it.

This is differential testing (McKeeman 1998, "Differential Testing for
Software"): a rewrite of the step loop that changes any spike of any trial
fails here, on graphs far smaller than the golden runs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_decode.lif import SimParams, noise_events, run_trials
from graphon_decode.sbm import AdjacencyMatrix


def reference_trial(entries, targets, seed, sim, stop_at_window):
    """Per-neuron spike times, the duration covered, and the (v, g, resource)
    state before the first step and after each step, for one trial."""
    n = len(entries)
    dt = sim.dt
    degree = [float(sum(row)) for row in entries]
    unit_inc = [sim.g_max / s if s > 0 else 0.0 for s in degree]
    steps = int(math.floor(sim.duration / dt + 1e-9))
    delay_steps = round(sim.delay / dt)
    noise_lam = np.array([sim.poisson_rate * s * dt * 1e-3 for s in degree])
    at, source = noise_events(seed, noise_lam, steps)
    noise = [[] for _ in range(steps)]
    for k, j in zip(at.tolist(), source.tolist()):
        noise[k].append(j)
    stim = [sim.amplitude_na * 1e-3 if j in targets else 0.0 for j in range(n)]

    v = [sim.e_leak if sim.v0 is None else sim.v0] * n
    g = [sim.g0] * n
    g_kca = [0.0] * n
    resource = [sim.r0] * n
    clamp_until = [-math.inf] * n
    emitted = {}  # step -> [(source neuron, resource at emission)]
    spikes = [[] for _ in range(n)]
    duration = sim.duration
    states = [(v[:], g[:], resource[:])]

    for k in range(steps):
        t = k * dt
        arriving = emitted.get(k - delay_steps - 1)
        for j in range(n):
            g[j] = g[j] * (1.0 - dt / sim.tau_g)
            if arriving is not None:
                total = 0.0
                for i, r in arriving:
                    total = total + r * float(entries[j][i])
                g[j] = g[j] + unit_inc[j] * total
        for j in noise[k]:
            g[j] = g[j] + unit_inc[j]
        fired = []
        for j in range(n):
            drive = (sim.e_syn - v[j]) * g[j]
            if sim.kca_increment:
                g_kca[j] = g_kca[j] * (1.0 - dt / sim.kca_tau)
                drive = drive + (sim.kca_reversal - v[j]) * g_kca[j]
            if sim.onset <= t < sim.onset + sim.pulse_ms:
                drive = drive + stim[j]
            resource[j] = resource[j] + (1.0 - resource[j]) * (dt / sim.tau_recovery)
            v[j] = v[j] + ((sim.e_leak - v[j]) + drive * sim.r_in) * (dt / sim.tau_mem)
            if t < clamp_until[j]:
                v[j] = sim.v_reset
            if v[j] >= sim.v_threshold:
                fired.append((j, resource[j]))
                resource[j] = resource[j] * sim.beta
                v[j] = sim.v_reset
                if sim.kca_increment:
                    g_kca[j] = g_kca[j] + sim.kca_increment
                clamp_until[j] = (k + 1) * dt + sim.refractory_ms
                spikes[j].append((k + 1) * dt)
        if fired:
            emitted[k] = fired
        states.append((v[:], g[:], resource[:]))
        if stop_at_window and (k + 1) * dt >= sim.onset + sim.window:
            if k + 1 < steps:
                duration = (k + 1) * dt
            break
    return spikes, duration, states


@st.composite
def cases(draw):
    n = draw(st.integers(1, 6))
    upper = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    entries = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            entries[i, j] = entries[j, i] = upper[i * n + j]
    dt = draw(st.sampled_from([0.1, 0.2]))
    onset = draw(st.sampled_from([0.0, 1.0, 2.5]))
    window = draw(st.sampled_from([5.0, 12.0, 25.0]))
    sim = SimParams(
        dt=dt,
        onset=onset,
        window=window,
        duration=onset + window + draw(st.sampled_from([0.0, 0.35, 6.0])),
        pulse_ms=draw(st.sampled_from([1.0, 4.0, 30.0])),
        amplitude_na=draw(st.sampled_from([0.0, 0.6, 2.5, 5.0])),
        poisson_rate=draw(st.sampled_from([0.0, 1.0, 2000.0, 1e4])),
        delay=dt * draw(st.integers(1, 30)),
        refractory_ms=draw(st.sampled_from([0.0, 0.35, 2.0])),
        kca_increment=draw(st.sampled_from([0.0, 2e-4])),
        beta=draw(st.sampled_from([0.8, 0.5, 1.0])),
        tau_recovery=draw(st.sampled_from([2.0e4, 15.0])),
        g_max=draw(st.sampled_from([3.5e-4, 2e-3])),
        v0=draw(st.sampled_from([None, -55.0])),
        zero_degree="isolate",
    )
    trials = draw(st.integers(1, 3))
    targets = [tuple(draw(st.sets(st.integers(0, n - 1)))) for _ in range(trials)]
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=trials, max_size=trials))
    return entries, targets, seeds, sim, draw(st.booleans())


@given(cases())
@settings(max_examples=60, deadline=None)
def test_run_trials_matches_the_scalar_reference_bit_for_bit(case):
    entries, targets, seeds, sim, stop_at_window = case
    adjacency = AdjacencyMatrix(entries)
    rasters = run_trials(adjacency, targets, seeds, sim, stop_at_window=stop_at_window)
    for raster, trial_targets, seed in zip(rasters, targets, seeds):
        spikes, duration, _ = reference_trial(entries.tolist(), trial_targets, seed, sim, stop_at_window)
        assert raster.duration == duration
        want = np.array([t for times in spikes for t in times], dtype=float)
        assert raster.times.tobytes() == want.tobytes()
        assert raster.offsets.tolist() == np.cumsum([0] + [len(times) for times in spikes]).tolist()
    # the full state history of the first trial, which a raster shows only
    # where a last-bit difference moves a threshold crossing
    trace = run_trials(adjacency, targets[:1], seeds[:1], sim, record_trace=True)[0].trace
    _, _, states = reference_trial(entries.tolist(), targets[0], seeds[0], sim, False)
    for got, want in zip((trace.v, trace.g_syn, trace.resource), zip(*states)):
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
