"""Conductance-based leaky integrate-and-fire network with synaptic depression.

Forward-Euler integration on a fixed step.  Units: time in ms, voltage in mV,
conductance in mS, current in uA, resistance in kOhm (so r_in * g is
dimensionless and r_in * I is mV; stimulus amplitudes are given in nA and
converted internally).

Each neuron j keeps one aggregated synaptic conductance g_j.  A spike of
presynaptic neuron i at time t adds (g_max / S_j) * R_i to g_j at time
t + delay, where S_j is j's in-degree and R_i is i's depression resource at
emission time (read before the depression update).  R drops by the factor
beta at each spike of its neuron and otherwise relaxes to 1 with time
constant tau_recovery.  Spontaneous synaptic noise is a Poisson stream per
neuron at rate poisson_rate * S_j, feeding g_j with unit resource weight and
without touching any depression state.  It is drawn event by event (Brette et
al. 2007; see :func:`noise_events` for why the law is that of per-step
draws), at a cost that follows the events rather than steps times neurons.

Refractoriness is an absolute clamp: after a spike the membrane is held at
v_reset for refractory_ms.  A spike-triggered adaptation conductance with its
own reversal and decay is available and disabled by default (increment 0).
Both are deliberately simple, fully configurable stand-ins for biophysically
detailed after-spike currents.

One frozen :class:`SimParams` holds every parameter of a trial and checks
them all on construction; the experiment config's ``sim`` section is that
same record.  A trial's stimulus is its tuple of target neurons, which
receive a square current pulse of amplitude_na over
[onset, onset + pulse_ms); the empty tuple means no stimulus.

:func:`run_trials` advances a batch of trials together on (trials, neurons)
state arrays, updated in place in buffers allocated once per batch.  The
spikes of step k arrive at step k + delay + 1 and no other step writes that
arrival, so the pending spikes are kept per arrival step and a step that
receives none skips the synaptic update.  The synaptic input of a step is one
sparse product: the resource emitted by the spiking cells, as a (trials,
neurons) CSR matrix, times the (symmetric) adjacency.  Row b of that product
sums trial b's spiking neurons in neuron order and nothing else, and every
trial draws its noise events from its own generator, so batching changes no
bit of any raster; :func:`run_trial` is the batch of one.  On request the
loop stops at the first step whose end reaches onset + window, past which no
spike is counted; such a truncated raster carries the span it covers as its
``duration``, so it cannot pass for a full trial.

A batch's memory follows its events.  Its noise schedule keeps each event
as its flat cell trial * neurons + neuron, in the narrowest unsigned dtype
that holds them all (2 bytes up to 65,536 cells, else 4), plus 8 bytes per
step; building it peaks near 16 bytes per event, for the stable sort's order.
The spike log keeps 8 bytes per spike through the loop, the int64 flat cell
of each spike.  Turning it into rasters narrows the cells to the schedule's
dtype beside a 4-byte step per spike, and the rasters keep 8 bytes per spike
time.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .sbm import AdjacencyMatrix, _cell, _check_fields, _field_value, _integers, _readonly, _rng, _write_csv


@dataclass(frozen=True)
class SimParams:
    """Every dynamical parameter of a trial; defaults are the published
    constants plus the pipeline's own windowing choices.

    A stimulated trial's targets receive ``amplitude_na`` nA while
    onset <= t < onset + pulse_ms, and its spikes are counted over the
    ``window`` ms from onset, which every trial must cover.  The step dt must
    divide the conduction delay exactly (to 1e-9 relative).
    """

    dt: float = 0.1
    duration: float = 150.0
    onset: float = 20.0
    pulse_ms: float = 5.0
    amplitude_na: float = 2.5
    poisson_rate: float = 1.0
    window: float = 100.0
    # membrane; the defaults give a 20 mV threshold gap from rest
    tau_mem: float = 20.0
    e_leak: float = -74.0
    r_in: float = 4.0e4
    v_threshold: float = -54.0
    v_reset: float = -60.0
    # synapses
    e_syn: float = 0.0
    g_max: float = 3.5e-4
    tau_g: float = 5.0
    beta: float = 0.8
    tau_recovery: float = 2.0e4
    delay: float = 2.8
    # after-spike machinery: an absolute refractory clamp plus a
    # spike-incremented adaptation conductance, off when the increment is 0
    refractory_ms: float = 2.0
    kca_increment: float = 0.0
    kca_tau: float = 80.0
    kca_reversal: float = -80.0
    # initial conditions (v0 of None means e_leak) and degree policy
    v0: float | None = None
    g0: float = 0.0
    r0: float = 1.0
    zero_degree: str = "error"

    def __post_init__(self):
        _check_fields(self, "sim.")

        def check(names, ok, wording):
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ParameterError(f"sim.{name} must {wording}, got {value}")

        positive = ("dt", "tau_mem", "tau_g", "tau_recovery", "kca_tau", "delay", "pulse_ms", "window")
        check(positive, lambda x: x > 0, "be positive")
        check(("poisson_rate", "refractory_ms", "g0", "onset"), lambda x: x >= 0, "be nonnegative")
        check(("beta", "r0"), lambda x: 0.0 < x <= 1.0, "lie in (0, 1]")
        if not self.v_reset < self.v_threshold:
            raise ParameterError("sim.v_reset must lie below sim.v_threshold")
        delay_steps = round(self.delay / self.dt)
        if delay_steps < 1 or abs(delay_steps * self.dt - self.delay) > 1e-9 * self.delay:
            raise ParameterError(
                f"sim.dt={self.dt} must divide the conduction delay {self.delay} ms exactly"
            )
        if self.zero_degree not in ("error", "isolate"):
            raise ParameterError(f"unknown zero_degree policy {self.zero_degree!r}")
        needed = self.onset + self.window
        if self.duration < needed - 1e-9:
            raise ParameterError(f"sim.duration must be at least onset + window = {needed:g} ms")


@dataclass(frozen=True, eq=False)
class TrialTrace:
    """Per-step state history for diagnostics; index 0 is the initial state."""

    times: np.ndarray
    v: np.ndarray
    g_syn: np.ndarray
    resource: np.ndarray


@dataclass(frozen=True, eq=False)
class SpikeRaster:
    """Spike times (ms) of one trial, stored CSR-style: neuron i's strictly
    increasing times are ``times[offsets[i]:offsets[i + 1]]``."""

    times: np.ndarray
    offsets: np.ndarray
    duration: float
    seed: int
    refractory_ms: float = 0.0
    trace: TrialTrace | None = None

    def __post_init__(self):
        times = np.array(self.times, dtype=float).reshape(-1)
        offsets = _integers(self.offsets, "offsets")
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != times.size or (np.diff(offsets) < 0).any():
            raise ContractError("offsets must rise from 0 to the number of spike times")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "offsets", _readonly(offsets))
        # the raster CSV writes the seed into its header
        object.__setattr__(self, "seed", _field_value("seed", "int", self.seed, 0))

        def neuron_of(index):
            return int(np.searchsorted(offsets, index, side="right")) - 1

        outside = np.flatnonzero(~((times >= 0) & (times <= self.duration + 1e-9)))
        if outside.size:
            raise ContractError(f"neuron {neuron_of(outside[0])}: spike time outside [0, duration]")
        # gap j lies between times j and j + 1; it is checked unless a neuron starts at j + 1
        gaps = np.diff(times)
        within = np.ones(gaps.size, dtype=bool)
        within[offsets[(offsets > 0) & (offsets < times.size)] - 1] = False
        bad = np.flatnonzero(within & ~(gaps > 0))
        if bad.size:
            raise ContractError(f"neuron {neuron_of(bad[0])}: spike times must be strictly increasing")
        if self.refractory_ms > 0:
            bad = np.flatnonzero(within & (gaps < self.refractory_ms - 1e-9))
            if bad.size:
                raise ContractError(f"neuron {neuron_of(bad[0])}: spikes closer than the refractory period")

    @property
    def size(self) -> int:
        """Number of neurons."""
        return self.offsets.size - 1

    @property
    def spikes(self) -> tuple[np.ndarray, ...]:
        """Read-only view of each neuron's spike times."""
        return tuple(self.times[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:]))

    def counts(self, start: float, stop: float) -> np.ndarray:
        """Integer spike counts per neuron in the half-open window [start, stop)."""
        neuron = np.repeat(np.arange(self.size), np.diff(self.offsets))
        inside = (self.times >= start) & (self.times < stop)
        return np.bincount(neuron[inside], minlength=self.size)

    @property
    def total_spikes(self) -> int:
        return int(self.times.size)


def noise_events(seed: int, noise_lam: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """One trial's spontaneous noise over ``steps`` steps, drawn from
    ``SeedSequence(seed)`` alone: the step and the neuron of each event.

    Neuron j's event count is Poisson(steps * noise_lam[j]) and each event's
    step is uniform over the steps.  Given their total, independent per-step
    Poisson(noise_lam[j]) counts are multinomial over equally likely steps,
    so every step's count is Poisson(noise_lam[j]), independent across steps
    and neurons, as if drawn step by step.
    """
    rng = _rng(seed)
    counts = rng.poisson(steps * noise_lam)
    at = rng.integers(steps, size=counts.sum(), dtype=np.int32)
    return at, np.repeat(np.arange(noise_lam.size, dtype=np.int32), counts)


def run_trial(
    adjacency: AdjacencyMatrix,
    targets: Sequence[int] = (),
    seed: int = 0,
    sim: SimParams = SimParams(),
    record_trace: bool = False,
) -> SpikeRaster:
    """Simulate one trial and return its spike raster: :func:`run_trials`
    with a batch of one, which alone may record a :class:`TrialTrace`."""
    return run_trials(adjacency, [targets], [seed], sim, record_trace)[0]


def _noise_schedule(
    seeds: Sequence[int], noise_lam: np.ndarray, steps: int, run_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The batch's noise events as flat cells trial * size + neuron, ordered
    by step: step k's are ``cells[bounds[k] : bounds[k + 1]]``, k < run_steps.
    The cells take the narrowest dtype that holds them, and the per-trial
    draws die here, before the step loop."""
    size = noise_lam.size
    # numpy radix-sorts keys of 16 bits or fewer, and a stable order does not
    # depend on the dtype, so the keys and cells are sorted at their narrowest
    key_type = np.min_scalar_type(max(steps - 1, 0))
    cell_type = np.min_scalar_type(len(seeds) * size - 1)
    keys, cells = [], []
    for b, seed in enumerate(seeds):
        at, source = noise_events(seed, noise_lam, steps)
        keys.append(at.astype(key_type))
        cells.append(source.astype(cell_type) + b * size)
    keys = np.concatenate(keys)
    cells = np.concatenate(cells)[np.argsort(keys, kind="stable")]
    bounds = np.zeros(run_steps + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=steps)[:run_steps], out=bounds[1:])
    return cells, bounds


def run_trials(
    adjacency: AdjacencyMatrix,
    targets: Sequence[Sequence[int]],
    seeds: Sequence[int],
    sim: SimParams = SimParams(),
    record_trace: bool = False,
    stop_at_window: bool = False,
) -> list[SpikeRaster]:
    """Simulate one trial per (targets, seed) pair, all advanced together
    step by step, and return their rasters in order.  A trial's stimulus is
    the pulse of ``sim`` into its target neurons; ``()`` means none.

    Trial b draws its noise events from ``SeedSequence(seeds[b])`` alone and
    its synaptic input from its own row of the sparse product, so its raster
    is the one a batch of one gives it: identical arguments and seed give
    identical rasters, whatever else shares the batch.

    With ``stop_at_window`` the loop ends at the first step whose end time
    reaches onset + window, and each raster's ``duration`` is the span those
    steps cover; its spikes are the full trial's spikes up to that time.
    """
    size = adjacency.size
    if size == 0:
        raise ParameterError("empty network")
    batch = len(seeds)
    if batch == 0 or len(targets) != batch:
        raise ParameterError(
            "one stimulus (a tuple of targets, () for none) per seed required, and at least one seed"
        )
    if record_trace and (batch != 1 or stop_at_window):
        raise ParameterError("a trace is recorded for a single trial only, simulated in full")

    # stim_current[b] is trial b's pulse current, on while onset <= t < stim_stop
    stim_current = np.zeros((batch, size))
    for b, trial_targets in enumerate(targets):
        trial_targets = _integers(trial_targets, "stimulus targets", ParameterError)
        if any(t < 0 or t >= size for t in trial_targets):
            raise ParameterError("stimulus targets outside the network")
        stim_current[b, trial_targets] = sim.amplitude_na * 1e-3
    stim_stop = sim.onset + sim.pulse_ms

    dt, duration = sim.dt, sim.duration
    delay_steps = round(sim.delay / dt)
    steps = int(math.floor(duration / dt + 1e-9))
    run_steps = steps
    if stop_at_window:
        # step k's spikes fall at (k + 1) * dt; the last step run is the
        # first whose spikes fall at or after onset + window
        ends = np.arange(1, steps + 1) * dt
        run_steps = min(steps, int(np.searchsorted(ends, sim.onset + sim.window)) + 1)
        if run_steps < steps:
            duration = float(ends[run_steps - 1])
    weights = adjacency.entries.astype(float)
    # in-degrees; a neuron without one gets no synaptic input, if the policy allows it
    s = adjacency.entries.sum(axis=1).astype(float)
    has_input = s > 0
    if sim.zero_degree == "error" and not has_input.all():
        raise ParameterError(
            f"neurons {np.flatnonzero(~has_input)[:5].tolist()} have no incoming edges; "
            "use zero_degree='isolate' to allow this"
        )
    unit_inc = np.where(has_input, sim.g_max / np.where(has_input, s, 1.0), 0.0)
    # the noise events are drawn over all steps, run or not, so the stream is
    # the same whether or not the loop stops early
    noise_lam = sim.poisson_rate * s * dt * 1e-3
    noise_cells, noise_bounds = _noise_schedule(seeds, noise_lam, steps, run_steps)
    flat_inc = np.tile(unit_inc, batch)

    shape = (batch, size)
    v = np.full(shape, sim.e_leak if sim.v0 is None else sim.v0, dtype=float)
    g = np.full(shape, sim.g0, dtype=float)
    g_kca = np.zeros(shape)
    resource = np.full(shape, sim.r0, dtype=float)
    v_flat, g_flat, kca_flat, resource_flat = (a.reshape(-1) for a in (v, g, g_kca, resource))
    # the refractory cells: each step's spiking cells with the time their
    # clamp ends, oldest first; a cell is clamped while t < that time
    refractory: deque[tuple[float, np.ndarray]] = deque()
    # per-step buffers: each update runs in place, one IEEE operation at a
    # time in the order of the expression beside it, so its bits are those of
    # the expression evaluated out of place
    drive = np.empty(shape)
    scratch = np.empty(shape)
    spiked = np.empty(shape, dtype=bool)

    # imported where it is called, like every scipy import of the package
    # (see embedding._top_eigenpairs)
    from scipy.sparse import csr_array

    # pending[k + delay + 1], written by step k alone if it has spikes, holds
    # the resource its spiking cells emitted, one CSR row per trial as (data,
    # indices, indptr).  On arrival it refills one CSR matrix for the product,
    # which reads only those three arrays.
    pending: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    emitted = csr_array((batch, size))
    row_ids = np.arange(batch + 1)

    # spikes are logged one step at a time as the step and the flat indices
    # trial * size + neuron of the spiking cells
    log_steps: list[int] = []
    log_cells: list[np.ndarray] = []
    # the traced trial's (v, g, resource) after each step, the initial state first
    trace_rows = [(v[0].copy(), g[0].copy(), resource[0].copy())] if record_trace else None

    inv_tau_mem = dt / sim.tau_mem
    g_keep = 1.0 - dt / sim.tau_g
    kca_keep = 1.0 - dt / sim.kca_tau
    r_relax = dt / sim.tau_recovery

    for k in range(run_steps):
        t = k * dt

        g *= g_keep
        arrived = pending.pop(k, None)
        if arrived is not None:
            emitted.data, emitted.indices, emitted.indptr = arrived
            np.multiply(unit_inc, emitted @ weights, out=scratch)
            g += scratch
        hits = noise_cells[noise_bounds[k] : noise_bounds[k + 1]]
        np.add.at(g_flat, hits, flat_inc[hits])

        # drive = g * (e_syn - v) [+ g_kca * (kca_reversal - v)] [+ stimulus]
        np.subtract(sim.e_syn, v, out=drive)
        drive *= g
        if sim.kca_increment:
            g_kca *= kca_keep
            np.subtract(sim.kca_reversal, v, out=scratch)
            scratch *= g_kca
            drive += scratch
        if sim.onset <= t < stim_stop:
            drive += stim_current

        np.subtract(1.0, resource, out=scratch)
        scratch *= r_relax
        resource += scratch

        # v + inv_tau_mem * (e_leak - v + r_in * drive), then the refractory
        # cells back to v_reset, where they already sat
        drive *= sim.r_in
        np.subtract(sim.e_leak, v, out=scratch)
        scratch += drive
        scratch *= inv_tau_mem
        v += scratch
        while refractory and t >= refractory[0][0]:
            refractory.popleft()
        for _, clamped in refractory:
            v_flat[clamped] = sim.v_reset

        # a refractory cell sits at v_reset, below threshold, so cannot spike
        np.greater_equal(v, sim.v_threshold, out=spiked)
        cells = np.flatnonzero(spiked)
        if cells.size:
            log_steps.append(k)
            log_cells.append(cells)
            # cells are sorted, so each trial's spiking neurons form one CSR row
            trial, source = np.divmod(cells, size)
            indptr = np.searchsorted(trial, row_ids)
            pending[k + delay_steps + 1] = (resource_flat[cells], source, indptr)
            resource_flat[cells] *= sim.beta
            v_flat[cells] = sim.v_reset
            if sim.kca_increment:
                kca_flat[cells] += sim.kca_increment
            refractory.append(((k + 1) * dt + sim.refractory_ms, cells))

        if trace_rows is not None:
            trace_rows.append((v[0].copy(), g[0].copy(), resource[0].copy()))

    trace = None
    if trace_rows is not None:
        v_rows, g_rows, r_rows = (_readonly(np.stack(rows)) for rows in zip(*trace_rows))
        trace = TrialTrace(_readonly(np.arange(steps + 1) * dt), v_rows, g_rows, r_rows)

    # order the log by (trial, neuron); the stable sort keeps each neuron's steps in order
    cell_type = np.min_scalar_type(batch * size - 1)
    cells = np.concatenate([np.empty(0, cell_type), *log_cells], dtype=cell_type, casting="unsafe")
    spike_steps = np.repeat(np.array(log_steps, dtype=np.int32), [c.size for c in log_cells])
    log_cells.clear()
    spike_times = (spike_steps[np.argsort(cells, kind="stable")] + 1) * dt
    del spike_steps
    per_neuron = np.bincount(cells, minlength=batch * size).reshape(batch, size)
    del cells
    trial_bounds = np.concatenate(([0], np.cumsum(per_neuron.sum(axis=1))))
    return [
        SpikeRaster(
            times=spike_times[trial_bounds[b] : trial_bounds[b + 1]],
            offsets=np.concatenate(([0], np.cumsum(per_neuron[b]))),
            duration=duration,
            seed=seed,
            refractory_ms=sim.refractory_ms,
            trace=trace,
        )
        for b, seed in enumerate(seeds)
    ]


def write_raster_csv(raster: SpikeRaster, path, meta: dict | None = None) -> None:
    """neuron_id,spike_time_ms rows preceded by '#'-prefixed metadata lines."""
    metadata = [("nodes", raster.size), ("duration_ms", float(raster.duration)), ("seed", raster.seed),
                ("refractory_ms", float(raster.refractory_ms)), *sorted((meta or {}).items())]
    rows = [[f"# {key}={_cell(value)}"] for key, value in metadata]
    rows.append(("neuron_id", "spike_time_ms"))
    rows.extend((i, t) for i, times in enumerate(raster.spikes) for t in times)
    _write_csv(path, rows)
