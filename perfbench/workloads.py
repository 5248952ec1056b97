"""The benchmark's workloads: inputs from a seed, and their load drivers.

Both workloads serve through one :class:`AsyncServingEngine` configuration
(:data:`ENGINE`): the ``offline`` predictor scheduler probing the two most
frequent exit layers, exit threshold 0.3, batch capacity 16 and
shared-prefix paging.  They differ only in traffic and KV-pool size.

Load comes from this one process with no extra threads.  Every driver stamps
each output token with the wall clock at the end of the tick that produced
it, and times each request from its *due* time: the start of an offline
batch, or an open-loop schedule slot.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import DueClock, Timeline

__all__ = ["ENGINE", "Workload", "WORKLOADS", "Phase", "make_inputs",
           "build_engine", "warm_up", "run_phase", "reference_tokens"]

#: The engine configuration every workload serves with.
ENGINE = {
    "scheduler": "offline",
    "offline_top_k": 2,
    "exit_threshold": 0.3,
    "batch_capacity": 16,
    "block_size": 16,
    "prefix_share": True,
}


@dataclass(frozen=True)
class Workload:
    """One traffic mix (``BENCHMARK.json`` says why each was chosen): its
    KV-pool size, and the SLO limits that define ``slo_met_frac`` (TTFT, and
    mean TBT per request)."""

    name: str
    kv_blocks: int
    slo_ttft_ms: float
    slo_tbt_ms: float


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("offline_batch", kv_blocks=56, slo_ttft_ms=3000.0, slo_tbt_ms=25.0),
    Workload("chat_open_loop", kv_blocks=1024, slo_ttft_ms=60.0, slo_tbt_ms=10.0),
)}

# -- traffic shapes ----------------------------------------------------------
#: offline_batch: requests per batch and their output-length range.
OFFLINE_REQUESTS = 24
OFFLINE_NEW_TOKENS = (48, 96)
#: chat_open_loop: session-opening rate (low enough that the tails measure
#: prefill stalls rather than queueing), turns, and the two tenants'
#: system-prompt lengths (the ends of the 48-96 range, so the prefill load
#: does not hinge on two random draws per seed).  Short replies put about 4%
#: of the token gaps behind a prefill stall, so the TBT p99 falls inside the
#: stall mode instead of on its edge.
CHAT_RATE_PER_S = 2.0
CHAT_TURNS = 3
CHAT_SYSTEM_PROMPTS = (48, 96)
CHAT_NEW_TOKENS = (6, 16)
#: Requests served (untimed) before the timed phase to finish lazy set-up.
WARM_UP_REQUESTS = 4
#: Requests a phase that reports end-to-end tails must send: the closed loop
#: keeps serving past ``seconds`` until it has, and the open-loop schedule
#: holds at least this many, so a slow host still leaves 10 samples beyond
#: the TTFT p90.
MIN_REQUESTS = 102


def make_inputs(workload: Workload, seed: int, seconds: float, vocab: int,
                min_requests: int = MIN_REQUESTS):
    """The workload's requests, fully determined by ``seed`` (and, for the
    open loop, by the run length and request floor that size its schedule)."""
    from repro.data.corpus import generate_prompts
    from repro.serving import Request
    from repro.utils.rng import child_rng

    if workload.name == "offline_batch":
        prompts = generate_prompts(OFFLINE_REQUESTS, vocab, seed=seed)
        rng = child_rng(seed, "perfbench", "offline-lengths")
        lo, hi = OFFLINE_NEW_TOKENS
        return [Request(i, p, int(rng.integers(lo, hi + 1)))
                for i, p in enumerate(prompts)]
    return _chat_requests(seed, seconds, vocab, min_requests)


def _chat_requests(seed: int, seconds: float, vocab: int, min_requests: int):
    """Two tenants, each an independent Poisson stream of multi-turn
    sessions at half the rate over its own verbatim system prompt; merged,
    they are one Poisson stream at the full rate.

    Each stream is conditioned on its count: the session openings are
    rescaled so the last one lands at the expected span, which makes them
    the order statistics of uniform draws over a fixed window.  Every seed
    then offers the same load, and only the burst pattern varies.
    """
    from repro.serving.workloads import chat_trace

    sessions = max(-(-min_requests // CHAT_TURNS),
                   round(CHAT_RATE_PER_S * seconds))
    tenants = len(CHAT_SYSTEM_PROMPTS)
    per_tenant = -(-sessions // tenants)
    rate = CHAT_RATE_PER_S / tenants
    merged = []
    for tenant, length in enumerate(CHAT_SYSTEM_PROMPTS):
        trace = chat_trace(
            per_tenant, vocab, tenants=1, turns=CHAT_TURNS, rate_per_s=rate,
            system_prompt_range=(length, length),
            max_new_tokens_range=CHAT_NEW_TOKENS, slo_scale=None,
            seed=seed * tenants + tenant)
        opening = {r.session_id: r.arrival_s for r in trace if r.turn == 0}
        scale = (per_tenant - 1) / rate / max(max(opening.values()), 1e-9)
        merged.extend(dataclasses.replace(
            r, tenant_id=tenant, session_id=tenant * per_tenant + r.session_id,
            arrival_s=r.arrival_s + opening[r.session_id] * (scale - 1.0))
            for r in trace)
    merged.sort(key=lambda r: (r.arrival_s, r.session_id, r.turn))
    return [dataclasses.replace(r, request_id=i) for i, r in enumerate(merged)]


def _config():
    from repro.config import SpecEEConfig

    return SpecEEConfig(scheduler=ENGINE["scheduler"],
                        exit_threshold=ENGINE["exit_threshold"])


def build_engine(rig, workload: Workload):
    """The :class:`AsyncServingEngine` the workload drives."""
    return rig.async_serving_engine(
        ENGINE["scheduler"], _config(), ENGINE["offline_top_k"],
        batch_capacity=ENGINE["batch_capacity"], kv_blocks=workload.kv_blocks,
        block_size=ENGINE["block_size"], prefix_share=ENGINE["prefix_share"])


def reference_tokens(rig, requests) -> Dict[Tuple[Tuple[int, ...], int], List[int]]:
    """Batch-1 ``SpecEEEngine.generate`` output of every distinct
    (prompt, budget): what every served request must reproduce."""
    engine = rig.specee_engine(ENGINE["scheduler"], _config(),
                               ENGINE["offline_top_k"])
    out = {}
    for request in requests:
        key = (tuple(request.prompt), request.max_new_tokens)
        if key not in out:
            out[key] = engine.generate(request.prompt, request.max_new_tokens).tokens
    return out


@dataclass
class Phase:
    """What one timed phase served, on its own wall clock (0 = phase start)."""

    name: str
    timeline: Timeline = field(default_factory=Timeline)
    wall_s: float = 0.0
    sent: int = 0
    rounds: int = 0
    #: request id -> (prompt, budget) key into the reference, and its tokens.
    keys: Dict[int, Tuple[Tuple[int, ...], int]] = field(default_factory=dict)
    tokens: Dict[int, List[int]] = field(default_factory=dict)
    #: StepRecord sums over every served token.
    steps: int = 0
    early_exits: int = 0
    layers: int = 0
    predictor_evals: int = 0
    verify_attempts: int = 0
    #: Open loop only: how late the generator sent each request.
    lags_s: List[float] = field(default_factory=list)
    #: Due time -> first seen in ``running``.
    queue_wait_s: List[float] = field(default_factory=list)
    reports: list = field(default_factory=list)
    #: Rows per decode tick, for the batch-size metric.
    occupancy: List[int] = field(default_factory=list)
    #: Open loop only: wall time spent waiting for the next due request.
    idle_s: float = 0.0

    def open(self, request, due_s: float) -> None:
        self.sent += 1
        self.keys[request.request_id] = (tuple(request.prompt),
                                         request.max_new_tokens)
        self.timeline.open(request.request_id, due_s)

    def close(self, rid: int, result) -> None:
        self.tokens[rid] = list(result.tokens)
        for record in result.records:
            self.steps += 1
            self.early_exits += record.early_exit
            self.layers += record.exit_layer + 1
            self.predictor_evals += record.predictor_evals
            self.verify_attempts += record.verify_attempts

    @property
    def succeeded(self) -> int:
        return len(self.tokens)

    @property
    def failed(self) -> int:
        """Requests sent but never served (rejected or unfinished)."""
        return self.sent - self.succeeded

    @property
    def busy_s(self) -> float:
        """Wall time the engine had work: the phase minus open-loop idling."""
        return self.wall_s - self.idle_s

    @property
    def output_tokens(self) -> int:
        return sum(len(t) for t in self.tokens.values())


class _TickWatcher:
    """Per-tick bookkeeping over the serving engine's public state: token
    stamps, first-seen-running times, finished results."""

    def __init__(self, phase: Phase, server):
        self.phase, self.server = phase, server
        self.seen_running = set()

    def after_tick(self, finished, now_s: float) -> None:
        results = self.server.report.results
        served = [(slot.request_id, slot.result) for slot in self.server.running]
        served += [(m.request_id, results[m.request_id]) for m in finished]
        timeline = self.phase.timeline
        for rid, result in served:
            timeline.stamp(rid, len(result.tokens), now_s)
            if rid not in self.seen_running:
                self.seen_running.add(rid)
                self.phase.queue_wait_s.append(now_s - timeline.due_s[rid])
        for metric in finished:
            self.phase.close(metric.request_id, results[metric.request_id])

    def seal(self) -> None:
        report = self.server.finish_report()
        self.phase.occupancy.extend(n for n in report.batch_occupancy if n)
        report.results.clear()  # tokens already copied; drop the records
        self.phase.reports.append(report)


def _run_offline_batch(server, requests, seconds, min_requests, tracer,
                       instrument, phase) -> None:
    clock = time.perf_counter
    t0 = clock()
    while clock() - t0 < seconds or phase.sent < min_requests:
        base = phase.rounds * len(requests)
        batch = [dataclasses.replace(r, request_id=base + r.request_id)
                 for r in requests]
        start = clock() - t0
        for request in batch:
            phase.open(request, start)
            if tracer is not None:
                tracer.rid_of_prompt[id(request.prompt)] = request.request_id
        server.begin(batch)
        if instrument is not None:
            instrument(server)
        watcher = _TickWatcher(phase, server)
        while server.has_work:
            finished = server.advance_tick()
            watcher.after_tick(finished, clock() - t0)
        watcher.seal()
        phase.rounds += 1
    phase.wall_s = clock() - t0


def _run_open_loop(server, requests, tracer, instrument, phase) -> None:
    clock = time.perf_counter
    due = DueClock([r.arrival_s for r in requests])
    server.begin([])
    if instrument is not None:
        instrument(server)
    watcher = _TickWatcher(phase, server)
    t0 = clock()
    while not due.exhausted or server.has_work:
        for index, _lag in due.release(clock() - t0):
            request = requests[index]
            phase.open(request, request.arrival_s)
            # Admission runs on the engine's modelled clock; arrival 0 makes
            # the request visible at the very next tick.
            submitted = dataclasses.replace(request, arrival_s=0.0)
            if tracer is not None:
                tracer.rid_of_prompt[id(submitted.prompt)] = request.request_id
            server.submit(submitted)
        if server.has_work:
            finished = server.advance_tick()
            watcher.after_tick(finished, clock() - t0)
        elif due.next_due_s is not None:
            idle_from = clock()
            time.sleep(max(0.0, due.next_due_s - (idle_from - t0)))
            phase.idle_s += clock() - idle_from
    phase.wall_s = clock() - t0
    phase.lags_s = due.lags_s
    phase.rounds = 1
    watcher.seal()


def run_phase(name: str, workload: Workload, target, requests,
              seconds: float, min_requests: int = MIN_REQUESTS, tracer=None,
              instrument: Optional[Callable] = None) -> Phase:
    """Serve ``requests`` on ``target`` for about ``seconds``: the offline
    loop finishes the batch in flight and keeps going until ``min_requests``
    were sent; the open loop serves its whole schedule.
    ``instrument(server)`` runs after every ``begin``."""
    phase = Phase(name)
    if workload.name == "offline_batch":
        _run_offline_batch(target, requests, seconds, min_requests, tracer,
                           instrument, phase)
    else:
        _run_open_loop(target, requests, tracer, instrument, phase)
    return phase


def warm_up(target, requests: Sequence) -> None:
    """Serve a few short requests untimed so lazy set-up (first-call numpy
    paths, extractor pools, cache growth) is paid before timing."""
    target.run([dataclasses.replace(r, request_id=i, arrival_s=0.0,
                                    max_new_tokens=min(8, r.max_new_tokens))
                for i, r in enumerate(requests[:WARM_UP_REQUESTS])])
