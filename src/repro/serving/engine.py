"""The throughput-oriented serving engine: many requests, one SpecEE engine.

:class:`ServingEngine` owns the paged KV pool, the admission policy and the
continuous-batch scheduler; :meth:`run` drains a request list and returns a
:class:`ServingReport` with per-request :class:`GenerationResult`\\ s,
queue/latency metrics (in scheduler steps) and two cost ledgers:

* ``sequential_ledger`` — the merge of every request's own ledger, i.e. what
  serving the same workload one request at a time would cost, and
* ``serving_ledger`` — the same events with per-sequence ``DECODER_LAYER``
  calls replaced by shared ``BATCH_DECODER_LAYER`` executions (one weight
  pass per layer per tick serves every sequence still alive at that depth).

Pricing both through the roofline :class:`~repro.hardware.latency.LatencyModel`
yields the modelled continuous-batching speedup; because single-stream decode
is weight-bandwidth-bound, sharing the weight pass across the batch is where
vLLM-style serving throughput comes from.

Handing the engine a :class:`~repro.distributed.ClusterSpec` runs the same
requests on a modelled ``tp x pp`` cluster: decode ticks are micro-batched
and ledgered with ``ALLREDUCE``/``PIPELINE_BUBBLE`` events
(:mod:`repro.distributed.sharding`), paged-KV blocks are owned per pipeline
stage (:class:`~repro.distributed.ShardedPagedKV`), and
:meth:`ServingReport.priced_speedup` prices the sharded ledger through
:class:`~repro.distributed.ClusterLatencyModel`.  Sharding repartitions
cost across devices — tokens are identical to the single-device run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.engine import GenerationResult, SpecEEEngine
from repro.core.scheduling import Scheduler, make_scheduler
from repro.hardware.ledger import CostLedger, Event
from repro.serving.paged_kv import PagedKVCache
from repro.serving.request import AdmissionPolicy, Request
from repro.serving.scheduler import ContinuousBatchScheduler

__all__ = [
    "RequestMetrics", "ServingReport", "ServingEngine",
    "build_paged_cache", "default_scheduler_factory",
]


def build_paged_cache(
    engine: SpecEEEngine, kv_blocks: int, block_size: int,
    n_kv_heads: Optional[int] = None, n_stages: int = 1,
    prefix_share: bool = False,
) -> Union[PagedKVCache, "ShardedPagedKV"]:
    """Paged cache sized so one KV entry covers the engine's hidden state.

    With ``n_stages > 1`` the cache is a per-pipeline-stage
    :class:`~repro.distributed.ShardedPagedKV` of ``kv_blocks`` blocks *per
    stage device*; otherwise a single-pool :class:`PagedKVCache`.
    ``prefix_share`` enables the copy-on-write shared-prefix radix tree
    (prompts become paged and reusable across requests).
    """
    hidden = engine.model.hidden_dim
    if n_kv_heads is None:
        n_kv_heads = 4 if hidden % 4 == 0 else 1
    if hidden % n_kv_heads != 0:
        raise ValueError(f"n_kv_heads={n_kv_heads} must divide hidden_dim={hidden}")
    if n_stages > 1:
        from repro.distributed.paged import ShardedPagedKV

        return ShardedPagedKV(
            n_stages=n_stages, n_blocks=kv_blocks, block_size=block_size,
            n_kv_heads=n_kv_heads, head_dim=hidden // n_kv_heads,
            prefix_share=prefix_share,
        )
    return PagedKVCache(
        n_blocks=kv_blocks, block_size=block_size,
        n_kv_heads=n_kv_heads, head_dim=hidden // n_kv_heads,
        prefix_share=prefix_share,
    )


def default_scheduler_factory(engine: SpecEEEngine) -> Callable[[], Scheduler]:
    """Fresh per-sequence predictor schedulers matching the engine config."""
    cfg = engine.config
    return lambda: make_scheduler(
        cfg.scheduler, engine.model.n_layers,
        window=cfg.context_window, vicinity=cfg.layer_vicinity,
    )


@dataclass
class RequestMetrics:
    """Queueing/latency accounting for one request, in scheduler steps."""

    request_id: int
    submitted_step: int
    admitted_step: int
    finished_step: int
    tokens: int

    @property
    def queue_wait_steps(self) -> int:
        """Steps spent queued before admission."""
        return self.admitted_step - self.submitted_step

    @property
    def latency_steps(self) -> int:
        """End-to-end steps from submission to the final token."""
        return self.finished_step - self.submitted_step + 1


@dataclass
class ServingReport:
    """Outcome of one :meth:`ServingEngine.run`."""

    results: Dict[int, GenerationResult] = field(default_factory=dict)
    metrics: Dict[int, RequestMetrics] = field(default_factory=dict)
    serving_ledger: CostLedger = field(default_factory=CostLedger)
    sequential_ledger: CostLedger = field(default_factory=CostLedger)
    n_steps: int = 0
    batch_occupancy: List[int] = field(default_factory=list)
    peak_kv_blocks: int = 0
    tick_layer_batches: List[List[int]] = field(default_factory=list)
    cluster: Optional[object] = None  # ClusterSpec when the run was sharded
    wall_time_s: float = 0.0  # measured host seconds spent inside run()
    prefix_share: bool = False  # whether prompts were paged through the radix tree
    prefix_matched_tokens: int = 0  # prompt tokens adopted from shared blocks
    prefix_hit_rate: float = float("nan")  # matched / prefix-prefilled prompt tokens
    cow_copies: int = 0  # copy-on-write clones triggered by divergent writes

    @property
    def total_tokens(self) -> int:
        """Tokens generated across every served request."""
        return sum(len(r.tokens) for r in self.results.values())

    @property
    def measured_tps(self) -> float:
        """Measured wall-clock tokens/s of this run (stopwatch, not model).

        Only meaningful for real backends, where decode executes genuine
        array math; for the synthetic backend it just times the simulation.
        Modelled throughput lives in :meth:`priced_speedup` — reports quote
        the two side by side.
        """
        if self.wall_time_s <= 0.0:
            return float("nan")
        return self.total_tokens / self.wall_time_s

    @property
    def avg_batch_occupancy(self) -> float:
        """Mean live sequences per scheduler tick."""
        if not self.batch_occupancy:
            return float("nan")
        return float(np.mean(self.batch_occupancy))

    @property
    def mean_queue_wait_steps(self) -> float:
        """Mean steps a request waited in the queue before admission."""
        if not self.metrics:
            return float("nan")
        return float(np.mean([m.queue_wait_steps for m in self.metrics.values()]))

    @property
    def mean_latency_steps(self) -> float:
        """Mean end-to-end request latency in scheduler steps."""
        if not self.metrics:
            return float("nan")
        return float(np.mean([m.latency_steps for m in self.metrics.values()]))

    def p95_latency_steps(self) -> float:
        """95th-percentile end-to-end request latency in scheduler steps."""
        if not self.metrics:
            return float("nan")
        return float(np.percentile([m.latency_steps for m in self.metrics.values()], 95))

    def sharded_ledger(self, cluster) -> CostLedger:
        """Serving ledger re-cut for ``cluster`` from the recorded per-tick
        layer batches — one run can therefore be priced on many candidate
        cluster shapes (how the scaling benchmark sweeps TP x PP)."""
        from repro.distributed.sharding import shard_serving_ledger

        return shard_serving_ledger(
            self.sequential_ledger, self.tick_layer_batches, self.n_steps, cluster,
        )

    def priced_speedup(self, model_spec, device: str, framework: str,
                       cpu_device: Optional[str] = None,
                       cluster=None) -> Dict[str, float]:
        """Modelled tokens/s of continuous batching vs sequential serving.

        With ``cluster`` set, the serving side is re-sharded for that cluster
        and priced by :class:`~repro.distributed.ClusterLatencyModel`; the
        sequential side always prices single-device (``device``), so the
        speedup reads as "this cluster vs one-at-a-time on one device".
        """
        from repro.hardware.latency import LatencyModel

        latency = LatencyModel(model_spec, device, framework, cpu_device=cpu_device)
        if cluster is None:
            cluster = self.cluster
        if cluster is not None and not cluster.is_single:
            from repro.distributed.latency import ClusterLatencyModel

            serving_model = ClusterLatencyModel(
                model_spec, cluster, framework, cpu_device=cpu_device)
            serving = serving_model.price(self.sharded_ledger(cluster))
        else:
            serving = latency.price(self.serving_ledger)
        sequential = latency.price(self.sequential_ledger)
        return {
            "serving_tps": serving.tokens_per_second,
            "sequential_tps": sequential.tokens_per_second,
            "speedup": serving.tokens_per_second / sequential.tokens_per_second
            if sequential.tokens_per_second > 0 else float("nan"),
        }


class ServingEngine:
    """Continuous-batching front-end over one :class:`SpecEEEngine`."""

    def __init__(
        self,
        engine: SpecEEEngine,
        batch_capacity: int = 8,
        kv_blocks: int = 256,
        block_size: int = 16,
        n_kv_heads: Optional[int] = None,
        scheduler_factory: Optional[Callable[[], Scheduler]] = None,
        cluster=None,
        prefix_share: bool = False,
    ):
        """Build the server; ``cluster`` (a ``ClusterSpec``) shards the run.

        ``kv_blocks`` is per device: under pipeline parallelism each stage
        owns its own pool of that size (:func:`build_paged_cache`).
        ``prefix_share`` pages prompts through the copy-on-write radix tree:
        admissions adopt previously seen prefixes and the serving ledger
        charges only the unmatched prefill suffix (plus ``PREFIX_REUSE``
        adoption overhead) — tokens are identical either way.
        """
        self.engine = engine
        self.prefix_share = bool(prefix_share)
        self.cluster = cluster if cluster is not None and not cluster.is_single else None
        if self.cluster is not None:
            self.cluster.stage_layers(engine.model.n_layers)  # pp <= n_layers
        n_stages = self.cluster.pp if self.cluster is not None else 1
        self.cache = build_paged_cache(engine, kv_blocks, block_size, n_kv_heads,
                                       n_stages=n_stages,
                                       prefix_share=self.prefix_share)
        self.policy = AdmissionPolicy(
            n_blocks=kv_blocks, block_size=block_size, batch_capacity=batch_capacity,
            prefix_share=self.prefix_share,
        )
        if scheduler_factory is None:
            scheduler_factory = default_scheduler_factory(engine)
        self.scheduler_factory = scheduler_factory

    def run(self, requests: Sequence[Request]) -> ServingReport:
        """Serve ``requests`` to completion with continuous batching.

        Besides the modelled ledgers, the report carries the measured wall
        time of the serve loop (``wall_time_s`` / ``measured_tps``) so real
        backends report stopwatch throughput next to the priced one.
        """
        start_time = time.perf_counter()
        scheduler = ContinuousBatchScheduler(
            self.engine, self.cache, self.policy, self.scheduler_factory,
        )
        for request in requests:
            scheduler.submit(request)
        report = ServingReport(cluster=self.cluster)
        while scheduler.has_work:
            outcome = scheduler.tick()
            report.batch_occupancy.append(outcome.occupancy)
            report.peak_kv_blocks = max(report.peak_kv_blocks, outcome.kv_blocks_in_use)
            report.tick_layer_batches.append(outcome.layer_batches())
            for slot in outcome.retired:
                report.results[slot.request.request_id] = slot.result
                report.metrics[slot.request.request_id] = RequestMetrics(
                    request_id=slot.request.request_id,
                    submitted_step=0,
                    admitted_step=slot.admitted_step,
                    finished_step=slot.finished_step,
                    tokens=len(slot.result.tokens),
                )
        report.n_steps = scheduler.step_count
        report.wall_time_s = time.perf_counter() - start_time
        for result in report.results.values():
            report.sequential_ledger.merge(result.ledger)
        if self.cluster is not None:
            report.serving_ledger = report.sharded_ledger(self.cluster)
        else:
            report.serving_ledger = _rebatch_ledger(
                report.sequential_ledger, report.tick_layer_batches, report.n_steps,
            )
        if self.prefix_share:
            report.prefix_share = True
            report.prefix_matched_tokens = scheduler.prefix_matched_tokens
            report.prefix_hit_rate = self.cache.prefix_hit_rate()
            report.cow_copies = self.cache.cow_copies
            self._credit_prefix_reuse(report.serving_ledger,
                                      scheduler.prefix_hits,
                                      scheduler.prefix_matched_tokens)
        return report

    def _credit_prefix_reuse(self, ledger: CostLedger, hits: int,
                             matched: int) -> None:
        """Re-price the serving ledger for adopted prefixes.

        Each request's own ledger charges its full prompt prefill (the
        honest sequential comparison), but the *serving* side skipped the
        matched tokens: their ``PREFILL_LAYER`` units are credited back and
        a ``PREFIX_REUSE`` adoption charge is added instead.  Cluster runs
        keep their prefill collectives uncredited — a conservative bound.
        """
        if matched <= 0:
            return
        n_layers = self.engine.model.n_layers
        calls = ledger.calls(Event.PREFILL_LAYER)
        units = ledger.units(Event.PREFILL_LAYER) - n_layers * matched
        ledger.drop(Event.PREFILL_LAYER)
        if calls:
            ledger.add(Event.PREFILL_LAYER, calls=calls, units=max(units, 0.0))
        ledger.add(Event.PREFIX_REUSE, calls=hits, units=matched)


def _rebatch_ledger(
    merged: CostLedger, tick_batches: Sequence[Sequence[int]], n_steps: int
) -> CostLedger:
    """Serving-side ledger: every per-sequence event except the decoder
    layers, which are replaced by their shared batched executions.  The
    batched token-layer count must equal the per-sequence layer-call count —
    batching shares weight traffic, it never skips work."""
    batched_calls = sum(len(b) for b in tick_batches)
    batched_units = sum(sum(b) for b in tick_batches)
    if batched_units != merged.calls(Event.DECODER_LAYER):
        raise AssertionError(
            f"batched layer-tokens {batched_units} != per-sequence layer calls "
            f"{merged.calls(Event.DECODER_LAYER)}"
        )
    out = CostLedger()
    for kind in merged.kinds():
        if kind == Event.DECODER_LAYER:
            continue
        out.add(kind, calls=merged.calls(kind), units=merged.units(kind))
    if batched_calls:
        out.add(Event.BATCH_DECODER_LAYER, calls=batched_calls, units=batched_units)
    out.tokens_generated = merged.tokens_generated
    out.prompt_tokens = merged.prompt_tokens
    out.steps = n_steps
    return out
