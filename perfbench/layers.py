"""Traced run: which calls are timed, and the per-layer metrics they yield.

Layers are the program's modules: ``async_engine`` (serving tick),
``core`` (SpecEEEngine), ``model`` (the TransformerLayeredLM adapter and the
TinyTransformerLM inside it, named ``lm.*``), ``predictor``, ``verify``,
``draft``, ``paged_kv``, ``pricing`` (LatencyModel) and ``ledger``
(CostLedger), plus the benchmark's own ``loadgen`` and ``trace`` health.
Every metric is reported on every workload; a layer a workload never calls
reads 0.  The serving engine decodes through ``SpecEEEngine.step_batch`` on
this backend, so only the batched model surface and the per-sequence calls
made from it (draft, verify and its full LM head) are timed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from spans import Tracer, child_time, fold
from stats import nearest_rank

__all__ = ["PER_LAYER", "instrument_engine", "instrument_server",
           "layer_metrics"]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("async_engine.tick_ms_p50", "ms", "lower"),
    ("async_engine.tick_ms_p99", "ms", "lower"),
    ("async_engine.self_ms_per_tick", "ms", "lower"),
    ("async_engine.batch_size_mean", "count", "higher"),
    ("async_engine.queue_wait_ms_p50", "ms", "lower"),
    ("async_engine.preemptions", "count", "lower"),
    ("async_engine.swaps", "count", "lower"),
    ("async_engine.recomputes", "count", "lower"),
    ("core.self_us_per_token", "us", "lower"),
    ("core.exit_rate", "fraction", "higher"),
    ("core.layers_per_token", "count", "lower"),
    ("core.predictor_evals_per_token", "count", "lower"),
    ("core.verify_success_rate", "fraction", "higher"),
    ("model.prefill_us_per_token", "us", "lower"),
    ("model.prefill_share", "fraction", "lower"),
    ("model.layer_us_per_row", "us", "lower"),
    ("model.layer_share", "fraction", "lower"),
    ("model.layer_gflops", "GFLOP/s", "higher"),
    ("model.lm_head_slice_us_per_call", "us", "lower"),
    ("model.lm_head_full_us_per_call", "us", "lower"),
    ("model.kv_fill_us_per_token", "us", "lower"),
    ("model.adapter_self_us_per_call", "us", "lower"),
    ("model.swap_ms_total", "ms", "lower"),
    ("model.swap_mb", "MB", "lower"),
    ("model.recompute_ms_total", "ms", "lower"),
    ("predictor.us_per_call", "us", "lower"),
    ("predictor.share", "fraction", "lower"),
    ("verify.us_per_call", "us", "lower"),
    ("draft.us_per_token", "us", "lower"),
    ("paged_kv.us_per_tick", "us", "lower"),
    ("paged_kv.prefix_hit_rate", "fraction", "higher"),
    ("paged_kv.peak_blocks_frac", "fraction", "lower"),
    ("paged_kv.cow_copies", "count", "lower"),
    ("pricing.us_per_tick", "us", "lower"),
    ("ledger.us_per_tick", "us", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.succeeded", "count", "higher"),
    ("loadgen.failed", "count", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
]

MODEL_METHODS = (
    "start", "lm_head_full", "begin_step_batch", "layer_forward_batch",
    "lm_head_full_batch", "lm_head_slice_batch", "commit_batch",
    "swap_out_state", "swap_in_state", "drop_state_kv", "recompute_state")
LM_METHODS = ("embed", "layer_forward", "layer_decode_batch", "layer_kv_fill",
              "lm_head", "lm_head_slice", "forward_all", "new_cache")
PAGED_KV_METHODS = ("prefill_prompt", "add_sequence", "append",
                    "append_needs_block", "swap_out", "swap_in",
                    "evict_prefix_leaves", "free_sequence")
LM_HEAD_FULL_SPANS = ("model.lm_head_full", "model.lm_head_full_batch")


def layer_flops(cfg, context: int) -> float:
    """FLOPs of one decoder layer for one row at ``context`` tokens, from the
    config shapes: Q/K/V and output projections, SwiGLU FFN (three
    matrices), and attention scores plus weighted values over the context."""
    d, inter = cfg.dim, cfg.intermediate_dim
    kv = d * (cfg.n_kv_heads or cfg.n_heads) // cfg.n_heads
    return 2.0 * d * (d + 2 * kv) + 2.0 * d * d + 6.0 * d * inter + 4.0 * d * context


def _rid_list(tracer: Tracer):
    """Request ids of a call whose first argument is a list of states."""
    table = tracer.rid_of_state
    return lambda args, _out: [table.get(id(s)) for s in args[0]]


def _rid_one(tracer: Tracer):
    """Request id of a call whose first argument is one state."""
    table = tracer.rid_of_state
    return lambda args, _out: [table.get(id(args[0]))]


def _kv_bytes(state) -> int:
    """Bytes of the filled float64 K and V tensors of a state's cache."""
    cache = state.cache
    return (2 * cache.n_layers * cache.n_kv_heads * cache.length(0)
            * cache.head_dim * 8)


def instrument_engine(tracer: Tracer, engine) -> None:
    """Time the calls into one SpecEEEngine and everything below it: the
    model adapter, its TinyTransformerLM, the predictor bank, the draft,
    ``verify_exit`` and the CostLedger methods."""
    import repro.core.engine as core_engine
    from repro.hardware.ledger import CostLedger

    model, cfg = engine.model, engine.model.cfg
    prompts, states = tracer.rid_of_prompt, tracer.rid_of_state

    def prefill_rids(args, out):
        rid = prompts.get(id(args[0]))
        states[id(out[0])] = rid
        return [rid]

    def count_layer(counters, args):
        rows = args[0]
        counters["layer_rows"] += len(rows)
        flops = sum(layer_flops(cfg, len(s.context)) for s in rows)
        counters["layer_flops"] += flops

    def count_prefill(counters, args):
        counters["prefill_tokens"] += len(args[0])

    def count_commit(counters, args):
        counters["commit_tokens"] += len(args[0])

    def count_swap(counters, args):
        # Counted at swap-out, for the trip out to the host and back in.
        counters["swap_bytes"] += 2 * _kv_bytes(args[0])

    tracer.wrap(engine, "prefill", "core.prefill", rids=prefill_rids)
    tracer.wrap(engine, "step_batch", "core.step_batch", rids=_rid_list(tracer))
    tracer.wrap(engine, "finish", "core.finish", rids=_rid_one(tracer))
    special = {
        "start": dict(rids=lambda a, o: [prompts.get(id(a[0]))], count=count_prefill),
        "layer_forward_batch": dict(rids=_rid_list(tracer), count=count_layer),
        "commit_batch": dict(rids=_rid_list(tracer), count=count_commit),
        "swap_out_state": dict(rids=_rid_one(tracer), count=count_swap),
        "swap_in_state": dict(rids=_rid_one(tracer)),
        "drop_state_kv": dict(rids=_rid_one(tracer)),
        "recompute_state": dict(rids=_rid_one(tracer)),
    }
    for method in MODEL_METHODS:
        tracer.wrap(model, method, f"model.{method}", **special.get(method, {}))
    for method in LM_METHODS:
        tracer.wrap(model.lm, method, f"lm.{method}")
    tracer.wrap(engine.predictors, "probability_batch", "predictor.probability_batch")
    tracer.wrap(engine.speculator, "propose", "draft.propose")
    tracer.wrap(engine.speculator, "is_hit", "draft.is_hit")
    tracer.patch(core_engine, "verify_exit", "verify.verify_exit")
    for method in ("snapshot", "delta_since", "merge"):
        tracer.patch(CostLedger, method, f"ledger.{method}")


def instrument_server(tracer: Tracer, server) -> None:
    """Time the serving tick and its pricing model (once per run)."""
    def tick_rids(_args, finished):
        return ([s.request_id for s in server.running]
                + [m.request_id for m in finished])

    tracer.wrap(server, "advance_tick", "async_engine.advance_tick", rids=tick_rids)
    tracer.wrap(server.latency, "price", "pricing.price")


def instrument_cache(tracer: Tracer, server) -> None:
    """Time the paged KV cache; ``begin`` builds a fresh one every run, so
    this runs after each ``begin``."""
    def seq_rid(args, _out):
        return [args[0]]

    for method in PAGED_KV_METHODS:
        tracer.wrap(server.cache, method, f"paged_kv.{method}",
                    rids=None if method == "evict_prefix_leaves" else seq_rid)


def _sum(agg: Dict[str, List[float]], names, column: int = 1) -> float:
    return sum(agg[n][column] for n in names if n in agg)


def _calls(agg: Dict[str, List[float]], names) -> int:
    return int(sum(agg[n][0] for n in names if n in agg))


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, phase, untraced_tps: float,
                  kv_blocks: Optional[int]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced phase."""
    spans = tracer.spans
    agg = fold(spans)
    counters = tracer.counters
    tick = "async_engine.advance_tick"
    work_s = _sum(agg, [tick])  # every share is of the ticks' wall time
    ticks = _calls(agg, [tick])
    tokens = phase.steps
    rounds = max(1, phase.rounds)
    reports = phase.reports
    tick_ms = [(s[2] - s[1]) * 1e3 for s in spans
               if s is not None and s[0] == tick]
    model_spans = [n for n in agg if n.startswith("model.")]
    tick_total, tick_covered = child_time(spans, tick)
    traced_tps = _per(phase.output_tokens, phase.busy_s)
    prefix = [r.prefix_hit_rate for r in reports
              if r.prefix_hit_rate == r.prefix_hit_rate]  # drop NaN
    return {
        "async_engine.tick_ms_p50": nearest_rank(tick_ms, 50),
        "async_engine.tick_ms_p99": nearest_rank(tick_ms, 99),
        "async_engine.self_ms_per_tick": _per(_sum(agg, [tick], 2) * 1e3, ticks),
        "async_engine.batch_size_mean": _per(sum(phase.occupancy), len(phase.occupancy)),
        "async_engine.queue_wait_ms_p50": nearest_rank(phase.queue_wait_s, 50) * 1e3,
        "async_engine.preemptions": _per(sum(r.preemptions for r in reports), rounds),
        "async_engine.swaps": _per(sum(r.swaps for r in reports), rounds),
        "async_engine.recomputes": _per(sum(r.recomputes for r in reports), rounds),
        "core.self_us_per_token": _per(
            _sum(agg, ["core.step_batch"], 2) * 1e6, tokens),
        "core.exit_rate": _per(phase.early_exits, tokens),
        "core.layers_per_token": _per(phase.layers, tokens),
        "core.predictor_evals_per_token": _per(phase.predictor_evals, tokens),
        "core.verify_success_rate": _per(phase.early_exits, phase.verify_attempts),
        "model.prefill_us_per_token": _per(
            _sum(agg, ["model.start"]) * 1e6, counters.get("prefill_tokens", 0)),
        "model.prefill_share": _per(_sum(agg, ["model.start"]), work_s),
        "model.layer_us_per_row": _per(
            _sum(agg, ["model.layer_forward_batch"]) * 1e6,
            counters.get("layer_rows", 0)),
        "model.layer_share": _per(_sum(agg, ["model.layer_forward_batch"]), work_s),
        "model.layer_gflops": _per(counters.get("layer_flops", 0.0) / 1e9,
                                   _sum(agg, ["model.layer_forward_batch"])),
        "model.lm_head_slice_us_per_call": _per(
            _sum(agg, ["model.lm_head_slice_batch"]) * 1e6,
            _calls(agg, ["model.lm_head_slice_batch"])),
        "model.lm_head_full_us_per_call": _per(
            _sum(agg, LM_HEAD_FULL_SPANS) * 1e6, _calls(agg, LM_HEAD_FULL_SPANS)),
        "model.kv_fill_us_per_token": _per(
            _sum(agg, ["model.commit_batch"]) * 1e6,
            counters.get("commit_tokens", 0)),
        "model.adapter_self_us_per_call": _per(
            _sum(agg, model_spans, 2) * 1e6, _calls(agg, model_spans)),
        "model.swap_ms_total": _per(
            _sum(agg, ["model.swap_out_state", "model.swap_in_state"]) * 1e3, rounds),
        "model.swap_mb": _per(counters.get("swap_bytes", 0) / 1e6, rounds),
        "model.recompute_ms_total": _per(
            _sum(agg, ["model.recompute_state"]) * 1e3, rounds),
        "predictor.us_per_call": _per(
            _sum(agg, ["predictor.probability_batch"]) * 1e6,
            _calls(agg, ["predictor.probability_batch"])),
        "predictor.share": _per(_sum(agg, ["predictor.probability_batch"]), work_s),
        "verify.us_per_call": _per(_sum(agg, ["verify.verify_exit"]) * 1e6,
                                   _calls(agg, ["verify.verify_exit"])),
        "draft.us_per_token": _per(
            _sum(agg, ["draft.propose", "draft.is_hit"]) * 1e6, tokens),
        "paged_kv.us_per_tick": _per(
            _sum(agg, [f"paged_kv.{m}" for m in PAGED_KV_METHODS]) * 1e6, ticks),
        "paged_kv.prefix_hit_rate": _per(sum(prefix), len(prefix)),
        "paged_kv.peak_blocks_frac": _per(
            max((r.peak_kv_blocks for r in reports), default=0), kv_blocks or 0),
        "paged_kv.cow_copies": _per(sum(r.cow_copies for r in reports), rounds),
        "pricing.us_per_tick": _per(_sum(agg, ["pricing.price"]) * 1e6, ticks),
        "ledger.us_per_tick": _per(
            _sum(agg, ["ledger.snapshot", "ledger.delta_since", "ledger.merge"]) * 1e6,
            ticks),
        "loadgen.lag_p99_ms": nearest_rank(phase.lags_s, 99) * 1e3,
        "loadgen.sent": float(phase.sent),
        "loadgen.succeeded": float(phase.succeeded),
        "loadgen.failed": float(phase.failed),
        "trace.coverage": _per(tick_covered, tick_total),
        "trace.overhead_frac": 1.0 - _per(traced_tps, untraced_tps) if untraced_tps else 0.0,
    }
