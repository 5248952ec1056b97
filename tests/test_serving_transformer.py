"""Real-transformer serving: batched decode must reproduce per-request
``SpecEEEngine.generate`` (the same decode step on a batch of one) token for
token — across ragged prompt lengths, per-sequence early exits with KV
hidden-state propagation, and sequences retiring mid-batch — while measuring
wall-clock throughput."""

import numpy as np
import pytest

from repro.cli import main
from repro.config import SpecEEConfig, get_model_spec
from repro.distributed.cluster import make_cluster
from repro.hardware.ledger import Event
from repro.nn.attention import KVCache
from repro.serving import Request

# Unverified-exit ablation with a permissive threshold: the untrained-oracle
# draft rarely survives verification on random weights, so this config is how
# the tests exercise *frequent* per-sequence early exits deterministically.
EXITY_CFG = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                         scheduler="all", verify_on_exit=False)


@pytest.fixture
def rig(small_transformer_rig):
    """Alias onto the shared session-scoped rig (see tests/conftest.py)."""
    return small_transformer_rig


def ragged_requests():
    """Ragged prompt lengths AND ragged token budgets (mid-batch retirement)."""
    lengths = [6, 3, 9, 4, 7, 5]
    budgets = [10, 4, 12, 7, 5, 9]
    return [Request(i, [(i * 11 + j) % 128 + 1 for j in range(n)], b)
            for i, (n, b) in enumerate(zip(lengths, budgets))]


def run_serving(rig, config=None, capacity=4, scheduler_kind="two_level"):
    serving = rig.serving_engine(scheduler_kind=scheduler_kind,
                                 batch_capacity=capacity, kv_blocks=256,
                                 block_size=8, config=config)
    return serving.run(ragged_requests())


#: Ledger kinds one decode step charges to its sequence.
DECODE_EVENTS = (Event.DRAFT_STEP, Event.DECODER_LAYER, Event.LM_HEAD_SLICE,
                 Event.PREDICTOR, Event.LM_HEAD_FULL, Event.KV_FILL)


def generate_reference(rig, requests, config=None, scheduler_kind="two_level"):
    """Per-request ``SpecEEEngine.generate``: the batch of one every served
    request must reproduce."""
    engine = rig.specee_engine(scheduler_kind, config)
    return {r.request_id: engine.generate(r.prompt, r.max_new_tokens)
            for r in requests}


def assert_matches_generate(report, reference):
    """Tokens, exit layers and per-kind decode ledger calls/units of every
    served request equal its per-request ``generate`` run."""
    assert set(report.results) == set(reference)
    for rid, ref in reference.items():
        got = report.results[rid]
        assert got.tokens == ref.tokens, rid
        assert got.exit_layers == ref.exit_layers, rid
        for kind in DECODE_EVENTS:
            assert got.ledger.calls(kind) == ref.ledger.calls(kind), (rid, kind)
            assert got.ledger.units(kind) == ref.ledger.units(kind), (rid, kind)


def burst_requests(n=4, tokens=10):
    """Same-instant arrivals with enough decode KV demand that an 8-block
    pool (see ``tight_async``) must preempt to make progress."""
    return [Request(i, [(i * 7 + j) % 128 + 1 for j in range(3 + i)], tokens)
            for i in range(n)]


def tight_async(rig, **overrides):
    """Async engine whose KV pool is far below the batch's worst case."""
    kwargs = dict(batch_capacity=4, kv_blocks=8, block_size=4,
                  admission="optimistic", preemption="auto",
                  chunk_prefill_tokens=8, config=EXITY_CFG)
    kwargs.update(overrides)
    return rig.async_serving_engine(**kwargs)


class TestBatchedIdentity:
    def test_batched_tokens_identical_to_sequential(self, rig):
        assert_matches_generate(run_serving(rig),
                                generate_reference(rig, ragged_requests()))

    def test_identity_with_frequent_early_exits(self, rig):
        served = run_serving(rig, config=EXITY_CFG)
        n_early = sum(sum(r.early_exit for r in res.records)
                      for res in served.results.values())
        assert n_early >= 5, "config must actually trigger early exits"
        exits = {l for res in served.results.values() for l in res.exit_layers}
        assert len(exits) > 1, "exits must be ragged across the layer range"
        assert_matches_generate(
            served, generate_reference(rig, ragged_requests(), EXITY_CFG))

    def test_identity_across_capacities(self, rig):
        """Admission order changes with capacity, tokens must not."""
        small = run_serving(rig, config=EXITY_CFG, capacity=2)
        large = run_serving(rig, config=EXITY_CFG, capacity=6)
        assert {i: r.tokens for i, r in small.results.items()} == \
               {i: r.tokens for i, r in large.results.items()}

    def test_ledgers_identical_to_sequential(self, rig):
        """The serving run's summed per-sequence ledger is the sum of the
        per-request ``generate`` ledgers, kind by kind."""
        served = run_serving(rig, config=EXITY_CFG)
        reference = generate_reference(rig, ragged_requests(), EXITY_CFG)
        for kind in DECODE_EVENTS:
            assert served.sequential_ledger.calls(kind) == \
                   sum(r.ledger.calls(kind) for r in reference.values()), kind
            assert served.sequential_ledger.units(kind) == \
                   sum(r.ledger.units(kind) for r in reference.values()), kind

    def test_early_exit_kv_propagation_keeps_caches_rectangular(self, rig):
        """Early exits must leave every (sequence, layer) cache rectangular:
        hidden-state propagation fills the skipped layers' KV slots."""
        engine = rig.specee_engine("all", EXITY_CFG)
        factories = [rig.make_scheduler("all", EXITY_CFG) for _ in range(3)]
        pairs = [engine.prefill([(i * 5 + j) % 128 + 1 for j in range(3 + i)])
                 for i in range(3)]
        states = [s for s, _ in pairs]
        results = [r for _, r in pairs]
        for _ in range(6):
            engine.step_batch(states, results, factories)
        assert any(r.early_exit for res in results for r in res.records)
        for state in states:
            for layer in range(engine.model.n_layers):
                assert state.cache.length(layer) == len(state.context)


class TestWallClockReport:
    def test_measured_throughput_present(self, rig):
        report = run_serving(rig)
        assert report.wall_time_s > 0.0
        assert np.isfinite(report.measured_tps) and report.measured_tps > 0.0

    def test_modelled_numbers_still_priced(self, rig):
        report = run_serving(rig)
        priced = report.priced_speedup(get_model_spec("llama2-7b"),
                                       "a100-80g", "vllm")
        assert priced["serving_tps"] > 0 and priced["sequential_tps"] > 0

    def test_batch_decoder_layer_events_emitted(self, rig):
        """The serving ledger still rebatches per-tick layer runs."""
        report = run_serving(rig)
        assert report.serving_ledger.calls(Event.BATCH_DECODER_LAYER) > 0
        assert report.serving_ledger.units(Event.BATCH_DECODER_LAYER) == \
               report.sequential_ledger.calls(Event.DECODER_LAYER)


class TestSchedulerIsolation:
    def test_per_sequence_online_history_isolated(self, rig):
        """Two-level/online schedulers keep per-sequence exit history, so a
        run with every request in one batch must also match per-request
        generate under an online scheduler."""
        cfg = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                           scheduler="online", verify_on_exit=False)
        assert_matches_generate(
            run_serving(rig, config=cfg, capacity=6, scheduler_kind="online"),
            generate_reference(rig, ragged_requests(), cfg, "online"))


class TestRealKVPreemption:
    """The real-tensor side of preemption: :class:`KVCache` swap blobs and
    the :class:`LayeredLM` preemption hooks the async engine drives."""

    def test_kv_cache_swap_roundtrip_bit_exact(self):
        cache = KVCache(n_layers=2, n_kv_heads=2, head_dim=4, max_tokens=64,
                        initial_tokens=4)
        rng = np.random.default_rng(0)
        kept = []
        for layer in range(2):
            k, v = rng.normal(size=(2, 7, 4)), rng.normal(size=(2, 7, 4))
            cache.append(layer, k, v)
            kept.append((k.copy(), v.copy()))
        blob = cache.swap_out()
        # Eviction really freed the device side: back to the initial alloc.
        assert cache.length(0) == 0 and cache.length(1) == 0
        assert cache.capacity == 4
        cache.swap_in(blob)
        for layer, (k, v) in enumerate(kept):
            assert np.array_equal(cache.view(layer)[0], k)
            assert np.array_equal(cache.view(layer)[1], v)

    def _decode(self, rig, interrupt, mode):
        """8 decode steps; optionally preempt-and-resume after step 3."""
        engine = rig.specee_engine(config=EXITY_CFG)
        state, result = engine.prefill([5, 9, 2, 44, 17])
        for step in range(8):
            if step == 3 and interrupt:
                if mode == "swap":
                    rig.model.swap_out_state(state)
                    assert state.host_kv is not None
                    assert state.cache.length(0) == 0  # device side evicted
                    rig.model.swap_in_state(state)
                else:
                    rig.model.drop_state_kv(state)
                    rig.model.recompute_state(state)
            engine.step_batch([state], [result], [engine.scheduler])
        return result

    def test_mid_decode_swap_roundtrip_token_identical(self, rig):
        ref = self._decode(rig, interrupt=False, mode="swap")
        out = self._decode(rig, interrupt=True, mode="swap")
        assert out.tokens == ref.tokens and out.exit_layers == ref.exit_layers

    def test_mid_decode_recompute_token_identical(self, rig):
        ref = self._decode(rig, interrupt=False, mode="recompute")
        out = self._decode(rig, interrupt=True, mode="recompute")
        assert out.tokens == ref.tokens and out.exit_layers == ref.exit_layers

    def test_swap_in_without_swap_out_raises(self, rig):
        engine = rig.specee_engine(config=EXITY_CFG)
        state, _ = engine.prefill([5, 9, 2])
        with pytest.raises(RuntimeError, match="swap_out_state"):
            rig.model.swap_in_state(state)


class TestAsyncTransformer:
    """The async/trace engine driving the real transformer: preempted then
    resumed sequences must be token-identical to undisturbed sync serving."""

    def reference(self, rig, requests):
        serving = rig.serving_engine(batch_capacity=4, kv_blocks=256,
                                     block_size=8, config=EXITY_CFG)
        return serving.run(requests)

    @pytest.mark.parametrize("mode", ["swap", "recompute", "auto"])
    def test_preempted_resume_token_identical(self, rig, mode):
        requests = burst_requests()
        ref = self.reference(rig, burst_requests())
        report = tight_async(rig, preemption=mode).run(requests)
        assert report.preemptions > 0, "config must actually exercise preemption"
        for request in requests:
            result = report.results[request.request_id]
            assert result.tokens == ref.results[request.request_id].tokens
            assert result.exit_layers == ref.results[request.request_id].exit_layers
        if mode == "swap":
            assert report.swaps == report.preemptions
            assert report.serving_ledger.units(Event.KV_SWAP) > 0
        if mode == "recompute":
            assert report.recomputes == report.preemptions

    def test_async_matches_sync_without_pressure(self, rig):
        ref = run_serving(rig, config=EXITY_CFG)
        report = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=256, block_size=8,
            config=EXITY_CFG).run(ragged_requests())
        assert {i: r.tokens for i, r in report.results.items()} == \
               {i: r.tokens for i, r in ref.results.items()}

    def test_preempted_burst_matches_generate(self, rig):
        requests = burst_requests()
        report = tight_async(rig).run(requests)
        assert report.preemptions > 0, "config must actually exercise preemption"
        assert_matches_generate(
            report, generate_reference(rig, burst_requests(), EXITY_CFG))

    def test_wall_clock_reported(self, rig):
        report = tight_async(rig).run(burst_requests())
        assert report.wall_time_s > 0.0
        assert np.isfinite(report.measured_tps) and report.measured_tps > 0.0


class TestShardedTransformer:
    """tp/pp sharding is a ledger rewrite: the sharded transformer decode
    must stay token-identical to the single-device run, sync and async."""

    def test_sync_sharded_tokens_identical(self, rig):
        single = run_serving(rig, config=EXITY_CFG)
        serving = rig.serving_engine(
            batch_capacity=4, kv_blocks=256, block_size=8, config=EXITY_CFG,
            cluster=make_cluster("a100-80g", tp=2, pp=2))
        sharded = serving.run(ragged_requests())
        assert {i: r.tokens for i, r in sharded.results.items()} == \
               {i: r.tokens for i, r in single.results.items()}
        assert {i: r.exit_layers for i, r in sharded.results.items()} == \
               {i: r.exit_layers for i, r in single.results.items()}
        assert sharded.serving_ledger.calls(Event.ALLREDUCE) > 0

    def test_async_sharded_tokens_identical(self, rig):
        requests = ragged_requests()
        kwargs = dict(batch_capacity=4, kv_blocks=64, block_size=8,
                      config=EXITY_CFG)
        single = rig.async_serving_engine(**kwargs).run(requests)
        sharded = rig.async_serving_engine(
            cluster=make_cluster("a100-80g", tp=2, pp=2), **kwargs,
        ).run(ragged_requests())
        assert {i: r.tokens for i, r in sharded.results.items()} == \
               {i: r.tokens for i, r in single.results.items()}
        assert sharded.serving_ledger.calls(Event.PIPELINE_BUBBLE) > 0


class TestBatchedPredictorPath:
    """The vectorized speculative-head/feature/predictor tick must make the
    same exit decisions and charge the same ledgers whether a sequence is
    served in a batch or generated alone."""

    def test_decisions_identical_to_per_sequence(self, rig):
        """The ``all`` scheduler scores every live row at every layer."""
        assert_matches_generate(
            run_serving(rig, config=EXITY_CFG, scheduler_kind="all"),
            generate_reference(rig, ragged_requests(), EXITY_CFG, "all"))

    def test_identical_under_verified_exits(self, rig):
        cfg = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                           scheduler="all", verify_on_exit=True)
        assert_matches_generate(run_serving(rig, config=cfg),
                                generate_reference(rig, ragged_requests(), cfg))

    def test_identical_under_online_scheduler(self, rig):
        cfg = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                           scheduler="online", verify_on_exit=False)
        assert_matches_generate(
            run_serving(rig, config=cfg, scheduler_kind="online"),
            generate_reference(rig, ragged_requests(), cfg, "online"))


class TestTransformerServeCli:
    def test_serve_transformer_backend(self, capsys):
        assert main(["serve", "--backend", "transformer", "--requests", "3",
                     "--max-new-tokens", "6", "--batch-capacity", "2"]) == 0
        out = capsys.readouterr().out
        assert "transformer backend" in out
        assert "measured tokens/s (wall-clock)" in out

    def test_serve_transformer_sharded(self, capsys):
        assert main(["serve", "--backend", "transformer", "--tp", "2",
                     "--pp", "2", "--requests", "3", "--max-new-tokens", "6",
                     "--batch-capacity", "2", "--kv-blocks", "64",
                     "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "tp=2 pp=2" in out
        assert "tiny-transformer (priced as llama2-7b)" in out

    def test_serve_transformer_trace(self, capsys):
        assert main(["serve", "--backend", "transformer", "--trace", "poisson",
                     "--requests", "4", "--max-new-tokens", "6",
                     "--kv-blocks", "64", "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "async serving: tiny-transformer (priced as llama2-7b)" in out
        assert "measured tokens/s (wall-clock)" in out

    def test_synthetic_backend_unchanged_default(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.backend == "synthetic"
