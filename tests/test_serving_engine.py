"""Continuous-batching serving engine: determinism vs unbatched decoding,
admission/queueing behaviour, KV lifecycle, and ledger consistency."""

import numpy as np
import pytest

from repro.eval.harness import build_rig
from repro.hardware.ledger import Event
from repro.config import get_model_spec
from repro.serving import (
    AdmissionPolicy,
    ContinuousBatchScheduler,
    Request,
    RequestQueue,
)

# Same asset-cache key as the CLI serve path, so training happens once.
RIG_KWARGS = dict(train_prompts=6, train_tokens=30, predictor_hidden=128, epochs=10)

MIXED_LENGTHS = [12, 20, 9, 16, 25, 14]


@pytest.fixture(scope="module")
def rig():
    return build_rig("llama2-7b", **RIG_KWARGS)


def make_requests(lengths=MIXED_LENGTHS):
    return [Request(i, [i + 3, 2 * i + 1, (5 * i) % 200 + 2], n)
            for i, n in enumerate(lengths)]


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue()
        for i in range(3):
            queue.submit(Request(i, [1], 4))
        assert [queue.pop().request_id for _ in range(3)] == [0, 1, 2]

    def test_duplicate_id_rejected(self):
        queue = RequestQueue([Request(1, [1], 4)])
        with pytest.raises(ValueError):
            queue.submit(Request(1, [2], 4))

    def test_pop_after_resubmit_allowed(self):
        queue = RequestQueue([Request(1, [1], 4)])
        queue.pop()
        queue.submit(Request(1, [1], 4))
        assert len(queue) == 1

    def test_empty_peek_and_pop_raise(self):
        queue = RequestQueue()
        with pytest.raises(IndexError):
            queue.peek()
        with pytest.raises(IndexError):
            queue.pop()

    def test_bad_request_rejected(self):
        with pytest.raises(ValueError):
            Request(0, [], 4)
        with pytest.raises(ValueError):
            Request(0, [1], 0)


class TestAdmissionPolicy:
    def test_blocks_needed_rounds_up(self):
        policy = AdmissionPolicy(n_blocks=8, block_size=4, batch_capacity=4)
        assert policy.blocks_needed(Request(0, [1], 4)) == 1
        assert policy.blocks_needed(Request(0, [1], 5)) == 2

    def test_capacity_and_pool_limits(self):
        policy = AdmissionPolicy(n_blocks=8, block_size=4, batch_capacity=2)
        request = Request(0, [1], 8)  # needs 2 blocks
        assert policy.admissible(request, reserved_blocks=0, running=0)
        assert not policy.admissible(request, reserved_blocks=0, running=2)
        assert not policy.admissible(request, reserved_blocks=7, running=1)

    def test_impossible_request_raises(self):
        policy = AdmissionPolicy(n_blocks=2, block_size=4, batch_capacity=4)
        with pytest.raises(MemoryError):
            policy.admissible(Request(0, [1], 100), reserved_blocks=0, running=0)


class TestServingDeterminism:
    @pytest.mark.parametrize("flavor", ["offline", "online", "two_level"])
    def test_token_identical_to_sequential(self, rig, flavor):
        """Continuous batching must not change a single token, for every
        scheduler flavor and a mixed-length batch."""
        serving = rig.serving_engine(scheduler_kind=flavor, batch_capacity=4,
                                     kv_blocks=64, block_size=4)
        requests = make_requests()
        report = serving.run(requests)
        sequential = rig.specee_engine(flavor)
        for request in requests:
            reference = sequential.generate(request.prompt, request.max_new_tokens)
            assert report.results[request.request_id].tokens == reference.tokens
            assert (report.results[request.request_id].exit_layers
                    == reference.exit_layers)

    def test_capacity_does_not_change_tokens(self, rig):
        requests = make_requests()
        outputs = []
        for capacity in (1, 4):
            serving = rig.serving_engine(batch_capacity=capacity,
                                         kv_blocks=64, block_size=4)
            report = serving.run(make_requests())
            outputs.append({i: r.tokens for i, r in report.results.items()})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == len(requests)


class TestServingEdgeCases:
    def test_zero_requests(self, rig):
        report = rig.serving_engine(batch_capacity=4).run([])
        assert report.results == {} and report.n_steps == 0
        assert np.isnan(report.avg_batch_occupancy)
        assert report.total_tokens == 0

    def test_single_request(self, rig):
        serving = rig.serving_engine(batch_capacity=4, kv_blocks=16, block_size=4)
        report = serving.run([Request(0, [5, 6, 7], 10)])
        assert len(report.results[0].tokens) == 10
        assert report.n_steps == 10
        assert report.metrics[0].queue_wait_steps == 0
        assert report.metrics[0].latency_steps == 10

    def test_more_requests_than_kv_blocks(self, rig):
        """Pool holds one request's worst case at a time: requests serve in
        waves, later ones queue, everyone completes."""
        serving = rig.serving_engine(batch_capacity=4, kv_blocks=4, block_size=4)
        requests = [Request(i, [i + 1, i + 2], 16) for i in range(5)]  # 4 blocks each
        report = serving.run(requests)
        assert len(report.results) == 5
        assert all(len(r.tokens) == 16 for r in report.results.values())
        assert max(report.batch_occupancy) == 1  # pool admits one at a time
        waits = sorted(m.queue_wait_steps for m in report.metrics.values())
        assert waits == [0, 16, 32, 48, 64]

    def test_request_bigger_than_pool_raises(self, rig):
        serving = rig.serving_engine(batch_capacity=4, kv_blocks=2, block_size=4)
        with pytest.raises(MemoryError):
            serving.run([Request(0, [1, 2], 100)])

    def test_occupancy_never_exceeds_capacity(self, rig):
        serving = rig.serving_engine(batch_capacity=3, kv_blocks=64, block_size=4)
        report = serving.run(make_requests())
        assert max(report.batch_occupancy) <= 3


class TestKVLifecycle:
    def test_blocks_all_freed_after_run(self, rig):
        serving = rig.serving_engine(batch_capacity=4, kv_blocks=32, block_size=4)
        serving.run(make_requests())
        assert serving.cache.allocator.free_blocks == 32
        assert serving.cache.blocks_in_use() == 0

    def test_peak_counts_blocks_freed_on_final_tick(self, rig):
        serving = rig.serving_engine(batch_capacity=4, kv_blocks=16, block_size=4)
        report = serving.run([Request(0, [1, 2, 3], 1)])
        assert report.peak_kv_blocks == 1  # allocated and freed within one tick

    def test_cache_holds_exit_hidden_states(self, rig):
        """Mid-flight, the paged cache's gather view is bit-exact against the
        hidden states the engine committed tokens from."""
        serving = rig.serving_engine(batch_capacity=1, kv_blocks=16, block_size=4)
        scheduler = ContinuousBatchScheduler(
            serving.engine, serving.cache, serving.policy, serving.scheduler_factory)
        scheduler.submit(Request(0, [4, 5, 6], 8))
        for _ in range(5):
            scheduler.tick()
        ks, vs = serving.cache.gather(0)
        slot = scheduler.running[0]
        expected = np.stack([r.hidden.reshape(serving.cache.n_kv_heads,
                                              serving.cache.head_dim)
                             for r in slot.result.records])
        assert np.array_equal(ks, expected)
        assert np.array_equal(vs, expected)
        while scheduler.has_work:
            scheduler.tick()
        assert serving.cache.blocks_in_use() == 0


class TestServingLedger:
    def test_batched_layers_account_every_layer_call(self, rig):
        serving = rig.serving_engine(batch_capacity=4, kv_blocks=64, block_size=4)
        report = serving.run(make_requests())
        merged_layers = report.sequential_ledger.calls(Event.DECODER_LAYER)
        assert report.serving_ledger.units(Event.BATCH_DECODER_LAYER) == merged_layers
        assert report.serving_ledger.calls(Event.DECODER_LAYER) == 0
        assert (report.serving_ledger.tokens_generated
                == report.sequential_ledger.tokens_generated == report.total_tokens)
        assert report.serving_ledger.steps == report.n_steps
        assert report.sequential_ledger.steps == report.total_tokens

    def test_batching_speeds_up_modelled_throughput(self, rig):
        serving = rig.serving_engine(batch_capacity=4, kv_blocks=64, block_size=4)
        report = serving.run(make_requests([24] * 6))
        priced = report.priced_speedup(get_model_spec("llama2-7b"), "a100-80g", "vllm")
        assert priced["speedup"] > 1.5
        assert priced["serving_tps"] > priced["sequential_tps"]


class TestStepAPI:
    def test_generate_equals_manual_step_loop(self, rig):
        engine = rig.specee_engine()
        reference = engine.generate([9, 9, 9], 20)
        state, result = engine.prefill([9, 9, 9])
        scheduler = engine.scheduler
        scheduler.reset()
        for _ in range(20):
            engine.step_batch([state], [result], [scheduler])
        engine.finish(state, result)
        assert result.tokens == reference.tokens
        assert result.exit_layers == reference.exit_layers
        assert result.saturations == reference.saturations

    def test_step_record_carries_hidden_only_when_asked(self, rig):
        engine = rig.specee_engine()
        state, result = engine.prefill([1, 2, 3])
        engine.scheduler.reset()
        [record] = engine.step_batch([state], [result], [engine.scheduler],
                                     capture_hidden=True)
        assert record.hidden is not None
        assert record.hidden.shape == (rig.model.hidden_dim,)
        [plain] = engine.step_batch([state], [result], [engine.scheduler])
        assert plain.hidden is None  # plain generation skips the copy
