"""Continuous batching over the SpecEE engine (Kwon et al., 2023 style).

Every global step ("tick") the scheduler

1. **joins** — admits queued requests while the batch has slots and the paged
   KV pool can absorb their worst-case block need,
2. **advances** — runs every live sequence one token through
   :meth:`SpecEEEngine.step_batch` with its own predictor scheduler (per-sequence
   early-exit depth and online exit history stay isolated, which is what
   makes batched output token-identical to unbatched decoding), appending
   each committed token's exit hidden state to the paged KV cache,
3. **retires** — finishes sequences that reached their token budget and
   frees their KV blocks, making room for the next admissions.

Depth bookkeeping for the hardware model: within one tick, decoder layer
``l`` is executed once for the set of sequences whose exit depth exceeds
``l`` — weight traffic is shared, per-sequence FLOPs are marginal.  The tick
reports those per-layer batch sizes so the serving engine can ledger them as
``BATCH_DECODER_LAYER`` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.core.engine import GenerationResult, SpecEEEngine, StepRecord
from repro.core.scheduling import Scheduler
from repro.model.base import LMState
from repro.serving.paged_kv import PagedKVCache
from repro.serving.request import AdmissionPolicy, Request, RequestQueue

__all__ = [
    "SequenceSlot", "TickOutcome", "ContinuousBatchScheduler",
    "SchedulingPolicy", "FifoPriorityPolicy", "EdfPolicy", "FairTenantPolicy",
    "SCHEDULING_POLICIES", "make_scheduling_policy",
]


@dataclass
class SequenceSlot:
    """One running sequence: request plus all its per-sequence state."""

    request: Request
    state: LMState
    result: GenerationResult
    scheduler: Scheduler
    admitted_step: int
    blocks_reserved: int
    finished_step: int = -1

    @property
    def done(self) -> bool:
        """Whether the sequence has generated its full token budget."""
        return len(self.result.tokens) >= self.request.max_new_tokens


@dataclass
class TickOutcome:
    """What one global step did: who ran how deep, who finished."""

    step: int
    depths: List[int] = field(default_factory=list)  # executed layers per sequence
    records: List[StepRecord] = field(default_factory=list)
    admitted: List[int] = field(default_factory=list)  # request ids
    retired: List[SequenceSlot] = field(default_factory=list)
    kv_blocks_in_use: int = 0  # sampled before retirement frees blocks

    @property
    def occupancy(self) -> int:
        """Sequences that decoded this tick."""
        return len(self.depths)

    def layer_batches(self) -> List[int]:
        """Batch size of each shared decoder-layer execution this tick:
        entry ``l`` counts the sequences still alive at depth ``l``."""
        if not self.depths:
            return []
        return [sum(1 for d in self.depths if d > l) for l in range(max(self.depths))]


class ContinuousBatchScheduler:
    """Joins/retires sequences every step and drives the batched decode."""

    def __init__(
        self,
        engine: SpecEEEngine,
        cache: PagedKVCache,
        policy: AdmissionPolicy,
        scheduler_factory: Callable[[], Scheduler],
    ):
        """Wire the scheduler to one engine, KV cache and admission policy."""
        self.engine = engine
        self.cache = cache
        self.policy = policy
        self.scheduler_factory = scheduler_factory
        self.queue = RequestQueue()
        self.running: List[SequenceSlot] = []
        self.reserved_blocks = 0
        self.step_count = 0
        # Prefix-sharing accounting (stays zero with sharing off).
        self.prefix_hits = 0
        self.prefix_matched_tokens = 0
        n_kv = cache.n_kv_heads * cache.head_dim
        if n_kv != engine.model.hidden_dim:
            raise ValueError(
                f"paged KV entry shape {cache.n_kv_heads}x{cache.head_dim} "
                f"does not cover hidden_dim={engine.model.hidden_dim}"
            )

    # -- submission ----------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Queue ``request``, rejecting up front one that could never run.

        Without this check an oversized request used to sit at the head of
        the queue forever (nothing to retire can ever free enough blocks), so
        the error surfaces at the API edge instead of mid-run."""
        reason = self.policy.oversize_reason(request)
        if reason:
            raise MemoryError(
                f"request {request.request_id} can never be admitted: it {reason}"
            )
        self.queue.submit(request)

    @property
    def has_work(self) -> bool:
        """Whether any request is still queued or running."""
        return bool(self.queue) or bool(self.running)

    # -- one global step -----------------------------------------------------
    def _admit(self, outcome: TickOutcome) -> None:
        while self.queue and self.policy.admissible(
            self.queue.peek(), self.reserved_blocks, len(self.running)
        ):
            request = self.queue.pop()
            state, result = self.engine.prefill(request.prompt, script=request.script)
            scheduler = self.scheduler_factory()
            scheduler.reset()
            if self.policy.prefix_share:
                # Worst-case reservation covers the whole prompt, so the
                # tree walk cannot run out of blocks (cold tree = no hit).
                matched = self.cache.prefill_prompt(
                    request.request_id, request.prompt)
                if matched:
                    self.prefix_hits += 1
                    self.prefix_matched_tokens += matched
            else:
                self.cache.add_sequence(request.request_id)
            blocks = self.policy.blocks_needed(request)
            self.reserved_blocks += blocks
            self.running.append(SequenceSlot(
                request=request, state=state, result=result, scheduler=scheduler,
                admitted_step=self.step_count, blocks_reserved=blocks,
            ))
            outcome.admitted.append(request.request_id)

    def _retire(self, outcome: TickOutcome) -> None:
        still: List[SequenceSlot] = []
        for slot in self.running:
            if slot.done:
                self.engine.finish(slot.state, slot.result)
                self.cache.free_sequence(slot.request.request_id)
                self.reserved_blocks -= slot.blocks_reserved
                slot.finished_step = self.step_count
                outcome.retired.append(slot)
            else:
                still.append(slot)
        self.running = still

    def tick(self) -> TickOutcome:
        """Admit, advance every live sequence one token, retire finished."""
        outcome = TickOutcome(step=self.step_count)
        self._admit(outcome)
        records = self.engine.step_batch(
            [slot.state for slot in self.running],
            [slot.result for slot in self.running],
            [slot.scheduler for slot in self.running],
            capture_hidden=True,
        )
        for slot, record in zip(self.running, records):
            outcome.depths.append(record.exit_layer + 1)
            outcome.records.append(record)
            kv = record.hidden.reshape(self.cache.n_kv_heads, self.cache.head_dim)
            self.cache.append(slot.request.request_id, kv, kv)
        outcome.kv_blocks_in_use = self.cache.blocks_in_use()
        self._retire(outcome)
        self.step_count += 1
        return outcome


# ---------------------------------------------------------------------------
# Scheduling policies for the async engine (service order + victim selection)
# ---------------------------------------------------------------------------
class SchedulingPolicy:
    """Who is served first, and who is evicted first, in the async engine.

    The :class:`~repro.serving.async_engine.AsyncServingEngine` delegates all
    of its ordering decisions here: ``queue_key`` ranks waiting requests for
    admission and preempted/prefilling sequences for service (ascending; the
    smallest key goes first), and ``victim_key`` ranks runnable sequences for
    eviction when the KV pool runs dry (ascending; the smallest key is
    preempted first).  Deadline-aware policies use the engine-supplied
    modelled clock (``now_s``), full-depth service-rate estimate
    (``per_token_s``) and decode tokens still owed (``remaining``, the full
    budget when unknown) to reason about slack.  A sequence object only
    needs a ``request`` attribute and a ``result.tokens`` list, so policies
    work on any engine slot type.
    """

    name = "base"
    #: Dynamic policies re-rank as service accumulates (``on_progress``
    #: feedback changes their keys mid-run); static policies never do.
    dynamic = False

    def queue_key(self, request: Request, now_s: float = 0.0,
                  per_token_s: float = 0.0,
                  remaining: Optional[int] = None) -> Tuple:
        """Ascending service rank of ``request`` (smallest served first)."""
        raise NotImplementedError

    def victim_key(self, seq, now_s: float, per_token_s: float) -> Tuple:
        """Ascending eviction rank of ``seq`` (smallest preempted first)."""
        raise NotImplementedError

    def on_progress(self, request: Request, tokens: int) -> None:
        """Feedback hook: ``tokens`` were just decoded for ``request``.

        Static policies ignore it; dynamic ones (``fair_tenant``) fold the
        served work into their ranking state."""

    def reset(self) -> None:
        """Clear accumulated ranking state at the start of a run (no-op for
        stateless policies)."""


class FifoPriorityPolicy(SchedulingPolicy):
    """PR 2's original ordering: priority first, then arrival order.

    Service goes to the highest-priority, earliest-arrived request; the
    victim is the lowest-priority, latest-arrived sequence.  Deadlines are
    ignored entirely — this is the baseline EDF is measured against.
    """

    name = "fifo_priority"

    def queue_key(self, request: Request, now_s: float = 0.0,
                  per_token_s: float = 0.0,
                  remaining: Optional[int] = None) -> Tuple:
        """Highest priority first, then earliest arrival, then lowest id."""
        return (-request.priority, request.arrival_s, request.request_id)

    def victim_key(self, seq, now_s: float, per_token_s: float) -> Tuple:
        """Lowest priority first, then latest arrival, then highest id."""
        request = seq.request
        return (request.priority, -request.arrival_s, -request.request_id)


class EdfPolicy(SchedulingPolicy):
    """Earliest-deadline-first service with an SLO-aware victim picker.

    *Service* is deadline-driven: among requests that can still meet their
    deadline (estimated finish ``now + remaining * per_token_s`` at or
    before it), the earliest absolute deadline goes first.  Requests whose
    deadline is already unreachable are *hopeless* — serving them cannot add
    goodput — so they are pushed behind every feasible request (plain EDF's
    overload failure mode is exactly that it keeps burning capacity on
    doomed work, the domino effect).  Deadline-free requests can never miss
    and queue after the feasible deadline-carriers.

    *Eviction* is the mirror image, most-affordable victim first: sequences
    without a deadline (infinite slack), then hopeless sequences (their
    remaining work is wasted either way, most-blown deadline first), then
    feasible sequences by most slack — the one that can best absorb the
    delay.  Protecting the least-slack feasible sequences is what turns
    early-exit throughput into SLO attainment under pressure.
    """

    name = "edf"

    @staticmethod
    def _slack(request: Request, now_s: float, per_token_s: float,
               remaining: int) -> float:
        """Margin between the deadline and the estimated finish (inf when
        the request carries no deadline)."""
        if request.deadline_s is None:
            return float("inf")
        return request.deadline_s - (now_s + remaining * per_token_s)

    def queue_key(self, request: Request, now_s: float = 0.0,
                  per_token_s: float = 0.0,
                  remaining: Optional[int] = None) -> Tuple:
        """Feasible EDF first, then deadline-free, then hopeless."""
        if remaining is None:
            remaining = request.max_new_tokens
        slack = self._slack(request, now_s, per_token_s, remaining)
        deadline = request.deadline_s
        if deadline is None:
            deadline = float("inf")
        hopeless = slack < 0  # never True for deadline-free (inf slack)
        return (1 if hopeless else 0, deadline, request.arrival_s,
                request.request_id)

    def victim_key(self, seq, now_s: float, per_token_s: float) -> Tuple:
        """Deadline-free first, then hopeless, then the most-slack feasible."""
        request = seq.request
        remaining = request.max_new_tokens - len(seq.result.tokens)
        slack = self._slack(request, now_s, per_token_s, remaining)
        if request.deadline_s is None:
            rank, urgency = 0, 0.0  # cannot miss: evict first
        elif slack < 0:
            rank, urgency = 1, slack  # wasted work: most-blown first
        else:
            rank, urgency = 2, -slack  # feasible: most slack first
        return (rank, urgency, -request.arrival_s, -request.request_id)


class FairTenantPolicy(SchedulingPolicy):
    """Per-tenant weighted fairness: the least-served tenant goes first.

    Multi-tenant traffic lets one chatty tenant starve everyone else under
    FIFO.  This policy tracks decoded tokens per tenant (``on_progress``)
    and ranks waiting work by its tenant's served total — ascending, so the
    tenant with the least service so far is admitted and resumed first;
    within a tenant the order stays priority-then-arrival.  Eviction is the
    mirror image: the *most*-served tenant's sequences are preempted first,
    lowest priority and latest arrival breaking ties.  Requests without a
    ``tenant_id`` pool into one anonymous tenant.

    The served counters persist across :meth:`queue_key` calls and change
    every decode tick, so the policy is marked ``dynamic`` — the async
    engine re-sorts its queues each tick anyway, which is all the
    re-ranking needs.
    """

    name = "fair_tenant"
    dynamic = True

    def __init__(self) -> None:
        """Start with every tenant unserved."""
        self._served: dict = {}

    def reset(self) -> None:
        """Forget all served-token counters (fresh run, fresh fairness)."""
        self._served.clear()

    def on_progress(self, request: Request, tokens: int) -> None:
        """Charge ``tokens`` of service to the request's tenant."""
        tenant = request.tenant_id
        self._served[tenant] = self._served.get(tenant, 0) + tokens

    def served(self, tenant_id) -> int:
        """Decoded tokens charged to ``tenant_id`` so far this run."""
        return self._served.get(tenant_id, 0)

    def queue_key(self, request: Request, now_s: float = 0.0,
                  per_token_s: float = 0.0,
                  remaining: Optional[int] = None) -> Tuple:
        """Least-served tenant first; priority/arrival within a tenant."""
        return (self._served.get(request.tenant_id, 0), -request.priority,
                request.arrival_s, request.request_id)

    def victim_key(self, seq, now_s: float, per_token_s: float) -> Tuple:
        """Most-served tenant's lowest-priority, latest sequence first."""
        request = seq.request
        return (-self._served.get(request.tenant_id, 0), request.priority,
                -request.arrival_s, -request.request_id)


SCHEDULING_POLICIES = {
    FifoPriorityPolicy.name: FifoPriorityPolicy,
    EdfPolicy.name: EdfPolicy,
    FairTenantPolicy.name: FairTenantPolicy,
}


def make_scheduling_policy(spec: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
    """Resolve a policy name (or pass through an instance) to a policy."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    if spec not in SCHEDULING_POLICIES:
        raise ValueError(
            f"unknown scheduling policy {spec!r}; "
            f"known: {sorted(SCHEDULING_POLICIES)}")
    return SCHEDULING_POLICIES[spec]()
