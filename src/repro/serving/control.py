"""Load-adaptive speculation and exit control.

SpecEE's two speculation knobs — the exit-predictor threshold and the draft
length ``k`` — are static engine configuration everywhere else in this repo.
This module closes the ROADMAP's control loop: the async serving engine
already *observes* queue depth, deadline slack, paged-KV pressure and the
ledger-measured layers per token, and those observations are exactly the
inputs a controller needs to decide, per request and per tick, how
aggressively to speculate.

The loop has three stages:

* **Signal** — :class:`LoadSignal`, a per-tick snapshot the engine builds
  from its own state (:meth:`AsyncServingEngine.load_signal`): live request
  count vs batch capacity, decode-token backlog, the observed per-token
  service estimate, mean deadline slack, KV-pool pressure and observed
  layers/token.
* **Policy** — a :class:`ControlPolicy` maps signals to
  :class:`ControlAction`\\ s.  Three ship (registry
  :data:`CONTROL_POLICIES`): ``static`` reproduces today's fixed behavior
  (the default, token-identical to running without a controller),
  ``pressure`` is a deterministic piecewise controller calibrated to the
  modelled-hardware economics (see below), and ``bandit`` is seeded
  Thompson sampling over a small arm grid of (threshold-offset,
  draft-length) pairs rewarded by SLO-meeting tokens per modelled second.
* **Actuation** — :class:`SpeculationController` turns the chosen action
  into per-sequence ``exit_threshold`` / ``draft_len`` overrides that
  :meth:`SpecEEEngine.step` and :meth:`SpecEEEngine.step_batch` accept on
  both the scalar and vectorized predictor paths.

The economics are not what naive intuition suggests.  Lowering the
threshold does *attempt* verification earlier, but exits are verified, so
a premature attempt that fails costs a full per-sequence LM-head pass —
and unlike decoder layers, whose weight reads amortize across the batched
tick, verification GEMVs are per-sequence and never amortize.  Measured on
the priced model, the dominant waste under load is exactly those failed
verifications: the goodput-protecting overload action is a *stricter* exit
bar (verify only when the predictor is very confident) plus a *shallower*
draft (narrower LM-head slices, fewer marginal candidates), worth
1.1-1.2x goodput at overload, while lowering the threshold loses 15-25%.
When idle the same strict bar is simply quality: free capacity is spent on
the deepest, closest-to-full-depth exits.

References: Thompson-sampling control of speculation length (Liu et al.,
arXiv:2406.03853, "SmartSpec") motivates the bandit; SpecExit
(arXiv:2509.24248) motivates load-coupled early-stop signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import child_rng

__all__ = [
    "ControlAction", "LoadSignal", "ControlPolicy", "StaticControlPolicy",
    "PressureControlPolicy", "ThompsonBanditPolicy", "SpeculationController",
    "CONTROL_POLICIES", "make_control_policy", "DEFAULT_ARM_GRID",
]

@dataclass(frozen=True)
class ControlAction:
    """One actuation decision: how aggressively to speculate.

    ``threshold_offset`` is added to the engine's configured exit threshold
    (negative = exit earlier, positive = hold out for quality);
    ``draft_len`` caps the speculative candidate count at or below the
    configured ``k`` (``None`` = full draft).
    """

    threshold_offset: float = 0.0
    draft_len: Optional[int] = None

    @property
    def is_neutral(self) -> bool:
        """Whether this action leaves the engine's static behavior intact."""
        return self.threshold_offset == 0.0 and self.draft_len is None


#: The do-nothing action: static thresholds, full draft.
NEUTRAL_ACTION = ControlAction()


@dataclass(frozen=True)
class LoadSignal:
    """One tick's load observation, built by the serving engine.

    Everything here is already measured by the engine for other purposes —
    the controller spends information the scheduler and router collect
    anyway, it adds no probes of its own.
    """

    now_s: float = 0.0
    #: Live requests (waiting + running + preempted) competing for service.
    queue_depth: int = 0
    #: Batch slots the engine can decode per tick.
    batch_capacity: int = 1
    #: Decode tokens still owed to every visible request.
    backlog_tokens: int = 0
    #: Observed per-token service-time estimate (modelled seconds).
    per_token_s: float = 0.0
    #: Mean deadline slack of live deadline-carrying requests (+inf if none
    #: carry deadlines; negative once the average deadline is already blown).
    mean_slack_s: float = float("inf")
    #: Paged-KV pool occupancy in [0, 1].
    kv_pressure: float = 0.0
    #: Ledger-observed mean executed decoder layers per generated token.
    layers_per_token: float = 0.0

    @property
    def backlog_s(self) -> float:
        """Queued decode work in modelled seconds at the observed rate."""
        return self.backlog_tokens * self.per_token_s

    @property
    def load_ratio(self) -> float:
        """Live requests per batch slot: < 1 means the batch has headroom,
        > 1 means requests are queueing beyond what one tick can serve."""
        return self.queue_depth / max(1, self.batch_capacity)

    @property
    def pressure(self) -> float:
        """Scalar overload measure the piecewise policy switches on: the
        worst of queueing (load ratio) and KV-pool occupancy, bumped to the
        overload band outright when the mean deadline is already blown.
        Monotonically non-decreasing in every congestion input."""
        level = max(self.load_ratio, self.kv_pressure)
        if self.mean_slack_s < 0.0:
            level = max(level, PressureControlPolicy.OVERLOAD_RATIO)
        return level


class ControlPolicy:
    """Maps :class:`LoadSignal`\\ s to :class:`ControlAction`\\ s.

    Global policies implement :meth:`decide` (one action per tick, applied
    to every live sequence).  Per-request policies (``per_request = True``)
    implement :meth:`assign` (one action per request, chosen at first
    decode and held for the request's lifetime) and :meth:`reward` (credit
    assignment at completion).
    """

    name = "base"
    #: Whether actions are chosen per request (bandit) or per tick.
    per_request = False

    def decide(self, signal: LoadSignal) -> ControlAction:
        """The tick-level action for ``signal`` (global policies)."""
        raise NotImplementedError

    def assign(self, request_id: int, signal: LoadSignal) -> ControlAction:
        """The per-request action at first decode (defaults to
        :meth:`decide`, so global policies need not override it)."""
        return self.decide(signal)

    def reward(self, request_id: int, value: float) -> None:
        """Credit ``value`` to whatever chose ``request_id``'s action
        (no-op for policies without learnt state)."""

    def reset(self) -> None:
        """Clear learnt/cross-run state so repeated runs are reproducible."""


class StaticControlPolicy(ControlPolicy):
    """Today's behavior: fixed threshold, full draft, regardless of load.

    The engine's decode path with this policy is asserted token-identical
    to running with no controller at all — it is the baseline every
    adaptive policy is benchmarked against.
    """

    name = "static"

    def decide(self, signal: LoadSignal) -> ControlAction:
        """Always the neutral action."""
        return NEUTRAL_ACTION


class PressureControlPolicy(ControlPolicy):
    """Deterministic piecewise control on the scalar pressure signal.

    Calibrated against the priced hardware model (module docstring): the
    dominant waste under load is failed verification — a per-sequence full
    LM-head GEMV that, unlike batched decoder layers, never amortizes — so
    past :attr:`OVERLOAD_RATIO` the policy holds the strict exit bar and
    shortens the draft to its cheapest width; past :attr:`BUSY_RATIO` it
    actuates a milder truncation; below that it keeps the full draft and
    the *highest* exit bar, spending free capacity on the deepest,
    highest-quality exits.  The mapping is monotone: more backlog can
    never raise the exit threshold or deepen the draft (property-tested in
    ``tests/test_serving_control.py``).
    """

    name = "pressure"

    BUSY_RATIO = 1.0
    OVERLOAD_RATIO = 1.5

    #: The piecewise bands, most-loaded first: threshold offset and draft
    #: length both non-increasing in pressure.
    OVERLOAD_ACTION = ControlAction(threshold_offset=+0.35, draft_len=2)
    BUSY_ACTION = ControlAction(threshold_offset=+0.38, draft_len=3)
    IDLE_ACTION = ControlAction(threshold_offset=+0.40, draft_len=None)

    def decide(self, signal: LoadSignal) -> ControlAction:
        """Piecewise action by pressure band (monotone non-increasing
        threshold offset and draft length in the pressure signal)."""
        pressure = signal.pressure
        if pressure >= self.OVERLOAD_RATIO:
            return self.OVERLOAD_ACTION
        if pressure >= self.BUSY_RATIO:
            return self.BUSY_ACTION
        return self.IDLE_ACTION


#: Thompson-sampling arm grid: (threshold-offset, draft-length) pairs
#: spanning today's static behavior (0/full draft), the naive
#: exit-earlier direction (-0.15, for the bandit to learn to avoid), and
#: the verify-sparing envelope the pressure policy actuates.
DEFAULT_ARM_GRID: Tuple[ControlAction, ...] = (
    ControlAction(0.0, None),
    ControlAction(-0.15, None),
    ControlAction(+0.20, None),
    ControlAction(+0.40, None),
    ControlAction(+0.20, 2),
    ControlAction(+0.35, 2),
)


class ThompsonBanditPolicy(ControlPolicy):
    """Seeded Thompson sampling over a small (offset, draft-length) grid.

    Each arm keeps a Gaussian reward posterior (running mean, pseudo-count
    prior).  A request is assigned the arm whose posterior *sample* is
    largest at its first decode tick, holds it for its lifetime, and on
    completion credits the arm with its reward: **SLO-meeting tokens per
    modelled second**, normalised by the observed per-token service time so
    rewards are O(1) — a request that misses its deadline earns zero, which
    is what couples the bandit to goodput rather than raw throughput.
    Sampling is fully seeded (:func:`repro.utils.rng.child_rng`), so the
    same seed always produces the same arm sequence.
    """

    name = "bandit"
    per_request = True

    def __init__(self, arms: Sequence[ControlAction] = DEFAULT_ARM_GRID,
                 seed: int = 0, exploration: float = 0.5,
                 prior_mean: float = 1.0):
        """Set up the arm grid and the seeded posterior state.

        ``exploration`` scales posterior width (larger = more exploration);
        ``prior_mean`` is the optimistic initial reward estimate that makes
        every arm worth trying once.
        """
        if not arms:
            raise ValueError("bandit needs at least one arm")
        if exploration <= 0:
            raise ValueError("exploration must be positive")
        self.arms: Tuple[ControlAction, ...] = tuple(arms)
        self.seed = seed
        self.exploration = exploration
        self.prior_mean = prior_mean
        self.reset()

    def reset(self) -> None:
        """Restart the posterior and the seeded sampling stream."""
        self._rng = child_rng(self.seed, "serving", "control", "thompson")
        self._counts = np.zeros(len(self.arms), dtype=np.int64)
        self._means = np.full(len(self.arms), float(self.prior_mean))
        self._arm_of: Dict[int, int] = {}
        self.arm_history: List[int] = []

    def decide(self, signal: LoadSignal) -> ControlAction:
        """Tick-level fallback (never used for assigned requests): the
        current posterior-mean-best arm, without consuming randomness."""
        return self.arms[int(np.argmax(self._means))]

    def assign(self, request_id: int, signal: LoadSignal) -> ControlAction:
        """Sample each arm's posterior and assign the argmax arm."""
        widths = self.exploration / np.sqrt(self._counts + 1.0)
        samples = self._means + self._rng.standard_normal(len(self.arms)) * widths
        arm = int(np.argmax(samples))
        self._arm_of[request_id] = arm
        self.arm_history.append(arm)
        return self.arms[arm]

    def reward(self, request_id: int, value: float) -> None:
        """Fold ``value`` into the issuing arm's running posterior mean."""
        arm = self._arm_of.pop(request_id, None)
        if arm is None:
            return
        self._counts[arm] += 1
        self._means[arm] += (value - self._means[arm]) / self._counts[arm]


CONTROL_POLICIES = {
    StaticControlPolicy.name: StaticControlPolicy,
    PressureControlPolicy.name: PressureControlPolicy,
    ThompsonBanditPolicy.name: ThompsonBanditPolicy,
}


def make_control_policy(spec: Union[str, ControlPolicy],
                        seed: int = 0) -> ControlPolicy:
    """Resolve a policy name (or pass through an instance) to a policy.

    ``seed`` feeds the bandit's sampling stream; deterministic policies
    ignore it.
    """
    if isinstance(spec, ControlPolicy):
        return spec
    if spec not in CONTROL_POLICIES:
        raise ValueError(
            f"unknown control policy {spec!r}; known: {sorted(CONTROL_POLICIES)}")
    if spec == ThompsonBanditPolicy.name:
        return ThompsonBanditPolicy(seed=seed)
    return CONTROL_POLICIES[spec]()


class SpeculationController:
    """Per-request actuation of a :class:`ControlPolicy` inside one engine.

    The serving engine calls :meth:`observe` once per tick with the fresh
    :class:`LoadSignal`, :meth:`overrides` once per decode with the tick's
    runnable request ids (returning the per-sequence ``exit_threshold`` /
    ``draft_len`` lists :meth:`SpecEEEngine.step_batch` accepts), and
    :meth:`finish` as each request completes (closing the bandit's reward
    loop).  Thresholds are clamped to ``(min_threshold, max_threshold)`` so
    no offset can push the engine outside the predictor's meaningful range.
    """

    def __init__(self, policy: Union[str, ControlPolicy], *, k: int,
                 base_threshold: float, seed: int = 0,
                 min_threshold: float = 0.05, max_threshold: float = 0.95):
        """Wire a policy to the engine's configured ``k`` and threshold."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < min_threshold < max_threshold < 1.0:
            raise ValueError("need 0 < min_threshold < max_threshold < 1")
        self.policy = make_control_policy(policy, seed=seed)
        self.k = int(k)
        self.base_threshold = float(base_threshold)
        self.min_threshold = float(min_threshold)
        self.max_threshold = float(max_threshold)
        self.begin()

    @property
    def name(self) -> str:
        """The wired policy's registry name."""
        return self.policy.name

    def begin(self) -> None:
        """Reset per-run state (mirrors ``AsyncServingEngine.begin``)."""
        self.policy.reset()
        self._signal = LoadSignal()
        self._tick_action = NEUTRAL_ACTION
        self._assigned: Dict[int, ControlAction] = {}
        self._offset_sum = 0.0
        self._offset_count = 0

    def observe(self, signal: LoadSignal) -> None:
        """Ingest this tick's load signal and refresh the tick action."""
        self._signal = signal
        if not self.policy.per_request:
            self._tick_action = self.policy.decide(signal)

    def action_for(self, request_id: int) -> ControlAction:
        """The action governing ``request_id`` this tick: the held arm for
        per-request policies (assigned at first decode), else the tick
        action."""
        if self.policy.per_request:
            if request_id not in self._assigned:
                self._assigned[request_id] = self.policy.assign(
                    request_id, self._signal)
            return self._assigned[request_id]
        return self._tick_action

    def threshold_of(self, action: ControlAction) -> float:
        """The clamped absolute exit threshold ``action`` actuates."""
        return float(min(self.max_threshold,
                         max(self.min_threshold,
                             self.base_threshold + action.threshold_offset)))

    def draft_len_of(self, action: ControlAction) -> int:
        """The clamped draft length ``action`` actuates (1..k)."""
        if action.draft_len is None:
            return self.k
        return max(1, min(self.k, int(action.draft_len)))

    def overrides(self, request_ids: Sequence[int],
                  ) -> Tuple[List[float], List[int]]:
        """Per-sequence ``(exit_thresholds, draft_lens)`` for one decode
        tick, aligned with ``request_ids`` — the lists
        :meth:`SpecEEEngine.step_batch` accepts directly."""
        thresholds: List[float] = []
        draft_lens: List[int] = []
        for request_id in request_ids:
            action = self.action_for(request_id)
            thresholds.append(self.threshold_of(action))
            draft_lens.append(self.draft_len_of(action))
            self._offset_sum += action.threshold_offset
            self._offset_count += 1
        return thresholds, draft_lens

    def finish(self, request_id: int, tokens: int, latency_s: float,
               met_slo: Optional[bool]) -> None:
        """Close the loop on a completed request: reward = SLO-meeting
        tokens per modelled second, normalised by the observed per-token
        service time (0 for a missed deadline)."""
        self._assigned.pop(request_id, None)
        if met_slo is False:
            reward = 0.0
        else:
            per_token = self._signal.per_token_s
            if not (per_token > 0.0) or latency_s <= 0.0:
                reward = 0.0 if tokens == 0 else 1.0
            else:
                reward = (tokens / latency_s) * per_token
        self.policy.reward(request_id, reward)

    def mean_threshold_offset(self) -> float:
        """Mean actuated threshold offset across every per-sequence decode
        decision this run (0.0 before any decode) — the one-number summary
        fleet reports carry per replica."""
        if self._offset_count == 0:
            return 0.0
        return self._offset_sum / self._offset_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Concise policy + actuation summary."""
        return (f"SpeculationController(policy={self.name!r}, k={self.k}, "
                f"base_threshold={self.base_threshold}, "
                f"mean_offset={self.mean_threshold_offset():+.3f})")
