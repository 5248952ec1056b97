"""The SpecEE autoregressive engine (T1 + T2).

Per generated token (Fig. 3):

1. the heuristic scheduling engine marks the predictor-active layers,
2. the speculative model proposes ``k`` candidate tokens,
3. the decoder layers run in order; after each *active* layer the
   speculative LM head is sliced, the 3k features extracted, and the
   lightweight MLP consulted,
4. a positive prediction triggers verification (one full LM-head
   projection); if the global argmax is among the candidates the engine
   exits and commits that token, otherwise depth continues,
5. reaching the final layer commits the full model's argmax as usual.

Every op is recorded in the :class:`~repro.hardware.ledger.CostLedger` so the
hardware models can price the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.config import SpecEEConfig
from repro.core.features import FeatureExtractor
from repro.core.predictor import PredictorBank
from repro.core.scheduling import Scheduler, make_scheduler
from repro.core.verification import verify_exit
from repro.hardware.ledger import CostLedger, Event
from repro.model.base import LayeredLM, LMState
from repro.model.draft import Speculator
from repro.utils.mathx import log_softmax

__all__ = ["StepRecord", "GenerationResult", "SpecEEEngine", "DRAFT_PAD_MARGIN"]

#: Margin (in logit units) below the row minimum used to pad a
#: load-shortened draft back to the predictor's trained feature width ``k``:
#: the padded slot reads as a clearly-losing candidate (softmax weight
#: ``e^-margin`` of the weakest real one) while staying at the logit scale
#: the 3k-input MLP was trained on — padding with -inf-like values instead
#: saturates the MLP and silences the predictor entirely.
DRAFT_PAD_MARGIN = 6.0


@dataclass
class StepRecord:
    """Diagnostics for one generated token.

    ``hidden`` is the hidden state the token was committed from (the
    exit-layer activation).  Serving backends persist it as the token's KV
    payload in the paged cache; baselines that do not thread hidden states
    leave it ``None``.
    """

    token: int
    exit_layer: int
    early_exit: bool
    predictor_evals: int
    verify_attempts: int
    active_predictors: float
    draft_hit: bool
    hidden: Optional[np.ndarray] = None


@dataclass
class GenerationResult:
    """Tokens plus cost ledger and per-step diagnostics."""

    tokens: List[int] = field(default_factory=list)
    exit_layers: List[int] = field(default_factory=list)
    records: List[StepRecord] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    logprobs: List[float] = field(default_factory=list)  # teacher-forced only
    saturations: List[int] = field(default_factory=list)  # model-internal L* trace

    @property
    def perplexity(self) -> float:
        """exp(mean NLL) over teacher-forced reference tokens."""
        if not self.logprobs:
            return float("nan")
        return float(np.exp(-np.mean(self.logprobs)))

    @property
    def avg_exit_layer(self) -> float:
        """Average forward layers per token, 1-based (paper's '#Avg. L')."""
        if not self.exit_layers:
            return float("nan")
        return float(np.mean(np.asarray(self.exit_layers) + 1))

    @property
    def early_exit_rate(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.early_exit for r in self.records]))

    @property
    def avg_active_predictors(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.active_predictors for r in self.records]))


class SpecEEEngine:
    """Autoregressive decoding with speculative early exiting."""

    def __init__(
        self,
        model: LayeredLM,
        speculator: Speculator,
        predictors: PredictorBank,
        config: Optional[SpecEEConfig] = None,
        scheduler: Optional[Scheduler] = None,
    ):
        self.model = model
        self.speculator = speculator
        self.predictors = predictors
        self.config = config or SpecEEConfig()
        if speculator.k != self.config.num_speculative:
            raise ValueError(
                f"speculator k={speculator.k} != config num_speculative="
                f"{self.config.num_speculative}"
            )
        self.scheduler = scheduler or make_scheduler(
            self.config.scheduler, model.n_layers,
            window=self.config.context_window, vicinity=self.config.layer_vicinity,
        )

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        script: Optional[Sequence[int]] = None,
        force_tokens: Optional[Sequence[int]] = None,
    ) -> GenerationResult:
        """Greedy decode with early exiting; returns tokens + diagnostics.

        ``force_tokens`` switches to teacher forcing for perplexity
        evaluation: the engine still decides exit layers freely, records the
        log-probability of each reference token under the exit-layer
        distribution, but commits the reference so the context follows the
        dataset text.
        """
        state, result = self.prefill(prompt, script=script)
        self.scheduler.reset()
        if force_tokens is not None:
            max_new_tokens = len(force_tokens)
        for step in range(max_new_tokens):
            forced = None if force_tokens is None else [int(force_tokens[step])]
            self.step_batch([state], [result], [self.scheduler], forced=forced)
        return self.finish(state, result)

    # -- incremental API (one sequence among many) ---------------------------
    def prefill(
        self, prompt: Sequence[int], script: Optional[Sequence[int]] = None
    ) -> tuple[LMState, GenerationResult]:
        """Start a sequence: model state plus an empty result whose ledger
        carries the prompt prefill.  Callers driving :meth:`step_batch` directly
        (the continuous-batching server) own the scheduler lifetime — pass a
        per-sequence scheduler to every ``step_batch`` call."""
        state = self.model.start(prompt, script=script)
        result = GenerationResult()
        result.ledger.prompt_tokens = len(state.context)
        result.ledger.add(Event.PREFILL_LAYER, calls=self.model.n_layers,
                          units=self.model.n_layers * len(state.context))
        return state, result

    def finish(self, state: LMState, result: GenerationResult) -> GenerationResult:
        """Seal a sequence: copy model-internal diagnostics into the result."""
        result.saturations = list(getattr(state, "saturation_layers", []))
        return result

    def step_batch(
        self,
        states: Sequence[LMState],
        results: Sequence[GenerationResult],
        schedulers: Sequence[Scheduler],
        capture_hidden: bool = False,
        exit_thresholds: Optional[Sequence[float]] = None,
        draft_lens: Optional[Sequence[int]] = None,
        forced: Optional[Sequence[Optional[int]]] = None,
    ) -> List[StepRecord]:
        """Advance every sequence by one token; the engine's only decode step.

        Each sequence keeps its own predictor scheduler (``schedulers``,
        aligned with ``states``), feature history and cost ledger, so its
        tokens do not depend on what it is batched with: :meth:`generate` is
        this method on a batch of one.  What is shared is the weight pass:
        each decoder layer runs once over the sequences still alive at that
        depth (:meth:`~repro.model.base.LayeredLM.layer_forward_batch`), and a
        sequence drops out of the batch the moment its exit verifies — the
        SpecEE layer-skip shape, with shrinking GEMMs.  The exit machinery is
        batched the same way: per layer, one LM-head slice over the
        scheduler-active rows' draft tokens, one feature pass and one MLP
        forward score them all.

        ``capture_hidden`` copies each exit-layer hidden state onto its
        record; the serving engines persist it as the token's paged-KV
        payload.

        ``exit_thresholds`` / ``draft_lens`` are the per-sequence adaptive-
        control actuation points (``repro.serving.control``): the former
        replaces the configured exit threshold for this token only; the latter
        truncates the proposed draft to its first ``draft_len`` candidates —
        fewer LM-head columns sliced per active layer (``LM_HEAD_SLICE``
        priced at the truncated width) and fewer candidates verified against.
        The draft model still runs at full ``k`` (``DRAFT_STEP`` cost
        unchanged); truncated feature rows are padded back to width ``k`` (see
        :data:`DRAFT_PAD_MARGIN`) so the trained 3k-input predictor MLPs are
        untouched.  ``None`` reproduces the static engine bit for bit.

        ``forced`` holds one optional reference token per sequence (teacher
        forcing): the exit layer is still decided freely, the reference's
        log-probability under the exit-layer distribution is appended to the
        result's ``logprobs``, and the reference is committed instead of the
        decoded token.
        """
        b = len(states)
        if not (b == len(results) == len(schedulers)):
            raise ValueError("states, results and schedulers must align")
        if b == 0:
            return []
        model, cfg = self.model, self.config
        k, n_layers = cfg.num_speculative, model.n_layers
        ths = ([cfg.exit_threshold] * b if exit_thresholds is None
               else [float(t) for t in exit_thresholds])
        ds = ([k] * b if draft_lens is None
              else [max(1, min(k, int(d))) for d in draft_lens])
        forced = [None] * b if forced is None else list(forced)
        if not (b == len(ths) == len(ds) == len(forced)):
            raise ValueError("control overrides must align with states")

        drafts = [self.speculator.propose(state.context)[:d]
                  for state, d in zip(states, ds)]
        draft_hits = [self.speculator.is_hit(state.context) for state in states]
        for result in results:
            result.ledger.add(Event.DRAFT_STEP)
        # Load-shortened drafts are padded back to width k by repeating the
        # top candidate, so every row stays rectangular for the shared slice;
        # ``pad`` marks those columns, floored below the row minimum after
        # the gather.
        cand = np.array([t if len(t) == k else
                         np.concatenate([t, np.repeat(t[:1], k - len(t))])
                         for t in drafts])
        pad = (np.arange(k)[None, :] >= np.asarray(ds)[:, None]
               if min(ds) < k else None)
        exit_token: List[Optional[int]] = [None] * b
        exit_layer = [n_layers - 1] * b
        exit_hidden: List[Optional[np.ndarray]] = [None] * b
        predictor_evals = [0] * b
        verify_attempts = [0] * b
        active_predictors = [sched.active_count() for sched in schedulers]
        # Each row's feature history, FeatureExtractor's state one row per
        # sequence: its last evaluated local probabilities, valid once the
        # row has been evaluated this step (the first evaluation reports zero
        # variation).
        last_probs = np.zeros((b, k))

        # ``h`` holds the live rows' activations compacted: row ``pos`` is
        # sequence ``live[pos]``.  It is re-sliced only when a row exits.
        h = model.begin_step_batch(states)
        live = list(range(b))
        live_states = list(states)
        for layer in range(n_layers):
            h = model.layer_forward_batch(live_states, layer, h)
            for i in live:
                results[i].ledger.add(Event.DECODER_LAYER)
            if layer >= n_layers - 1 or layer < cfg.min_exit_layer:
                continue
            rows = [pos for pos, i in enumerate(live) if schedulers[i].is_active(layer)]
            if not rows:
                continue
            idxs = [live[pos] for pos in rows]
            # One slice over every active row's candidates, concatenated;
            # row j keeps its own k columns, the j-th diagonal block.
            m = len(idxs)
            sliced = model.lm_head_slice_batch(h[rows], cand[idxs].ravel())
            local = sliced.reshape(m * m, k)[:: m + 1]
            if pad is not None:
                # Padded columns gathered the top candidate's (real) logit,
                # so the row minimum is the minimum over the real columns.
                local = np.where(pad[idxs],
                                 local.min(axis=1, keepdims=True) - DRAFT_PAD_MARGIN,
                                 local)
            feats, probs = FeatureExtractor.extract_rows(
                local, last_probs[idxs], [predictor_evals[i] > 0 for i in idxs])
            last_probs[idxs] = probs
            scores = self.predictors.probability_batch(layer, feats)
            exited = False
            for j, (pos, i) in enumerate(zip(rows, idxs)):
                ledger = results[i].ledger
                ledger.add(Event.LM_HEAD_SLICE, units=ds[i])
                ledger.add(Event.PREDICTOR)
                predictor_evals[i] += 1
                if scores[j] < ths[i]:
                    continue
                if cfg.verify_on_exit:
                    verify_attempts[i] += 1
                    ledger.add(Event.LM_HEAD_FULL)
                    verdict = verify_exit(model, h[pos], drafts[i])
                    if not verdict.ok:
                        continue
                    exit_token[i] = verdict.token
                else:
                    # Unverified exit (ablation only): trust the top local token.
                    exit_token[i] = int(drafts[i][int(np.argmax(local[j, :ds[i]]))])
                exit_layer[i], exit_hidden[i] = layer, h[pos]
                exited = True
            if exited:
                keep = [pos for pos, i in enumerate(live) if exit_token[i] is None]
                live = [live[pos] for pos in keep]
                if not live:
                    break
                h = h[keep]
                live_states = [states[i] for i in live]

        if live:
            logits = model.lm_head_full_batch(h)
            for pos, i in enumerate(live):
                results[i].ledger.add(Event.LM_HEAD_FULL)
                exit_token[i] = int(np.argmax(logits[pos]))
                exit_hidden[i] = h[pos]
        for i, token in enumerate(forced):
            if token is not None:
                logits = model.lm_head_full(exit_hidden[i])
                results[i].logprobs.append(float(log_softmax(logits)[token]))
                exit_token[i] = int(token)
        model.commit_batch(states, exit_token, exit_layer)

        records: List[StepRecord] = []
        for i in range(b):
            ledger = results[i].ledger
            early = exit_layer[i] < n_layers - 1
            if early:
                # The skipped layers' KV slots are filled from the exit hidden.
                ledger.add(Event.KV_FILL, units=n_layers - 1 - exit_layer[i])
                schedulers[i].observe_exit(exit_layer[i])
            ledger.tokens_generated += 1
            ledger.steps += 1
            record = StepRecord(
                token=exit_token[i], exit_layer=exit_layer[i], early_exit=early,
                predictor_evals=predictor_evals[i],
                verify_attempts=verify_attempts[i],
                active_predictors=active_predictors[i], draft_hit=draft_hits[i],
                hidden=np.array(exit_hidden[i], copy=True) if capture_hidden else None,
            )
            results[i].tokens.append(exit_token[i])
            results[i].exit_layers.append(exit_layer[i])
            results[i].records.append(record)
            records.append(record)
        return records
