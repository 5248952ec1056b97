"""Stopwatch benchmark of SpecEE serving on the LayerSkip-trained transformer.

Run from the repository root:

    python3 perfbench/run.py --workload offline_batch --seed 1 --seconds 20 --trace 0

One run builds the trained rig (``build_trained_transformer_rig``), builds
the workload's engine, warms it up, computes the batch-1
``SpecEEEngine.generate`` reference of every input outside any timing, then
serves the workload for ``--seconds`` with no instrumentation.  With
``--trace 1`` the run instead splits ``--seconds`` between an untraced
phase, the baseline for the tracing overhead, and a traced phase on the same
engine that times the calls into each layer from outside the program (see
``layers.py``); it reports the per-layer metrics only.

Every served request must reproduce its reference tokens, and the verified
exit rate must stay at trained levels; otherwise the run reports
``"correct": false`` and exits 1.  The last stdout line is the JSON result;
the lines before it are a human-readable table of every metric with its unit
and sample count.  Spans and the full result go to ``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from stats import highest_supported, median, percentile, samples_beyond

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Verified exit rate below which the rig counts as untrained (the trained
#: rig exits on about three tokens in four, random weights on 0.07).
EXIT_RATE_FLOOR = 0.3
#: Engine constructions per run; ``setup_s`` takes their median.
ENGINE_BUILDS = 5

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("decode_tps", "tok/s", "higher"),
    ("ttft_p50_ms", "ms", "lower"),
    ("ttft_p90_ms", "ms", "lower"),
    ("tbt_p50_ms", "ms", "lower"),
    ("tbt_p99_ms", "ms", "lower"),
    ("slo_met_frac", "fraction", "higher"),
    ("completed_frac", "fraction", "higher"),
    ("token_match_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; effective only before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def host_fingerprint() -> dict:
    """What a result was measured on: cores, BLAS and its threads, versions."""
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def end_to_end(phase, workload, setup_s: float, setup_samples: int,
               reference) -> dict:
    """Every end-to-end metric of the untraced phase: ``name -> (value,
    samples)``.  Failed requests count as SLO misses and as mismatches."""
    timeline = phase.timeline
    ttft = [timeline.ttft_s(rid) for rid in phase.tokens]
    gaps = [g for rid in phase.tokens for g in timeline.tbt_s(rid)]
    met = 0
    for rid in phase.tokens:
        mean_tbt = timeline.mean_tbt_s(rid) or 0.0
        met += (timeline.ttft_s(rid) * 1e3 <= workload.slo_ttft_ms
                and mean_tbt * 1e3 <= workload.slo_tbt_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sent = max(1, phase.sent)
    return {
        "setup_s": (setup_s, setup_samples),
        "decode_tps": (phase.output_tokens / phase.busy_s, phase.output_tokens),
        "ttft_p50_ms": (percentile(ttft, 50) * 1e3, len(ttft)),
        "ttft_p90_ms": (percentile(ttft, 90) * 1e3, len(ttft)),
        "tbt_p50_ms": (percentile(gaps, 50) * 1e3, len(gaps)),
        "tbt_p99_ms": (percentile(gaps, 99) * 1e3, len(gaps)),
        "slo_met_frac": (met / sent, phase.sent),
        "completed_frac": (phase.succeeded / sent, phase.sent),
        "token_match_frac": ((phase.sent - mismatches(phase, reference)) / sent,
                             phase.sent),
        "peak_rss_mb": (rss_mb, 1),
    }


def mismatches(phase, reference) -> int:
    """Requests sent but not served with exactly their reference tokens."""
    return phase.sent - sum(tokens == reference[phase.keys[rid]]
                            for rid, tokens in phase.tokens.items())


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source not found at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.eval.harness import build_trained_transformer_rig

    from layers import (PER_LAYER, instrument_cache, instrument_engine,
                        instrument_server, layer_metrics)
    from spans import Tracer
    from workloads import (MIN_REQUESTS, WORKLOADS, build_engine, make_inputs,
                           reference_tokens, run_phase, warm_up)

    clock = time.perf_counter
    workload = WORKLOADS[args.workload]
    host = host_fingerprint()

    # -- set-up: rig build, engine construction (median of several), warm-up
    start = clock()
    rig = build_trained_transformer_rig()
    rig_s = clock() - start
    builds = []
    for _ in range(ENGINE_BUILDS):
        start = clock()
        target = build_engine(rig, workload)
        builds.append(clock() - start)
    # A traced run reports no end-to-end tails, so it needs no request floor.
    seconds = args.seconds / 2 if args.trace else args.seconds
    floor = 0 if args.trace else MIN_REQUESTS
    requests = make_inputs(workload, args.seed, seconds, rig.model.vocab_size,
                           min_requests=floor)
    start = clock()
    warm_up(target, requests)
    warm_s = clock() - start
    setup_s = rig_s + median(builds) + warm_s

    # -- reference, outside any timing
    start = clock()
    reference = reference_tokens(rig, requests)
    reference_s = clock() - start

    # -- untraced phase: the end-to-end metrics
    gc.collect()  # start each phase without the set-up's garbage
    phase = run_phase("measured", workload, target, requests, seconds,
                      min_requests=floor)
    untraced_tps = phase.output_tokens / phase.busy_s
    phases = [phase]

    if args.trace:
        tracer = Tracer()
        instrument_engine(tracer, target.engine)
        instrument_server(tracer, target)
        gc.collect()
        try:
            traced = run_phase(
                "traced", workload, target, requests, seconds,
                min_requests=floor, tracer=tracer,
                instrument=lambda server: instrument_cache(tracer, server))
        finally:
            tracer.close()
        phases.append(traced)
        values = layer_metrics(tracer, traced, untraced_tps, workload.kv_blocks)
        rows = [(name, unit, values[name], None) for name, unit, _ in PER_LAYER]
    else:
        e2e = end_to_end(phase, workload, setup_s, 1 + ENGINE_BUILDS, reference)
        rows = [(name, unit) + e2e[name] for name, unit, _ in END_TO_END]

    exit_rate = phase.early_exits / max(1, phase.steps)
    bad = sum(mismatches(p, reference) for p in phases)
    correct = bad == 0 and exit_rate >= EXIT_RATE_FLOOR
    attempted = sum(p.sent for p in phases)
    failed = sum(p.failed for p in phases)

    # -- artifacts: the spans and the full result, stamped with the host
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "host": host}
    if args.trace:
        spans_path = OUT / f"spans-{stem}.json"
        count = tracer.dump(str(spans_path), meta)
    with open(OUT / f"result-{stem}.json", "w") as handle:
        json.dump({
            **meta,
            "correct": correct, "exit_rate": exit_rate, "mismatched": bad,
            "setup": {"rig_s": rig_s, "engine_builds_s": builds,
                      "warm_up_s": warm_s},
            "reference_s": reference_s,
            "phases": [{"name": p.name, "wall_s": p.wall_s, "sent": p.sent,
                        "succeeded": p.succeeded, "failed": p.failed,
                        "rounds": p.rounds, "output_tokens": p.output_tokens}
                       for p in phases],
            "metrics": {name: {"value": value, "unit": unit, "samples": n}
                        for name, unit, value, n in rows},
        }, handle, indent=1)

    # -- human-readable table, then the machine-readable last line
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"set-up: rig {rig_s:.2f} s, engine median {median(builds) * 1e3:.2f} ms "
          f"of {ENGINE_BUILDS}, warm-up {warm_s:.2f} s; reference {reference_s:.2f} s")
    for p in phases:
        print(f"phase {p.name}: wall {p.wall_s:.2f} s, sent {p.sent}, "
              f"succeeded {p.succeeded}, failed {p.failed}, "
              f"tokens {p.output_tokens}, {p.output_tokens / p.wall_s:.1f} tok/s")
    print(f"check: exit rate {exit_rate:.3f} (floor {EXIT_RATE_FLOOR}), "
          f"mismatched requests {bad} -> {'correct' if correct else 'INCORRECT'}")
    if args.trace:
        print(f"spans: {count} -> {spans_path.relative_to(HERE.parent)}")
    else:
        n_ttft = e2e["ttft_p50_ms"][1]
        print(f"tails: TTFT supports up to p{highest_supported(n_ttft):g} "
              f"({samples_beyond(n_ttft, 90)} samples beyond p90)")
    print(f"{'metric':34} {'value':>12} {'unit':9} samples")
    for name, unit, value, n in rows:
        print(f"{name:34} {value:12.4f} {unit:9} {'' if n is None else n}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value, _ in rows},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_blas_threads()  # main() is the first to import numpy
    sys.exit(main())
