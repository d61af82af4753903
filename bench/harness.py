"""One benchmark run: an untraced measuring run or a traced layer split.

`measure` gives the end-to-end metrics: set-up repeated `SETUP_REPEATS`
times, a warm-up, then `train_fold` rounds alternating with eval passes over
the test split until the time budget is spent. `trace`
gives the per-layer metrics: one untraced and one traced round (train + one
eval pass) with the same seed, which must agree bit for bit, plus the op
micro-benchmarks. Both return ({metric: (value, unit)}, diagnostics).
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

from bench import micro, tracing
from bench.workloads import (
    HEADS,
    LAYERS,
    Gate,
    Workload,
    check_probabilities,
    eval_pass,
    setup,
    train_round,
    warm_up,
)

SETUP_REPEATS = 3

END_TO_END = {"train_tokens_per_s": "tok/s", "eval_tokens_per_s": "tok/s",
              "eval_doc_ms_p50": "ms", "eval_doc_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**{m: "s" for m in tracing.TIME_METRICS}, **tracing.COUNT_METRICS,
             "trace.overhead_ratio": "ratio",
             **{m: "ms" for m in micro.MICRO_METRICS}}


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _train_diagnostics(res, f1) -> dict:
    return {"loss_trace": res.train_loss_trace,
            "val_f1_trace": res.val_f1_trace, "best_epoch": res.best_epoch,
            "test_f1": f1}


def _alternate(train, evaluate, budget: float):
    """Alternate one train round with eval passes that last about as long.

    Each cycle runs `train()` once, then `evaluate(train_result)` at least
    once and until the passes took as long as the train round; cycles repeat
    while the next one (assumed as long as the last) still ends within
    `budget` seconds. Spreading both over the whole budget lets them see the
    same stretch of machine time. Returns (train results, eval results).
    """
    trained, passes = [], []
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        trained.append(train())
        train_s = time.perf_counter() - cycle
        evals = time.perf_counter()
        while True:
            passes.append(evaluate(trained[-1]))
            if time.perf_counter() - evals >= train_s:
                break
        now = time.perf_counter()
        if now - start + (now - cycle) > budget:
            return trained, passes


def measure(w: Workload, seed: int, seconds: float, gate: Gate):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        p = setup(w, seed)
        setup_times.append(time.perf_counter() - t0)
    warm_up(p, gate)

    trained, passes = _alternate(
        lambda: train_round(p, gate),
        lambda trained: eval_pass(p, trained[1].model, gate), seconds)
    train_rates = [w.epochs * p.train_tokens / dt for dt, _ in trained]
    res = trained[-1][1]
    test_tokens = sum(len(d.tokens) for d in p.test)
    eval_rates = [test_tokens / dt for dt, _, _, _ in passes]
    latencies = [s for _, lat, _, _ in passes for s in lat]
    f1 = passes[-1][3]
    check_probabilities(p, res.model, gate)

    lat_ms = 1e3 * np.asarray(latencies)
    values = {"train_tokens_per_s": statistics.median(train_rates),
              "eval_tokens_per_s": statistics.median(eval_rates),
              "eval_doc_ms_p50": float(np.percentile(lat_ms, 50)),
              "eval_doc_ms_p90": float(np.percentile(lat_ms, 90)),
              "setup_s": statistics.median(setup_times),
              "peak_rss_mb": _peak_rss_mb()}
    samples = {"train_tokens_per_s": len(train_rates),
               "eval_tokens_per_s": len(eval_rates),
               "eval_doc_ms_p50": len(lat_ms), "eval_doc_ms_p90": len(lat_ms),
               "setup_s": len(setup_times), "peak_rss_mb": 1}
    diagnostics = {"samples": samples, "train_tokens_per_s_each": train_rates,
                   "eval_tokens_per_s_each": eval_rates,
                   "setup_s_each": setup_times, **_train_diagnostics(res, f1)}
    return {m: (values[m], u) for m, u in END_TO_END.items()}, diagnostics


def trace(w: Workload, seed: int, gate: Gate, spans_path):
    tracer = tracing.Tracer()
    with tracer:
        p = setup(w, seed)
    warm_up(p, gate)

    def one_round():
        t0 = time.perf_counter()
        _, res = train_round(p, gate)
        _, _, preds, f1 = eval_pass(p, res.model, gate)
        return time.perf_counter() - t0, res, preds, f1

    plain_s, plain_res, plain_preds, _ = one_round()
    with tracer:
        traced_s, res, preds, f1 = one_round()
    gate.check("traced loss trace bitwise equal to untraced",
               np.array(res.train_loss_trace).tobytes()
               == np.array(plain_res.train_loss_trace).tobytes())
    gate.check("traced tags equal to untraced", preds == plain_preds)

    metrics = tracer.layer_metrics(LAYERS, HEADS)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics.update(micro.micro_metrics(w.micro_tokens, p.model,
                                       len(p.vocabs.labels), seed))
    tracer.write(spans_path)
    diagnostics = {"spans": len(tracer.spans), "spans_file": spans_path.name,
                   "untraced_round_s": plain_s, "traced_round_s": traced_s,
                   **_train_diagnostics(res, f1)}
    return {m: metrics[m] for m in PER_LAYER}, diagnostics
