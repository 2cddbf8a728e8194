"""One fresh benchmark process; ``run.py`` starts two per round.

    python3 child.py setup    WORKLOAD SEED
    python3 child.py pipeline WORKLOAD SEED OUT_DIR [--trace]

``setup`` times ``import tomospectra`` plus a one-replica run (what every
``simulate`` pays before its first replica), then the full run again in
the same, now warm, process.  ``pipeline`` times a cold import, the full
run, ``save_ensemble``, ``load_ensemble``, ``summary()`` and, where the
workload has them, the rank tests; it leaves the rows in ``OUT_DIR``
and reports the chosen ranks, for ``run.py`` to check.  With ``--trace`` the pipeline
runs under ``tracing.Tracer`` and then repeats the run warm, so per-replica
layer costs exclude lazy set-up.  The last stdout line is a JSON object.

Nothing heavier than the standard library is imported before the clock
starts.  Always called with ``workers=1``.
"""

import hashlib
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, build_config

PERF = time.perf_counter


def setup(workload, seed):
    start = PERF()
    import tomospectra as ts

    ts.run_ensemble(build_config(ts, workload, seed, replicas=1), workers=1)
    setup_s = PERF() - start
    config = build_config(ts, workload, seed)
    start = PERF()
    ensemble = ts.run_ensemble(config, workers=1)
    warm_s = PERF() - start
    return {
        "setup_s": setup_s,
        "warm_s": warm_s,
        "rows_sha256": hashlib.sha256(ensemble.spectra.tobytes()).hexdigest(),
    }


def pipeline(workload, seed, out_dir, trace):
    spec = WORKLOADS[workload]
    start = PERF()
    import tomospectra as ts

    import_s = PERF() - start
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(ts, tracer)
        span = tracer.span
    else:
        def span(_name, fn, *args, **kwargs):
            return fn(*args, **kwargs)

    config = build_config(ts, workload, seed)
    ens_dir = os.path.join(out_dir, "ensemble")
    batches = []
    progress = (lambda done, total: batches.append(done)) if trace else None

    ensemble = span("ensemble.run", ts.run_ensemble, config, workers=1, progress=progress)
    span("ensemble.save", ts.save_ensemble, ensemble, ens_dir)
    loaded = span("ensemble.load", ts.load_ensemble, ens_dir)
    loaded.summary()
    ranks = None
    if spec["rank_tests"]:
        cache_before = _a2_cache(ts)
        ranks = [span("gof.rank_test", ts.estimate_rank, row, spec["state"]["n"],
                      spec["events_per_setting"]).chosen_rank
                 for row in loaded.spectra]
        cache_after = _a2_cache(ts)
    pipeline_s = PERF() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy as np

    np.save(os.path.join(out_dir, "rows.npy"), ensemble.spectra)
    result = {
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_rss_mb,
        "round_trip_same_bits": loaded.spectra.tobytes() == ensemble.spectra.tobytes(),
        "ranks": ranks,
        "csv_bytes": os.path.getsize(os.path.join(ens_dir, "spectra.csv")),
        "versions": _versions(ts, np),
    }
    if trace:
        layers = _cold_layers(tracer, import_s, result["csv_bytes"])
        if spec["rank_tests"]:
            layers.update(_gof_layers(tracer, len(ranks), cache_before, cache_after))
        tracer.reset()
        del batches[:]
        span("ensemble.run", ts.run_ensemble, config, workers=1, progress=progress)
        result["traced_warm_s"] = tracer.seconds("ensemble.run")
        layers.update(_warm_layers(tracer, config.replicas, len(batches)))
        result["layers"] = layers
    return result


def _a2_cache(ts):
    """(hits, misses) of ``a2_null_cdf``'s cache, or None without one."""
    info = getattr(ts.a2_null_cdf, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses


def _per(total, count):
    return total / count if count else 0.0


def _cold_layers(tracer, import_s, csv_bytes):
    return {
        "import.ms": import_s * 1e3,
        "estimation.frame_ms": tracer.seconds("estimation.frame") * 1e3,
        "ensemble.save_ms": tracer.seconds("ensemble.save") * 1e3,
        "ensemble.load_ms": tracer.seconds("ensemble.load") * 1e3,
        "ensemble.csv_bytes": csv_bytes,
    }


def _gof_layers(tracer, tests, cache_before, cache_after):
    calls = tracer.calls("gof.a2_cdf")
    hit_ratio = 0.0
    if cache_before is not None:
        hits = cache_after[0] - cache_before[0]
        hit_ratio = _per(hits, hits + cache_after[1] - cache_before[1])
    return {
        "gof.rank_test_ms": _per(tracer.seconds("gof.rank_test"), tests) * 1e3,
        "gof.a2_cdf_calls": _per(calls, tests),
        "gof.a2_cdf_us": _per(tracer.seconds("gof.a2_cdf"), calls) * 1e6,
        "gof.a2_cache_hit_ratio": hit_ratio,
    }


def _warm_layers(tracer, replicas, batches):
    def per_call_ms(name):
        return _per(tracer.seconds(name), tracer.calls(name)) * 1e3

    def per_replica_us(name):
        return tracer.seconds(name) / replicas * 1e6

    return {
        "pauli.build_state_ms": per_call_ms("pauli.build_state"),
        "pauli.prob_table_ms": per_call_ms("pauli.prob_table"),
        "pauli.prob_table_calls": tracer.calls("pauli.prob_table"),
        "pauli.correlation_values_ms": per_call_ms("pauli.correlation_values"),
        "sampling.streams": tracer.calls("sampling.stream") / replicas,
        "sampling.stream_us": per_call_ms("sampling.stream") * 1e3,
        "sampling.draws": tracer.calls("sampling.draw") / replicas,
        "sampling.draw_us": per_call_ms("sampling.draw") * 1e3,
        "sampling.events": tracer.events / replicas,
        "estimation.correlations_us": per_replica_us("estimation.correlations"),
        "estimation.reconstruct_us": per_replica_us("estimation.reconstruct"),
        "estimation.complete_us": per_replica_us("estimation.complete"),
        "ensemble.eigvalsh_us": per_replica_us("ensemble.eigvalsh"),
        "ensemble.self_us": tracer.self_seconds("ensemble.run") / replicas * 1e6,
        "ensemble.batches": batches,
    }


def _versions(ts, np):
    import platform

    import scipy

    return {
        "tomospectra": ts.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
    }


def _blas_threads(np):
    """Threads of NumPy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(workload, seed)
    else:
        result = pipeline(workload, seed, argv[3], "--trace" in argv[4:])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
