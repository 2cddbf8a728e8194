"""Benchmark of the tomospectra simulate -> store -> rank-test pipeline.

    python3 benchmarks/run.py --workload ovc6-rank3 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each round starts two fresh processes
(``child.py``): one times set-up and a warm full run, the other times the
cold pipeline.  Rounds repeat until ``--seconds`` is spent (at least
``MIN_ROUNDS``); every metric is the median over rounds.  The outputs are
then checked by ``reference.py``, which shares no code with the package.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-module
ones from traced pipelines.  The last stdout line is one JSON object;
a copy with versions and per-round figures goes to ``results/``.
"""

import os

# one BLAS thread, fixed before NumPy loads here or in a child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS, master_seed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "replicas_per_s": "replicas/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import.ms": "ms",
    "pauli.build_state_ms": "ms",
    "pauli.prob_table_ms": "ms",
    "pauli.prob_table_calls": "calls/run",
    "pauli.correlation_values_ms": "ms",
    "sampling.streams": "streams/replica",
    "sampling.stream_us": "us",
    "sampling.draws": "draws/replica",
    "sampling.draw_us": "us",
    "sampling.events": "events/replica",
    "estimation.correlations_us": "us",
    "estimation.reconstruct_us": "us",
    "estimation.complete_us": "us",
    "estimation.frame_ms": "ms",
    "ensemble.eigvalsh_us": "us",
    "ensemble.self_us": "us",
    "ensemble.batches": "batches/run",
    "ensemble.save_ms": "ms",
    "ensemble.load_ms": "ms",
    "ensemble.csv_bytes": "bytes",
    "gof.rank_test_ms": "ms",
    "gof.a2_cdf_calls": "calls/test",
    "gof.a2_cdf_us": "us",
    "gof.a2_cache_hit_ratio": "ratio",
    "trace.overhead_pct": "%",
}


class ChildFailed(RuntimeError):
    pass


def run_child(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                              env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed("child %s ran over %d s" % (" ".join(args), CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise ChildFailed("child %s exited %d:\n%s" % (" ".join(args), proc.returncode,
                                                       proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, seed, seconds, trace, work):
    """Whole rounds until ``seconds`` are spent; each is (setup, pipeline, dir)."""
    rounds = []
    start = time.perf_counter()
    while True:
        out_dir = os.path.join(work, "round%d" % len(rounds))
        os.makedirs(out_dir)
        setup = run_child(["setup", workload, str(seed)])
        pipe = run_child(["pipeline", workload, str(seed), out_dir] + (["--trace"] if trace else []))
        rounds.append((setup, pipe, out_dir))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def end_to_end(spec, rounds):
    return {
        "setup_s": median([s["setup_s"] for s, _, _ in rounds]),
        "replicas_per_s": median([spec["replicas"] / s["warm_s"] for s, _, _ in rounds]),
        "pipeline_s": median([p["pipeline_s"] for _, p, _ in rounds]),
        "peak_rss_mb": median([p["peak_rss_mb"] for _, p, _ in rounds]),
    }


def per_layer(rounds):
    out = {name: median([p["layers"].get(name, 0.0) for _, p, _ in rounds])
           for name in PER_LAYER_UNITS if name != "trace.overhead_pct"}
    untraced = median([s["warm_s"] for s, _, _ in rounds])
    traced = median([p["traced_warm_s"] for _, p, _ in rounds])
    # gap in replicas/s between the traced and the untraced warm run
    out["trace.overhead_pct"] = 100.0 * (1.0 - untraced / traced)
    return out


def operations(spec, rounds):
    """Replicas simulated, save/load round trips and rank tests attempted."""
    replicas = spec["replicas"]
    per_round = (1 + replicas) + (replicas + 1) + (replicas if spec["rank_tests"] else 0)
    return per_round * len(rounds)


def check(workload, spec, seed, rounds):
    """Every check of the run's output, as a list of (passed, detail)."""
    first_rows = np.load(os.path.join(rounds[0][2], "rows.npy"))
    digest = hashlib.sha256(first_rows.tobytes()).hexdigest()
    checks = []
    for k, (setup, pipe, out_dir) in enumerate(rounds):
        rows = np.load(os.path.join(out_dir, "rows.npy"))
        checks.append((pipe["round_trip_same_bits"],
                       "round %d: save -> load returns the same bits" % k))
        same = hashlib.sha256(rows.tobytes()).hexdigest() == digest == setup["rows_sha256"]
        checks.append((same, "round %d: cold and warm runs give round 0's bits" % k))
    sample = sorted(random.Random(seed).sample(range(spec["replicas"]), spec["replay"]))
    checks += reference.replay(spec, master_seed(seed), sample, first_rows)
    checks += reference.properties(workload, spec, first_rows, rounds[0][1]["ranks"])
    return checks


def csv_sha256(out_dir):
    with open(os.path.join(out_dir, "ensemble", "spectra.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tomospectra", "__init__.py")):
        sys.exit("no package source at %s; run from a tomospectra checkout" % SRC)
    spec = WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        rounds = measure(args.workload, args.seed, args.seconds, args.trace, work)
        checks = check(args.workload, spec, args.seed, rounds)
        sha = csv_sha256(rounds[0][2])
    except ChildFailed as exc:
        sys.exit(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = per_layer(rounds) if args.trace else end_to_end(spec, rounds)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = sum(1 for passed, _ in checks if not passed)
    result = {
        "correct": failed == 0,
        "attempted": operations(spec, rounds) + len(checks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(rounds), versions=rounds[0][1]["versions"],
                  spectra_csv_sha256=sha, checks=[[p, d] for p, d in checks],
                  raw=[[s, {k: v for k, v in p.items() if k != "ranks"}] for s, p, _ in rounds])
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = "%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(HERE, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)

    for passed, detail in checks:
        print("%s  %s" % ("ok  " if passed else "FAIL", detail))
    for name, unit in units.items():
        print("%-28s %14.6g %s" % (name, values[name], unit))
    print("rounds %d, spectra.csv sha256 %s, %s" % (len(rounds), sha, json.dumps(record["versions"])))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
