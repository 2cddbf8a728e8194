"""Golden SHA-256 digests of the ``spectra.csv`` bytes ``save_ensemble`` writes,
and of the three files ``analyze`` writes from a stored ensemble.

Byte-level reproducibility is a contract: a fixed configuration and
master seed must give the same file, bit for bit, whatever the code
path in between.  Each case below pins the SHA-256 of ``spectra.csv``
for one small configuration, run in-process or over a worker pool; a
refactor of the replica chain must leave every digest unchanged.

The digests were taken with NumPy 2.4.6.  They depend on NumPy's
multinomial and Poisson samplers and on LAPACK's ``eigvalsh``, so a
different NumPy version may legitimately change them; a change of code
alone must not, unless it is a versioned output change: it bumps
``tomospectra.__version__`` and notes old -> new beside each digest it moves.
"""

import hashlib

import pytest

import tomospectra as ts
from tomospectra.cli import HISTOGRAM_FILE, OVERLAY_FILE, SUMMARY_FILE, main

CASES = {
    # Re-taken for 0.2.6 (schema 2: no replica index column), whose
    # rows are the same with ``i,`` cut from each: 66715599... before.
    "ovc1-multinomial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="white_noise", n=1),
            ts.CountModel(ts.MULTINOMIAL, 100), replicas=16, master_seed=11),
        "03d6f2adef7fc7b3536d17672cdb30ff5eafb6b63bc464c4ff671a05b70ec629",
        1,
    ),
    # Re-taken for 0.2.5 (per-qubit frequency <-> Pauli blocks), which
    # rounds the overcomplete estimate differently at about 1e-16,
    # with the same counts: 174d0b0e... before.
    # Re-taken for 0.2.6 (schema 2: no replica index column), whose
    # rows are the same with ``i,`` cut from each: 2459aa1a... before.
    "ovc6-rank3-multinomial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="rank_r_plus_noise", n=6, q=0.8, r=3, seed=80),
            ts.CountModel(ts.MULTINOMIAL, 230), replicas=2, master_seed=8),
        "62b05e350f0aff5fa8123368ed75ffe89f7cd1164c20f6cadd55f26944bd590b",
        1,
    ),
    # at 300 expected events a setting is empty with probability e^-300
    # Re-taken for 0.2.5 (per-qubit frequency <-> Pauli blocks), which
    # rounds the overcomplete estimate differently at about 1e-16,
    # with the same counts: 740c7d91... before.
    # Re-taken for 0.2.6 (schema 2: no replica index column), whose
    # rows are the same with ``i,`` cut from each: 3ca4dd9f... before.
    "ovc3-poisson": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="ghz_plus_noise", n=3, q=0.6),
            ts.CountModel(ts.POISSON, 300), replicas=8, master_seed=33),
        "c5c31c4d1997548789a67bc818a88dedc409476de73fefb49b0574ddbf4f1496",
        1,
    ),
    # Re-taken for 0.2.3 (one per-qubit map from counts to the matrix),
    # which rounds differently at about 1e-16: d05fbc45... before.
    # Re-taken for 0.2.4 (normalized by the computational-basis count
    # total, no flux): 1d44ac70... before.
    # Re-taken for 0.2.6 (schema 2: no replica index column), whose
    # rows are the same with ``i,`` cut from each: 7f7e6c5d... before.
    "cmp3-poisson": (
        lambda: ts.ExperimentConfig.complete(
            ts.StateSpec(kind="white_noise", n=3), 1e5, replicas=8,
            master_seed=7),
        "0e8df716ad634c9c36db1a005cacf709d9112e85508fa211a7a0f8a85165fa2e",
        1,
    ),
    # 12 replicas at n=4 are one stack, so a two-worker request runs it in
    # process: the worker count is capped at the number of stacks.
    # Re-taken for 0.2.0 (table as the estimator's forward map), whose
    # tied Dicke probabilities round differently: c063932f... before.
    # Re-taken for 0.2.5 (per-qubit frequency <-> Pauli blocks), which
    # rounds the overcomplete estimate differently at about 1e-16,
    # with the same counts: 9f4056f8... before.
    # Re-taken for 0.2.6 (schema 2: no replica index column), whose
    # rows are the same with ``i,`` cut from each: 98c11b7d... before.
    "ovc4-dicke-workers2": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="dicke_plus_noise", n=4, q=0.7, k=2),
            ts.CountModel(ts.MULTINOMIAL, 150), replicas=12, master_seed=44),
        "88a0d489e7ea2c4bdaf8bab1872c0e3feaa3f77b3e3f3740d801117448063c7b",
        2,
    ),
    # GHZ outcome probabilities tie in pairs, and a multinomial draw splits
    # a tied pair on the last bit of the table: this pins those bits (the
    # 0.1.0 per-setting loop gave 29cb22ae... here)
    # Re-taken for 0.2.5 (per-qubit frequency <-> Pauli blocks), which
    # rounds the overcomplete estimate differently at about 1e-16,
    # with the same counts: a2a0f55a... before.
    # Re-taken for 0.2.6 (schema 2: no replica index column), whose
    # rows are the same with ``i,`` cut from each: 15a5341c... before.
    "ovc3-ghz-multinomial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="ghz_plus_noise", n=3, q=0.7),
            ts.CountModel(ts.MULTINOMIAL, 120), replicas=16, master_seed=36),
        "2b07c4292823801945a546f2a0e3e919d79c23cf75119010c94edbe274868cec",
        1,
    ),
    # n=2 is the hot workload; 4001 replicas make stacks of 1820, 1820
    # and 361, so the run ends on a shorter stack than it starts with
    # Re-taken for 0.2.5 (per-qubit frequency <-> Pauli blocks), which
    # rounds the overcomplete estimate differently at about 1e-16,
    # with the same counts: 08261cde... before.
    # Re-taken for 0.2.6 (schema 2: no replica index column), whose
    # rows are the same with ``i,`` cut from each: 867c5a1a... before.
    "ovc2-wn-partial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="white_noise", n=2),
            ts.CountModel(ts.MULTINOMIAL, 100), replicas=4001, master_seed=22),
        "c0d9ec056420a005a6b00c9db3e12a037fede159c956f1586d412351b521e20c",
        1,
    ),
    # at n=1 a replica's whole estimate is one (1, 4) x (4, 4) product of
    # its scaled real counts with the complex counts-to-entries block,
    # which BLAS rounds differently from a (B, 4) x (4, 4) one.
    # Re-taken for 0.2.3 (that fused product): 851e58c5... before.
    # Re-taken for 0.2.4 (normalized by the computational-basis count
    # total, no flux): 28ebd310... before.
    # Re-taken for 0.2.6 (schema 2: no replica index column), whose
    # rows are the same with ``i,`` cut from each: c3dde0b3... before.
    "cmp1-rank1": (
        lambda: ts.ExperimentConfig.complete(
            ts.StateSpec(kind="rank_r_plus_noise", n=1, q=0.6, r=1, seed=12),
            2e4, replicas=40, master_seed=21),
        "8528b7f6fda4af0018b2b9031aeccc185093d8eb47f75ab9a2bc7476ee04f47f",
        1,
    ),
}
# the same three stacks as three tasks over a two-worker pool: the
# multi-task pool path, against the in-process digest
CASES["ovc2-wn-partial-workers2"] = CASES["ovc2-wn-partial"][:2] + (2,)


@pytest.mark.parametrize("name", sorted(CASES))
def test_spectra_csv_digest(name, tmp_path):
    make_config, digest, workers = CASES[name]
    ts.save_ensemble(ts.run_ensemble(make_config(), workers=workers), tmp_path)
    data = (tmp_path / "spectra.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# ``analyze`` on one small ensemble per overlay family: the SHA-256 of
# histogram.csv, overlay.csv and summary.json.  The run happens in a
# temporary working directory with relative paths, so summary.json's
# file paths are the same on every run.
ANALYZE_CASES = {
    "single_qubit": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="white_noise", n=1),
            ts.CountModel(ts.MULTINOMIAL, 100), replicas=30, master_seed=5),
        (
            "b35e493b88444438ac859ec618365c2f391b8b631808ae874e1bdb09fd1a9ffe",
            "f82c3e65789aec77a94209e384bc2f2b79d6a4b95263011fde052dbabf590111",
            "57e3c5897dc13630ead68d24f8ce84f99b66955820b4329698da3c8ae13d1bb4",
        ),
    ),
    # Re-taken for 0.2.5 (per-qubit frequency <-> Pauli blocks), whose
    # spectra move at about 1e-16 and with them the bin edges:
    # eede16bb..., 93b57f61... and a53e54b8... before.
    "semicircle": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="ghz_plus_noise", n=3, q=0.6),
            ts.CountModel(ts.MULTINOMIAL, 200), replicas=20, master_seed=6),
        (
            "38c61ab25c95e0b970c406f2ac9b641f5d5bbca1cbe3bef38e5dacfe483e465b",
            "62ae7ccf6ef880d6aaebe256b4685977bc213a9f24d452dfe54a93c0a0f4d29e",
            "133ca02b53c9c81953f8dd256808e75c56144eebc5c94e0da5f77a0e0467bb5c",
        ),
    ),
    # Poisson totals M get the multinomial bulk at their mean N, though
    # their m2 is N E[1/M | M >= 1] times larger: a Poisson radius of
    # its own moves these digests on purpose.
    "semicircle_poisson": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="ghz_plus_noise", n=3, q=0.6),
            ts.CountModel(ts.POISSON, 200), replicas=20, master_seed=6),
        (
            "9c60e5394f70be1f4c0ceb70c554d3cf5819717d1ddec29014fc5676e1284b34",
            "acb5ee000835fceab041d816faa1bdf0d17d061847e41db95b8edbe9ee23ccf7",
            "bd2cd105ff9ecebacb7c8fd4f63e2ff552031b0b1e126d40145743ce49c1557c",
        ),
    ),
    "laplace": (
        lambda: ts.ExperimentConfig.complete(
            ts.StateSpec(kind="white_noise", n=2), 3e4, replicas=20,
            master_seed=7),
        (
            "f087518e5db05549a58dbc12656dfaec42781a26b9dce6dff0d2dd66b611e92b",
            "8455d7baba75e08955f92bab405eeb7c2f3b9fb8cc36f5e9487192aa4656fdb3",
            "4e9132f789484796e67ceb2bc5561bc86c2068cc2cee78e235b12fa830492696",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_CASES))
def test_analyze_file_digests(name, tmp_path, monkeypatch):
    make_config, digests = ANALYZE_CASES[name]
    monkeypatch.chdir(tmp_path)
    ts.save_ensemble(ts.run_ensemble(make_config()), "ens")
    assert main(["analyze", "--in", "ens", "--out", "out", "--bins", "16",
                 "--format", "json"]) == 0
    files = (HISTOGRAM_FILE, OVERLAY_FILE, SUMMARY_FILE)
    got = tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
                for f in files)
    assert got == digests
