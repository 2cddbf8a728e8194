"""Golden SHA-256 digests of the ``spectra.csv`` bytes ``save_ensemble`` writes.

Byte-level reproducibility is a contract: a fixed configuration and
master seed must give the same file, bit for bit, whatever the code
path in between.  Each case below pins the SHA-256 of ``spectra.csv``
for one small configuration; a refactor of the replica chain must leave
every digest unchanged.

The digests were taken with NumPy 2.4.6.  They depend on NumPy's
multinomial and Poisson samplers and on LAPACK's ``eigvalsh``, so a
different NumPy version may legitimately change them; a change of code
alone must not.
"""

import hashlib

import pytest

import tomospectra as ts

CASES = {
    "ovc1-multinomial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="white_noise", n=1),
            ts.CountModel(ts.MULTINOMIAL, 100), replicas=16, master_seed=11),
        "667155992cd18a7e8c8b16a5c248e013d480984e700640dea4ff65aca41f11ab",
    ),
    "ovc6-rank3-multinomial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="rank_r_plus_noise", n=6, q=0.8, r=3, seed=80),
            ts.CountModel(ts.MULTINOMIAL, 230), replicas=2, master_seed=8),
        "174d0b0e6538efc2cf1907d8405c4cd899ea98e26afa89d4cf4d15a2d00f0863",
    ),
    # at 300 expected events a setting is empty with probability e^-300
    "ovc3-poisson": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="ghz_plus_noise", n=3, q=0.6),
            ts.CountModel(ts.POISSON, 300), replicas=8, master_seed=33),
        "740c7d91e26189f61f238e2d4d3e552b068f27fc8cb041dcaeb2b6a0b458511f",
    ),
    "cmp3-poisson": (
        lambda: ts.ExperimentConfig.complete(
            ts.StateSpec(kind="white_noise", n=3), 1e5, replicas=8,
            master_seed=7),
        "d05fbc4536cbd1428a3eb04bb27daa13b6a884a76a79a4d65bbbef389f08e4c0",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_spectra_csv_digest(name, tmp_path):
    make_config, digest = CASES[name]
    ts.save_ensemble(ts.run_ensemble(make_config(), workers=1), tmp_path)
    data = (tmp_path / "spectra.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
