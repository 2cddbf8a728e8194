"""The benchmark's three workloads, as plain data.

This module imports only the standard library: the set-up probe in
``child.py`` imports it before starting its clock, so anything heavier
would leak into ``setup_s``.

Each workload is a scaled-down acceptance criterion of the test suite
(criteria 8, 5 and 7).  ``--seed`` becomes the ensemble's master seed;
everything else is fixed here, so one seed always gives the same inputs.
"""

WORKLOADS = {
    # criterion 8: 200 replicas at master seed 8; scaled to 32 replicas
    "ovc6-rank3": {
        "scheme": "overcomplete",
        "state": {"kind": "rank_r_plus_noise", "n": 6, "q": 0.8, "r": 3, "seed": 80},
        "mode": "multinomial",
        "events_per_setting": 230,
        "replicas": 32,
        "rank_tests": True,
        "replay": 2,
    },
    # criterion 5's n=2 leg: 10^6 replicas; scaled to 2 x 10^4
    "ovc2-wn": {
        "scheme": "overcomplete",
        "state": {"kind": "white_noise", "n": 2, "q": 0.0},
        "mode": "multinomial",
        "events_per_setting": 100,
        "replicas": 20000,
        "rank_tests": False,
        "replay": 24,
    },
    # criterion 7's complete-scheme leg: 150 replicas; 1000 here
    "cmp6-wn": {
        "scheme": "complete",
        "state": {"kind": "white_noise", "n": 6, "q": 0.0},
        "total_counts": 4e6,
        "replicas": 1000,
        "rank_tests": False,
        "replay": 2,
    },
}


def master_seed(seed):
    """The ensemble master seed for a benchmark ``--seed``."""
    return int(seed) % 2**63


def build_config(ts, workload, seed, replicas=None):
    """The ``ExperimentConfig`` of a workload, built through ``ts``."""
    spec = WORKLOADS[workload]
    state = ts.StateSpec(**spec["state"])
    count = spec["replicas"] if replicas is None else replicas
    if spec["scheme"] == "complete":
        return ts.ExperimentConfig.complete(
            state, spec["total_counts"], replicas=count, master_seed=master_seed(seed))
    model = ts.CountModel(spec["mode"], spec["events_per_setting"])
    return ts.ExperimentConfig.overcomplete(
        state, model, replicas=count, master_seed=master_seed(seed))
