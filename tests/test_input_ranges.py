"""The one range rule: every integer or real input outside its range is refused alike.

Each refusal is a ValueError that reads "NAME must lie in LOW..HIGH, got
VALUE" (two bounds) or "NAME must be >= LOW, got VALUE" (one bound).
"""

import math

import numpy as np
import pytest

from tomospectra.ensemble import ExperimentConfig, run_ensemble
from tomospectra.estimation import build_complete_frame
from tomospectra.gof import estimate_rank
from tomospectra.models import (
    LaplaceModel,
    SemicircleModel,
    SingleQubitModel,
    catalan,
    overcomplete_law,
    semicircle_center,
    semicircle_radius,
)
from tomospectra.pauli import StateSpec, dicke_vector
from tomospectra.sampling import MULTINOMIAL, CountModel

WHITE = StateSpec(kind="white_noise", n=1)
COUNTS = CountModel(mode=MULTINOMIAL, events_per_setting=10)
FLAT8 = np.full(8, 0.125)


def config(replicas=2, master_seed=0):
    return ExperimentConfig.overcomplete(WHITE, COUNTS, replicas=replicas,
                                         master_seed=master_seed)


@pytest.mark.parametrize("call, message", [
    (lambda: StateSpec(kind="pure_plus_noise", n=2, q=0.5, seed=-1),
     "seed must lie in 0..18446744073709551615, got -1"),
    (lambda: config(master_seed=2**64),
     "master_seed must lie in 0..18446744073709551615, got 18446744073709551616"),
    (lambda: StateSpec(kind="white_noise", n=7), "n must lie in 1..6, got 7"),
    (lambda: build_complete_frame(0), "n must lie in 1..6, got 0"),
    (lambda: StateSpec(kind="ghz_plus_noise", n=2, q=1.5),
     "signal weight q must lie in 0..1, got 1.5"),
    (lambda: semicircle_center(2, -0.25), "signal weight q must lie in 0..1, got -0.25"),
    (lambda: StateSpec(kind="rank_r_plus_noise", n=2, q=0.5, r=5),
     "signal rank r must lie in 1..4, got 5"),
    (lambda: StateSpec(kind="dicke_plus_noise", n=2, q=0.5, k=3),
     "Dicke excitation number k must lie in 0..2, got 3"),
    (lambda: dicke_vector(2, -1), "excitation number k must lie in 0..2, got -1"),
    (lambda: semicircle_center(11), "qubit number must lie in 1..10, got 11"),
    (lambda: semicircle_center(2, 0.5, 4), "rank r must lie in 0..3, got 4"),
    (lambda: semicircle_radius(2, 0.5), "counts must be >= 1, got 0.5"),
    (lambda: SemicircleModel(0.1, 0.2).central_moment(0), "moment order must be >= 1, got 0"),
    (lambda: catalan(-1), "k must be >= 0, got -1"),
    (lambda: SingleQubitModel(0), "counts must be >= 1, got 0"),
    (lambda: overcomplete_law(3, 100.5), "counts must be an integer, got 100.5"),
    (lambda: CountModel(events_per_setting=0), "events per setting must be >= 1, got 0"),
    (lambda: config(replicas=0), "replicas must lie in 1..4294967296, got 0"),
    (lambda: config(replicas=2**32 + 1), "replicas must lie in 1..4294967296, got 4294967297"),
    (lambda: run_ensemble(config()).moments(k_max=1), "k_max must be >= 2, got 1"),
    (lambda: run_ensemble(config(), workers=0), "worker count must be >= 1, got 0"),
    (lambda: estimate_rank(FLAT8, 3, 100, max_rank=4), "max_rank must lie in 0..3, got 4"),
], ids=["seed", "master-seed", "dense-n", "frame-n", "q", "law-q", "state-r", "state-k",
        "dicke-k", "law-n", "law-r", "radius-counts", "moment-k", "catalan-k",
        "one-qubit-counts", "law-counts", "events", "replicas", "replicas-high", "k-max", "workers", "max-rank"])
def test_an_input_out_of_range_names_itself_its_range_and_its_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("make", [
    lambda center, scale: SemicircleModel(center, scale),
    lambda center, scale: LaplaceModel(center, scale),
], ids=["semicircle", "laplace"])
def test_model_parameters_are_finite_real_numbers(make):
    """A NaN, inf or bool center or scale used to build a model with NaN laws."""
    for bad in (math.nan, math.inf, -math.inf, True):
        for args in ((bad, 0.2), (0.1, bad)):
            with pytest.raises(ValueError, match="must be (finite|a number)"):
                make(*args)
    model = make(np.float32(0.25), 1)
    assert (type(model.center), model.center) == (float, 0.25)


def test_significance_is_a_real_number():
    """A string significance is malformed input, not a failed comparison."""
    with pytest.raises(ValueError, match="significance must be a number"):
        estimate_rank(FLAT8, 3, 100, significance="0.05")
    with pytest.raises(ValueError, match="strictly between 0 and 1, got 1.0"):
        estimate_rank(FLAT8, 3, 100, significance=1.0)
