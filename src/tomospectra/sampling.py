"""The seed scheme and the count model of synthetic measurement data.

Counts for one measurement setting are drawn either from a multinomial
distribution (fixed number of events per setting) or as independent
Poisson variables (fixed *expected* number of events); `CountModel`
names the choice, and `tomospectra.ensemble.replica_frequencies` makes
the draws.  The multinomial draw delegates to numpy's generator, which
implements the sequential conditional-binomial splitting construction;
no Gaussian shortcut is used at any sample size, so rare-event rates
stay honest.

Seeding
-------
Every (master_seed, replica, setting) triple owns its own counter-based
random stream: a Philox generator keyed by::

    key = (master_seed mod 2**64,  replica * 2**32 + setting)

The stream is a pure function of the triple, so replicas and settings can
be sampled in any order, split across any number of workers, and always
reproduce the same counts bit for bit.  Replica and setting indices must
stay below 2**32 each, which keeps the key injective.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_SHIFT = 1 << 32

MULTINOMIAL = "multinomial"
POISSON = "poisson"


class EmptySettingError(ValueError):
    """A setting recorded zero events, so frequencies are undefined."""


def philox_key(master_seed, replica_index, setting_index):
    """The 128-bit Philox key for one (master, replica, setting) triple."""
    if not 0 <= replica_index < _SHIFT:
        raise ValueError("replica index out of the 32-bit seeding range")
    if not 0 <= setting_index < _SHIFT:
        raise ValueError("setting index out of the 32-bit seeding range")
    word = (replica_index * _SHIFT + setting_index) & _MASK64
    return np.array([master_seed & _MASK64, word], dtype=np.uint64)


class _FixedKey(ISeedSequence):
    """A seed sequence whose only state is a given 128-bit Philox key.

    ``np.random.Philox(key=k)`` still seeds a throw-away ``SeedSequence``
    from OS entropy, which is about two thirds of its construction cost.
    Seeding with ``_FixedKey(k)`` instead yields the same generator
    (key ``k``, counter 0, empty buffer) at a third of the cost.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return self.key


def stream(master_seed, replica_index=0, setting_index=0):
    """The dedicated random generator of one (master, replica, setting)."""
    return np.random.Generator(np.random.Philox(
        _FixedKey(philox_key(master_seed, replica_index, setting_index))))


@dataclass(frozen=True)
class CountModel:
    """How many events a setting receives and how they fluctuate.

    ``multinomial`` draws exactly ``events_per_setting`` events;
    ``poisson`` treats it as the expectation and lets the per-outcome
    counts fluctuate independently.
    """

    mode: str = MULTINOMIAL
    events_per_setting: int = 100

    def __post_init__(self):
        if self.mode not in (MULTINOMIAL, POISSON):
            raise ValueError("count model mode must be multinomial or poisson")
        if int(self.events_per_setting) < 1:
            raise ValueError("events per setting must be >= 1")
        object.__setattr__(self, "events_per_setting", int(self.events_per_setting))
