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
stay below 2**32 each, which keeps the key injective.  `stream` builds
the generator of one triple; `rekeyed` walks an existing generator
through one replica's setting streams, which costs a fraction of
building new generators and yields the same states bit for bit.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .pauli import _integer

_MASK64 = (1 << 64) - 1
_SHIFT = 1 << 32

MULTINOMIAL = "multinomial"
POISSON = "poisson"


class EmptySettingError(ValueError):
    """A setting recorded zero events, so frequencies are undefined."""


def _key_words(master_seed, replica_index, setting_index):
    """The two 64-bit words of one triple's Philox key, as Python ints."""
    # as Python ints, NumPy integers (np.arange indices) cannot overflow int64
    master, replica, setting = map(operator.index, (master_seed, replica_index, setting_index))
    if not 0 <= replica < _SHIFT:
        raise ValueError("replica index out of the 32-bit seeding range")
    if not 0 <= setting < _SHIFT:
        raise ValueError("setting index out of the 32-bit seeding range")
    return master & _MASK64, replica * _SHIFT + setting


def stream(master_seed, replica_index=0, setting_index=0):
    """The dedicated random generator of one (master, replica, setting)."""
    key = np.array(_key_words(master_seed, replica_index, setting_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# a fresh Philox: counter 0 and an empty output buffer (the state setter
# copies the words out of plain tuples faster than out of arrays)
_ZEROS4 = (0, 0, 0, 0)


def rekeyed(rng, master_seed, replica_index, settings):
    """Walk a `stream` generator through one replica's setting streams.

    Yields s = 0, 1, ..., settings - 1, each once ``rng.bit_generator.state``
    equals ``stream(master_seed, replica_index, s).bit_generator.state``,
    whatever ``rng`` drew before, so its draws are the ones that fresh
    generator would make.  The indices are checked once, before the first
    state is set, and each step only swaps the key of one reused state.
    """
    master, last = _key_words(master_seed, replica_index, settings - 1)
    keyed = {"counter": _ZEROS4, "key": None}
    state = {"bit_generator": "Philox", "state": keyed, "buffer": _ZEROS4,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bit_generator = rng.bit_generator
    for s, word in enumerate(range(last - settings + 1, last + 1)):
        keyed["key"] = (master, word)
        bit_generator.state = state
        yield s


@dataclass(frozen=True)
class CountModel:
    """How many events a setting receives and how they fluctuate.

    ``multinomial`` draws exactly ``events_per_setting`` events;
    ``poisson`` treats it as the expectation and lets the per-outcome
    counts fluctuate independently.  A Poisson setting then draws zero
    events with probability e^-N (N = ``events_per_setting``), and its
    frequencies are undefined: the run aborts with ``EmptySettingError``
    naming the replica and the setting (``simulate`` exits with code 2).
    """

    mode: str = MULTINOMIAL
    events_per_setting: int = 100

    def __post_init__(self):
        if self.mode not in (MULTINOMIAL, POISSON):
            raise ValueError("count model mode must be multinomial or poisson")
        object.__setattr__(self, "events_per_setting",
                           _integer("events per setting", self.events_per_setting, 1))
