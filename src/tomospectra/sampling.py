"""The seed scheme and the count model of synthetic measurement data.

Counts for one measurement setting are drawn either from a multinomial
distribution (fixed number of events per setting) or as independent
Poisson variables (fixed *expected* number of events); `CountModel`
names the choice, `tomospectra.ensemble` picks the rates and the draw
method, and `draw_stack` makes the draws.  The multinomial draw
delegates to numpy's generator, which implements the sequential
conditional-binomial splitting construction; no Gaussian shortcut is
used at any sample size, so rare-event rates stay honest.

Seeding
-------
Every (master_seed, replica, setting) triple owns its own counter-based
random stream: a Philox generator keyed by::

    key = (master_seed mod 2**64,  replica * 2**32 + setting)

The stream is a pure function of the triple, so replicas and settings can
be sampled in any order, split across any number of workers, and always
reproduce the same counts bit for bit.  Replica and setting indices must
stay below 2**32 each, which keeps the key injective.  `stream` builds
the generator of one triple; `draw_stack` walks one generator through
every (replica, setting) stream of a stack of replicas and draws each
row there, which costs a fraction of building new generators and draws
the same counts bit for bit.  The key rule, the Philox state format and
the walk live here and nowhere else.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .pauli import _integer

_MASK64 = (1 << 64) - 1
#: replica and setting indices lie in 0.._INDICES - 1 (the key's second
#: word is replica * _INDICES + setting)
_INDICES = 1 << 32

MULTINOMIAL = "multinomial"
POISSON = "poisson"


class EmptySettingError(ValueError):
    """A setting recorded zero events, so frequencies are undefined."""


def _key_words(master_seed, replica_index, setting_index):
    """The two 64-bit words of one triple's Philox key, as Python ints."""
    # as Python ints, NumPy integers (np.arange indices) cannot overflow int64
    master, replica, setting = map(operator.index, (master_seed, replica_index, setting_index))
    if not 0 <= replica < _INDICES:
        raise ValueError("replica index out of the 32-bit seeding range")
    if not 0 <= setting < _INDICES:
        raise ValueError("setting index out of the 32-bit seeding range")
    return master & _MASK64, replica * _INDICES + setting


def stream(master_seed, replica_index=0, setting_index=0):
    """The dedicated random generator of one (master, replica, setting)."""
    key = np.array(_key_words(master_seed, replica_index, setting_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_stack(rng, method, master_seed, replicas, rates, *args):
    """Counts of a stack of replicas, shape (len(replicas),) + rates.shape.

    Row s of replica r is ``rng.<method>(*args, rates[s])`` drawn from the
    start of the stream ``stream(master_seed, r, s)``, whatever ``rng``
    drew before.  The smallest and the largest replica index are checked
    before the first draw, so a stack with any index out of range draws
    nothing, and the method is bound once; each row then swaps only the
    key of one reused Philox state and draws straight into its place in
    the stack.  The counts are stored as floats, exact below 2**53, so
    callers normalize the stack in place and no integer copy of it is
    held.
    """
    # the stack's extreme keys: every key between them is in range too
    _key_words(master_seed, min(replicas, default=0), 0)
    _key_words(master_seed, max(replicas, default=0), len(rates) - 1)
    rows = list(rates)
    counts = np.empty((len(replicas),) + rates.shape)
    # a fresh Philox: counter 0 and an empty output buffer (the state setter
    # copies the words out of plain tuples faster than out of arrays)
    keyed = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": keyed, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bit_generator = rng.bit_generator
    draw = functools.partial(getattr(rng, method), *args)
    for out, replica in zip(counts, replicas):
        master, last = _key_words(master_seed, replica, len(rows) - 1)
        for s, word in enumerate(range(last + 1 - len(rows), last + 1)):
            keyed["key"] = (master, word)
            bit_generator.state = state
            out[s] = draw(rows[s])
    return counts


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
