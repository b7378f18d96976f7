"""Seeded synthetic populations with planted survival groups.

Each subject draws a group, an exponential lifetime at that group's hazard
rate, and a uniform entry time; censoring happens at the study horizon.
Signature features shift per group (unit-variance normals around the
group's means) while noise features are standard normal everywhere.
Random streams are keyed per subject by (seed, index), so generation order
or parallelism cannot change the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Feature, FeatureSchema, SurvivalDataset
from .errors import InvalidConfigError


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence: pool size, hash and mix constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_BLOCK = 2**14  # subjects whose stream states are hashed together (512 KB of states)


@dataclass(frozen=True)
class GroupSpec:
    """Mixture component: selection weight, hazard rate, signature means."""

    weight: float
    hazard_rate: float
    feature_means: tuple[float, ...]


@dataclass(frozen=True)
class SynthConfig:
    groups: tuple[GroupSpec, ...]
    n_subjects: int
    entry_window: float
    study_duration: float
    noise_features: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise InvalidConfigError("need at least one group")
        numbers = [self.entry_window, self.study_duration]
        for g in self.groups:
            numbers += [g.weight, g.hazard_rate, *g.feature_means]
        if not all(map(math.isfinite, numbers)):
            raise InvalidConfigError("weights, hazard rates, feature means, entry window "
                                     "and study duration must be finite")
        if abs(sum(g.weight for g in self.groups) - 1.0) > 1e-9:
            raise InvalidConfigError("group weights must sum to 1")
        if any(g.weight < 0 for g in self.groups):
            raise InvalidConfigError("group weights must be nonnegative")
        if any(g.hazard_rate <= 0 for g in self.groups):
            raise InvalidConfigError("hazard rates must be positive")
        sig = {len(g.feature_means) for g in self.groups}
        if len(sig) != 1:
            raise InvalidConfigError("all groups must declare the same number of signature features")
        if self.n_subjects < 1:
            raise InvalidConfigError("n_subjects must be at least 1")
        if self.entry_window < 0 or self.study_duration <= 0:
            raise InvalidConfigError("entry window and study duration must be positive")
        if self.study_duration < self.entry_window:
            raise InvalidConfigError(
                "study duration must cover the entry window (no negative censor times)")
        if self.noise_features < 0:
            raise InvalidConfigError("noise_features must be nonnegative")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidConfigError("seed must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))
        if self.n_subjects > 2**32:  # a larger index takes a second entropy word
            raise InvalidConfigError("n_subjects must be at most 2**32")

    @property
    def n_signature(self) -> int:
        return len(self.groups[0].feature_means)

    def schema(self) -> FeatureSchema:
        sig = tuple(Feature(f"sig{i}", "numeric") for i in range(self.n_signature))
        noise = tuple(Feature(f"noise{i}", "numeric") for i in range(self.noise_features))
        return FeatureSchema(sig + noise)


def default_group_specs(n_groups: int, n_signature: int = 5,
                        rate_base: float = 1.0, rate_decay: float = 0.4) -> tuple[GroupSpec, ...]:
    """Equal-weight groups with geometrically decaying hazards, means 3 apart."""
    if n_groups < 1:
        raise InvalidConfigError("need at least one group")
    if n_signature < 0:
        raise InvalidConfigError("n_signature must be nonnegative")
    weight = 1.0 / n_groups
    return tuple(
        GroupSpec(weight, rate_base * rate_decay ** g,
                  tuple(3.0 * g for _ in range(n_signature)))
        for g in range(n_groups))


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int, ``[0]`` for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """Endless ``(xor, mult)`` constant pairs of successive SeedSequence hash steps."""
    while True:
        nxt = init * mult & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hash(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult  # uint32 arrays wrap as the C code does
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> 16)


def _stream_states(seed: int, index: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence([seed, index[i]]).generate_state(4, np.uint64)``.

    numpy's SeedSequence hash, computed for every index at once: the hash
    constants evolve alike for every row, so each step is one uint32 array
    operation. Indices must be below 2**32 (one entropy word each).
    """
    index = np.asarray(index, dtype=np.uint64)
    if index.size and index.max() > _MASK32:
        raise ValueError("stream index must be below 2**32")
    entropy = [np.full(index.shape, w, np.uint32) for w in _words(seed)]
    entropy.append(index.astype(np.uint32))
    entropy += [np.zeros(index.shape, np.uint32)] * (_POOL - len(entropy))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, constants) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word in entropy[_POOL:]:  # seeds of 2**96 and more
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hash(pool[k % _POOL], constants).astype(np.uint64) for k in range(2 * _POOL)]
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(state[::2], state[1::2])],
                    axis=1)


def _streams(seed: int, n: int):
    """The generators ``np.random.default_rng([seed, i])`` for i in range(n),
    seeded from states hashed one block of subjects at a time."""
    # imported here, not with the module: importing numpy.random is slow
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        """Hands PCG64 one precomputed ``generate_state(4, np.uint64)`` row."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    for start in range(0, n, _BLOCK):
        for state in _stream_states(seed, np.arange(start, min(n, start + _BLOCK))):
            yield np.random.Generator(np.random.PCG64(Seeded(state)))


def generate(config: SynthConfig) -> tuple[SurvivalDataset, np.ndarray]:
    """Draw the dataset plus ground-truth group labels, reproducibly.

    Subject i draws from ``np.random.default_rng([seed, i])``'s stream.
    The per-subject loop only draws. The rest is whole-array arithmetic in
    the form numpy's own distributions take, so every bit matches drawing
    each subject with ``exponential(scale)`` (``scale * standard_exponential()``),
    ``uniform(0, w)`` (``0 + w * random()``) and ``normal(loc, 1)``
    (``loc + 1 * standard_normal()``).
    """
    n, n_sig = config.n_subjects, config.n_signature
    u, unit_lifetime, unit_entry = np.empty(n), np.empty(n), np.empty(n)
    z = np.empty((n, n_sig + config.noise_features))
    for i, rng in enumerate(_streams(config.seed, n)):
        u[i] = rng.random()
        unit_lifetime[i] = rng.standard_exponential()
        unit_entry[i] = rng.random()
        rng.standard_normal(out=z[i])
    cum = np.cumsum([g.weight for g in config.groups])
    labels = np.minimum(cum.searchsorted(u, side="right"), len(config.groups) - 1)
    scales = 1.0 / np.array([g.hazard_rate for g in config.groups])
    means = np.array([g.feature_means for g in config.groups], dtype=float)
    lifetime = scales[labels] * unit_lifetime
    horizon = config.study_duration - (0.0 + config.entry_window * unit_entry)
    events = lifetime <= horizon
    # in place, bit for bit loc + 1 * z: 1.0 * z is exact and + commutes
    z[:, :n_sig] += means[labels]
    z[:, n_sig:] += 0.0
    ids = [f"s{i:06d}" for i in range(n)]
    dataset = SurvivalDataset(config.schema(), ids, [*z.T],
                              np.where(events, lifetime, horizon), events)
    return dataset, labels
