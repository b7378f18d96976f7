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
    weight = 1.0 / n_groups
    return tuple(
        GroupSpec(weight, rate_base * rate_decay ** g,
                  tuple(3.0 * g for _ in range(n_signature)))
        for g in range(n_groups))


def generate(config: SynthConfig) -> tuple[SurvivalDataset, np.ndarray]:
    """Draw the dataset plus ground-truth group labels, reproducibly.

    The per-subject loop only draws. The rest is whole-array arithmetic in
    the form numpy's own distributions take, so every bit matches drawing
    each subject with ``exponential(scale)`` (``scale * standard_exponential()``),
    ``uniform(0, w)`` (``0 + w * random()``) and ``normal(loc, 1)``
    (``loc + 1 * standard_normal()``).
    """
    n, n_sig = config.n_subjects, config.n_signature
    u, unit_lifetime, unit_entry = np.empty(n), np.empty(n), np.empty(n)
    z = np.empty((n, n_sig + config.noise_features))
    for i in range(n):
        rng = np.random.default_rng([config.seed, i])
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
