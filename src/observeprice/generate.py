"""Random market instances with validity guarantees.

The generator draws structure and amounts from plain distributions, then
checks the drawn instance against the mechanism's standing assumptions for
the target alpha and resamples on failure (bounded retries, deterministic for
a fixed seed). ``matched_family`` builds the instance families used by the
ratio and event experiments: the per-entity footprint stays at alpha * tau
while tau scales like 5/alpha, so points differ only in scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .market import (
    AdvertiserSpec,
    Instance,
    MediatorSpec,
    advertiser_id,
    mediator_id,
    random_tie_order,
    validate_instance,
)


class GenerationError(Exception):
    pass


@dataclass(frozen=True)
class DistSpec:
    """A small closed family of distributions.

    kinds: "constant" (value), "uniform" (low..high inclusive ints),
    "lognormal" (mu/sigma floats, shift int; result shift + floor(1e6 * e^X)
    micro-units).
    """

    kind: str
    value: int = 0
    low: int = 0
    high: int = 0
    mu: float = 0.0
    sigma: float = 1.0
    shift: int = 0

    def sample(self, rng: random.Random) -> int:
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return rng.randint(self.low, self.high)
        if self.kind == "lognormal":
            try:
                return self.shift + int(rng.lognormvariate(self.mu, self.sigma) * 10**6)
            except OverflowError:
                raise GenerationError(f"lognormal:{self.mu}:{self.sigma} drew an amount too large to represent") from None
        raise ValueError(f"unknown distribution kind {self.kind!r}")


def constant(value: int) -> DistSpec:
    return DistSpec("constant", value=value)


def uniform(low: int, high: int) -> DistSpec:
    if low > high:
        raise ValueError("empty uniform range: low is above high")
    return DistSpec("uniform", low=low, high=high)


def lognormal(mu: float, sigma: float, shift: int = 0) -> DistSpec:
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ValueError(f"lognormal MU and SIGMA must be finite, got {mu} and {sigma}")
    if sigma <= 0:  # lognormvariate needs sigma > 0; a negative one mirrors the draw
        raise ValueError(f"lognormal SIGMA must be > 0, got {sigma}")
    return DistSpec("lognormal", mu=mu, sigma=sigma, shift=shift)


@dataclass(frozen=True)
class GeneratorConfig:
    n_mediators: int
    n_advertisers: int
    users_per_mediator: DistSpec
    capacity: DistSpec
    cost: DistSpec
    value: DistSpec
    alpha: Fraction
    seed: int = 0
    max_retries: int = 50


def generate_instance(config: GeneratorConfig) -> Instance:
    """Draw until the instance passes validation for config.alpha."""
    rng = random.Random(config.seed)
    last_violations: tuple[str, ...] = ()
    for _ in range(config.max_retries):
        mediators = []
        for i in range(config.n_mediators):
            n_users = max(0, config.users_per_mediator.sample(rng))
            costs = tuple(max(0, config.cost.sample(rng)) for _ in range(n_users))
            mediators.append(MediatorSpec(mediator_id(i), costs))
        advertisers = []
        for j in range(config.n_advertisers):
            cap = max(1, config.capacity.sample(rng))
            value = max(0, config.value.sample(rng))
            advertisers.append(AdvertiserSpec(advertiser_id(j), cap, value))
        ids = [m.id for m in mediators] + [a.id for a in advertisers]
        instance = Instance(tuple(mediators), tuple(advertisers), random_tie_order(ids, rng))
        report = validate_instance(instance, config.alpha)
        if report.ok:
            return instance
        last_violations = report.violations
    raise GenerationError(
        f"no valid instance after {config.max_retries} draws; last violations: {'; '.join(last_violations)}"
    )


# The most entities a matched family may have (2/alpha of them). It is about
# 40 times the top rung of the scale ladder (alpha = 1/1280, 2,560 entities),
# and a family near it builds in under a second; the build grows linearly, so
# a far larger one would run for hours before anything refused it.
MAX_FAMILY_ENTITIES = 100_000


def matched_family(
    alpha: Fraction, seed: int = 0, group_size: int = 5, sigma: float = 3.0
) -> Instance:
    """One instance of the scale-matched experiment family.

    tau = group_size / alpha exactly: every mediator brings group_size users,
    every advertiser group_size slots, and every user cost sits below every
    slot value so the offline optimum trades everything. Costs are uniform,
    values heavy-tailed, which concentrates most of the optimal gain in the
    best few trades; larger sigma concentrates it harder. A family of more
    than ``MAX_FAMILY_ENTITIES`` entities is a ``ValueError``, raised before
    anything is built.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    per_side = 1 / alpha  # tau = per_side * group_size, so alpha * tau = group_size exactly
    if per_side.denominator != 1:
        raise ValueError(f"1/alpha = {per_side} must be an integer for the matched family")
    if 2 * per_side > MAX_FAMILY_ENTITIES:
        raise ValueError(
            f"alpha = {alpha} gives a matched family of {2 * per_side} entities,"
            f" more than MAX_FAMILY_ENTITIES = {MAX_FAMILY_ENTITIES}"
        )
    cost_high = 10**6  # one currency unit
    config = GeneratorConfig(
        n_mediators=int(per_side),
        n_advertisers=int(per_side),
        users_per_mediator=constant(group_size),
        capacity=constant(group_size),
        cost=uniform(0, cost_high),
        value=lognormal(mu=0.7, sigma=sigma, shift=cost_high + 1),
        alpha=alpha,
        seed=seed,
    )
    return generate_instance(config)
