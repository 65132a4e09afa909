"""Instance generation: distribution specs, validity retries, matched families."""

import random
from fractions import Fraction

import pytest

from observeprice import (
    GenerationError,
    GeneratorConfig,
    generate_instance,
    matched_family,
    validate_instance,
)
from observeprice import generate
from observeprice.generate import DistSpec, constant, lognormal, uniform


def test_dist_spec_sampling():
    rng = random.Random(0)
    assert constant(7).sample(rng) == 7
    for _ in range(100):
        x = uniform(3, 9).sample(rng)
        assert 3 <= x <= 9
    shifted = lognormal(0.0, 1.0, shift=500)
    assert all(shifted.sample(rng) >= 500 for _ in range(100))
    with pytest.raises(ValueError):
        DistSpec("cauchy").sample(rng)


def test_lognormal_refuses_a_sigma_that_is_not_positive():
    """``lognormvariate`` needs sigma > 0: a negative one would silently draw
    the mirrored distribution, so the spec is refused before it draws."""
    for sigma in (0.0, -1.0, -1e-300):
        with pytest.raises(ValueError, match=r"^lognormal SIGMA must be > 0, got "):
            lognormal(0.0, sigma)
    assert lognormal(0.0, 1e-300).sigma == 1e-300


def test_generated_instances_validate():
    for seed in range(20):
        config = GeneratorConfig(
            n_mediators=4,
            n_advertisers=4,
            users_per_mediator=uniform(1, 3),
            capacity=uniform(1, 3),
            cost=uniform(0, 10**6),
            value=uniform(0, 2 * 10**6),
            alpha=Fraction(1),
            seed=seed,
        )
        inst = generate_instance(config)
        assert validate_instance(inst, Fraction(1)).ok
        assert inst.n_entities == 8


def test_generation_is_deterministic():
    config = GeneratorConfig(
        n_mediators=3,
        n_advertisers=3,
        users_per_mediator=constant(2),
        capacity=constant(2),
        cost=uniform(0, 10**6),
        value=uniform(10**6, 2 * 10**6),
        alpha=Fraction(1, 2),
        seed=42,
    )
    assert generate_instance(config) == generate_instance(config)


def test_generation_gives_up_on_impossible_shapes():
    config = GeneratorConfig(
        n_mediators=1,
        n_advertisers=1,
        users_per_mediator=constant(5),
        capacity=constant(1),
        cost=constant(0),
        value=constant(10**6),
        alpha=Fraction(1),
        seed=0,
        max_retries=5,
    )
    with pytest.raises(GenerationError):
        generate_instance(config)


def test_matched_family_is_deterministic_and_scales():
    a = matched_family(Fraction(1, 20), seed=3)
    b = matched_family(Fraction(1, 20), seed=3)
    c = matched_family(Fraction(1, 20), seed=4)
    assert a == b
    assert a != c
    small = matched_family(Fraction(1, 5), seed=0)
    big = matched_family(Fraction(1, 80), seed=0)
    assert len(big.mediators) == 16 * len(small.mediators)


def test_matched_family_checks_its_size_before_building(monkeypatch):
    """A family above MAX_FAMILY_ENTITIES is refused before anything is
    generated; the scale ladder's top rung, alpha = 1/1280 (2,560
    entities), still reaches the generator."""
    def refuse(config):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(generate, "generate_instance", refuse)
    with pytest.raises(ValueError, match=r"^alpha = 1/1000000000 gives a matched family of 2000000000 entities"):
        matched_family(Fraction(1, 10**9))
    with pytest.raises(ValueError, match=r"more than MAX_FAMILY_ENTITIES"):
        matched_family(Fraction(1, generate.MAX_FAMILY_ENTITIES // 2 + 1))
    built = []
    monkeypatch.setattr(generate, "generate_instance", built.append)
    matched_family(Fraction(1, 1280))
    matched_family(Fraction(1, generate.MAX_FAMILY_ENTITIES // 2))
    assert [config.n_mediators + config.n_advertisers for config in built] == [2560, generate.MAX_FAMILY_ENTITIES]


def test_matched_family_sigma_widens_values():
    tame = matched_family(Fraction(1, 20), seed=0, sigma=0.1)
    wild = matched_family(Fraction(1, 20), seed=0, sigma=3.0)
    spread = lambda inst: max(a.value for a in inst.advertisers) - min(
        a.value for a in inst.advertisers
    )
    assert spread(wild) > spread(tame)


def test_matched_family_costs_below_values():
    inst = matched_family(Fraction(1, 10), seed=1)
    max_cost = max(c for m in inst.mediators for c in m.user_costs)
    min_value = min(a.value for a in inst.advertisers)
    assert max_cost < min_value
