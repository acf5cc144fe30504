"""Shared fixtures: the canonical suite of chains and pairs."""

import pytest

from markovmix import (
    ChainPair,
    birth_death,
    complete_graph,
    lazy_cycle,
    random_dense,
    two_state,
)


def pytest_configure(config):
    """Run every property test with fixed examples and no deadline.

    ``derandomize`` draws the same examples on every run, so two runs of the
    suite check the same inputs. hypothesis is imported here rather than at
    the top, so that loading this module for its chain builders alone stays
    cheap.
    """
    from hypothesis import settings

    settings.register_profile("markovmix", deadline=None, derandomize=True)
    settings.load_profile("markovmix")


# The two kernels most closed-form values are anchored to.
LAZY = (0.25, 0.25)
ASYM = (0.2, 0.4)


@pytest.fixture(scope="session")
def lazy():
    return two_state(*LAZY)


@pytest.fixture(scope="session")
def asym():
    return two_state(*ASYM)


@pytest.fixture(scope="session")
def lazy_asym_pair(lazy, asym):
    return ChainPair(lazy, asym)


def build_suite_chains():
    """Two-state variants, lazy cycles, complete graphs, 10 seeded dense chains."""
    chains = {
        "lazy": two_state(*LAZY),
        "asym": two_state(*ASYM),
        "uniform2": two_state(0.5, 0.5),
        "lazy_cycle3": lazy_cycle(3, 0.5),
        "lazy_cycle5": lazy_cycle(5, 0.5),
        "complete3": complete_graph(3, 0.5),
        "complete5": complete_graph(5, 0.5),
    }
    for i in range(10):
        n = 3 + (i % 6)
        chains[f"dense{n}_seed{i}"] = random_dense(n, seed=i)
    return chains


def build_suite_pairs():
    """Ten pairs with matched dimensions covering every generator family."""
    pairs = {
        "lazy-to-asym": ChainPair(two_state(*LAZY), two_state(*ASYM)),
        "asym-to-lazy": ChainPair(two_state(*ASYM), two_state(*LAZY)),
        "lazy-to-uniform2": ChainPair(two_state(*LAZY), two_state(0.5, 0.5)),
        "cycle3-to-complete3": ChainPair(lazy_cycle(3, 0.5), complete_graph(3, 0.5)),
        "complete3-to-dense3": ChainPair(complete_graph(3, 0.5), random_dense(3, seed=0)),
        "cycle5-to-complete5": ChainPair(lazy_cycle(5, 0.5), complete_graph(5, 0.5)),
        "complete5-to-bd5": ChainPair(complete_graph(5, 0.5), birth_death(5, 0.3, 0.4)),
        "dense4-to-dense4": ChainPair(random_dense(4, seed=1), random_dense(4, seed=2)),
        "bd4-to-dense4": ChainPair(birth_death(4, 0.25, 0.25), random_dense(4, seed=3)),
        "dense6-to-dense6": ChainPair(random_dense(6, seed=4), random_dense(6, seed=5)),
    }
    assert len(pairs) == 10
    return pairs


@pytest.fixture(scope="session")
def suite_chains():
    return build_suite_chains()


@pytest.fixture(scope="session")
def suite_pairs():
    return build_suite_pairs()
