"""Shared fixtures and suite-wide pytest hooks.

The platform builders live in :mod:`tests.helpers`; this module wires
them into fixtures and re-exports the names older modules import from
``tests.conftest``.

Suite options:

* ``--chaos`` — run the heavier chaos-marked conformance variants
  (skipped by default to keep the tier-1 wall clock tight).
* ``--asyncio-transport`` — run the conformance scenarios over the real
  asyncio TCP transport (wall-clock timing, so slower than the sim).
* ``--shuffle`` / ``--shuffle-seed N`` — run the collected tests in a
  seeded random order.  CI runs a shuffled pass so hidden test-order
  coupling (module-level shared state leaking between tests) fails
  loudly instead of lurking.
"""

from __future__ import annotations

import random

import pytest

from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.sim.kernel import Environment

from tests.helpers import (  # noqa: F401  (re-exported for older imports)
    LISTING1_YAML,
    listing1_platform,
    make_platform,
    register_image_handlers,
)

# -- suite options -----------------------------------------------------------


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--chaos",
        action="store_true",
        default=False,
        help="run the heavier chaos-marked conformance variants",
    )
    parser.addoption(
        "--asyncio-transport",
        action="store_true",
        default=False,
        help="run conformance scenarios over the real asyncio transport",
    )
    parser.addoption(
        "--shuffle",
        action="store_true",
        default=False,
        help="run tests in a seeded random order to expose order coupling",
    )
    parser.addoption(
        "--shuffle-seed",
        type=int,
        default=0,
        help="seed for --shuffle (default 0)",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    if not config.getoption("--chaos"):
        skip_chaos = pytest.mark.skip(reason="needs --chaos")
        for item in items:
            if "chaos" in item.keywords:
                item.add_marker(skip_chaos)
    if not config.getoption("--asyncio-transport"):
        skip_aio = pytest.mark.skip(reason="needs --asyncio-transport")
        for item in items:
            if "asyncio_transport" in item.keywords:
                item.add_marker(skip_aio)
    if config.getoption("--shuffle"):
        random.Random(config.getoption("--shuffle-seed")).shuffle(items)


# -- fixtures ----------------------------------------------------------------


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def platform() -> Oparaca:
    """A 3-node platform with Listing 1 deployed."""
    return listing1_platform()


@pytest.fixture
def bare_platform() -> Oparaca:
    """A 3-node platform with nothing deployed."""
    return Oparaca(PlatformConfig(nodes=3))
