"""The opt-in switch for long tests.  Tests marked `long` run only with
CDCKIT_LONG_TESTS=1 in the environment, and are skipped otherwise:

    CDCKIT_LONG_TESTS=1 PYTHONPATH=src python -m pytest -q -m long
"""

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "long: a long test; runs with CDCKIT_LONG_TESTS=1")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CDCKIT_LONG_TESTS") == "1":
        return
    skip = pytest.mark.skip(reason="a long test; set CDCKIT_LONG_TESTS=1 to run it")
    for item in items:
        if item.get_closest_marker("long"):
            item.add_marker(skip)
