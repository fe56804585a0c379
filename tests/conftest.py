"""`suite_report`, the seed-0 `verify all` report, is built once per session
for the tests that only read it.
"""

import pytest

from factoreq import run_suites


@pytest.fixture(scope="session")
def suite_report():
    return run_suites("all", seed=0)
