"""Each test starts with empty exact-kernel caches.

A test that patches an inner layer (`_hnf_rows`, `_bareiss_pivots`,
`_hermite_transform`) must reach it, not a result an earlier test left in a
content-keyed cache; the order the tests run in then changes nothing.
`suite_report`, the seed-0 `verify all` report, is built once per session
for the tests that only read it.
"""

import pytest

from factoreq import exactla, run_suites


@pytest.fixture(scope="session")
def suite_report():
    return run_suites("all", seed=0)


@pytest.fixture(autouse=True)
def _clear_exact_caches():
    for fn in vars(exactla).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
