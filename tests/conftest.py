"""Each test starts with empty exact-kernel caches.

A test that patches an inner layer (`_hnf_rows`, `_bareiss_pivots`,
`_hermite_transform`) must reach it, not a result an earlier test left in a
content-keyed cache; the order the tests run in then changes nothing.
"""

import pytest

from factoreq import exactla


@pytest.fixture(autouse=True)
def _clear_exact_caches():
    for fn in vars(exactla).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
