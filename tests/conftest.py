"""Every test starts and ends in a fresh memo scope.

A fault-injection test that fails before its own ``clear_memos()`` would
otherwise leave memo entries computed under its patch for the tests after
it.  Values cached on a relation itself (``halves``, the weighted halves
and ``pairing``) outlive ``clear_memos``, so a test that patches how they
are formed builds its relations after installing the patch.
"""

import pytest

from relcalc.linalg import clear_memos


@pytest.fixture(autouse=True)
def fresh_memo_scope():
    clear_memos()
    yield
    clear_memos()
