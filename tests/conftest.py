import pytest

import seqprod.axioms


@pytest.fixture(autouse=True)
def empty_memo():
    # the axiom driver keeps the draws and builds of its last run for the
    # next run at the same schedule; each test starts without them
    seqprod.axioms._memo = seqprod.axioms._Memo()
