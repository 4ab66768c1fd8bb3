"""FC(5,7) = 14 and FC(6,8) = 26 end to end, with the Non-FC class count of
every (universe size u, m) cell up to the value.

At jobs=1 the runs take 43 s and 175 s on a 2-core Intel Xeon virtual
machine with Python 3.11.7, so both are marked `slow` and deselected by
default.  Run them with

    PYTHONPATH=src python -m pytest -m slow tests/test_pinned_values.py
"""

import pytest

from fcfam.enumfam import fc_value
from fcfam.verify import verify_certificate

# u: Non-FC class counts for m = 1..value-1, then 0 at m = value
FC57_ROWS = {
    5: [1] + [0] * 13,
    6: [0, 1, 1, 1, 1, 1] + [0] * 8,
    7: [0, 1, 4, 9, 20, 40, 65, 97, 131, 148, 148, 130, 2, 0],
}
FC68_ROWS = {
    6: [1] + [0] * 25,
    7: [0, 1, 1, 1, 1, 1, 1] + [0] * 19,
    8: [0, 1, 4, 10, 23, 55, 114, 221, 402, 663, 980, 1312, 1557, 1646, 1557, 1312, 980,
        663, 402, 221, 115, 56, 24, 11, 5, 0],
}


@pytest.mark.slow
@pytest.mark.parametrize(
    "k,n,value,rows", [(5, 7, 14, FC57_ROWS), (6, 8, 26, FC68_ROWS)], ids=["fc57", "fc68"]
)
def test_pinned_fc_value(k, n, value, rows):
    rep = fc_value(k, n)
    assert (rep.status, rep.value) == ("found", value)
    assert rep.counts == {(u, m): c for u, row in rows.items() for m, c in enumerate(row, 1)}
    assert len(rep.witness.members) == value - 1
    assert verify_certificate(rep.witness_certificate).passed
