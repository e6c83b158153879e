"""End-to-end acceptance checks at desk scale (N = 1e6).

The verification table is defined once, as ``torusavg.cli.CRITERIA``;
``torusavg verify`` prints the same rows.  Each criterion becomes one test
here, and each of its rows prints one PASS/FAIL line, so the whole table can
be read off ``pytest tests/test_acceptance.py -v -s``.
"""

from torusavg.cli import CRITERIA, print_rows
from torusavg.engine import Schedule

SCHED = Schedule.geometric(10 ** 6)


def _acceptance_test(criterion):
    def test():
        rows = criterion(SCHED, 1.0)
        print_rows(rows)
        assert all(r["passed"] for r in rows), rows
    return test


for _i, _criterion in enumerate(CRITERIA, 1):
    _name = f"test_criterion_{_i:02d}_{_criterion.__name__}"
    globals()[_name] = _acceptance_test(_criterion)
