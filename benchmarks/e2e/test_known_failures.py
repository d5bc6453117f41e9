"""Known failures of the program that the e2e benchmark works around.

``tcp-dl48-n8`` overrides ``timeout_rounds`` to 60.  Over tcp that value
is the wall-clock receive deadline in seconds (``run_distributed`` uses
``max(5, timeout_rounds)``).  At the default of 6, proto's instance at
n=16 puts 17 party processes and a coordinator on a 2-core host; a
receiver whose sender is merely descheduled misses the deadline, and
the coordinator blames an innocent party (P1, in ``submission``) with
``PartyTimeout``.  The test below pins that: it xfails while the bug
stands and passes once the deadline is fixed, at which point it should
become a plain test and the workload's override can go.  Run from the
repository root:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_known_failures.py
"""

import dataclasses

import pytest

from repro.runtime.errors import PartyTimeout
from workloads import WORKLOADS, make_framework


@pytest.mark.xfail(strict=False, raises=PartyTimeout,
                   reason="6 s tcp deadline misfires at n=16 on 2 cores")
def test_tcp_default_deadline_n16():
    workload = dataclasses.replace(
        WORKLOADS["tcp-dl48-n8"], n=16, timeout_rounds=6
    )
    framework = make_framework(workload, seed=1)
    result = framework.run()
    assert framework.check_result(result) == []
