#!/usr/bin/env python3
"""Fail unless a JUnit report of the tier-1 suite shows exactly the known reds.

    python ci/expected_reds.py tier1.xml

The README ("Acceptance suite and the four known red tests") documents four
acceptance tests that fail as written: criterion 3 under each of the three
batch schemes and criterion 4.  Their clause sits below the stochastic noise
floor, so they stay red and unedited.  This script exits 0 when the tests
that failed or errored are exactly those four and at least one test passed;
otherwise it prints the differences and exits 1.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_REDS = {
    "tests.test_acceptance::test_criterion_3_convergence_deterministic[segment]",
    "tests.test_acceptance::test_criterion_3_convergence_deterministic[no_repetition]",
    "tests.test_acceptance::test_criterion_3_convergence_deterministic[stratified]",
    "tests.test_acceptance::test_criterion_4_convergence_adaptive",
}


def outcomes(path: str) -> tuple[set[str], int]:
    """(ids of failed or errored test cases, number of passed ones)."""
    red, passed = set(), 0
    for case in ET.parse(path).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            red.add(test_id)
        elif case.find("skipped") is None:
            passed += 1
    return red, passed


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    red, passed = outcomes(argv[0])
    unexpected, missing = sorted(red - EXPECTED_REDS), sorted(EXPECTED_REDS - red)
    for test_id in unexpected:
        print(f"unexpected failure: {test_id}")
    for test_id in missing:
        print(f"documented red test did not fail: {test_id}")
    print(f"{passed} passed, {len(red)} failed ({len(EXPECTED_REDS)} documented reds)")
    return 0 if passed and not unexpected and not missing else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
