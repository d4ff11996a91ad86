"""The output digest matches the line recorded in tests/output_digest.txt.

A change that keeps every output of the library keeps the line; one that
changes an output must record the new line, and say why.
"""

from pathlib import Path

import output_digest


def test_the_output_digest_matches_the_recorded_line():
    recorded = Path(__file__).with_name("output_digest.txt").read_text().strip()
    assert output_digest.digest() == recorded
