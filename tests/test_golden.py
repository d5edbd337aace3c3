"""The golden corpus (tests/golden.py): every corpus command's exit code,
stdout and stderr are byte-identical to the recorded ones."""

import pytest

import golden


def test_cli_outputs_match_the_golden_corpus():
    reason = golden.skip_reason()
    if reason:
        pytest.skip(reason)
    diffs = golden.check()
    assert not diffs, "\n".join(diffs)
