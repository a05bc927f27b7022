"""End-to-end numbers against the committed golden fixture.

Four variants x decoder_hidden {0, 16}: checkpoint and loss-log bytes,
loss values, parameter norm, best-of-20 ADE/FDE and one M = 4 prediction
(see ``golden.py``). The test id names the comparison mode: "exact" where
this platform's fingerprint matches the fixture's, "values" (1e-9
relative) elsewhere. A mismatch fails in either mode.
"""

import pytest

import golden

FIXTURE = golden.load_fixture()
MODE = "exact" if FIXTURE["fingerprint"] == golden.fingerprint() else "values"


@pytest.mark.parametrize("mode", [MODE])
@pytest.mark.parametrize("name", golden.config_names())
def test_matches_golden(name, mode):
    bad = golden.mismatches(FIXTURE["configs"][name], golden.compute(name), mode == "exact")
    assert not bad, f"{name} ({mode} mode):\n" + "\n".join(bad)
