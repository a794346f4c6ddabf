"""The benchmark's golden digests (`perfbench/golden.json`) and criterion 9's
(`test_acceptance.GOLDEN_SHA256`) pin the same bundled outputs. A declared
output change must move both tables; this test fails when it moves one."""

import json
from pathlib import Path

from test_acceptance import GOLDEN_SHA256

GOLDEN_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def test_benchmark_golden_digests_match_criterion_9():
    with open(GOLDEN_JSON, encoding="utf-8") as fh:
        golden = json.load(fh)
    pinned = {(scenario, fname): digest
              for outputs in golden.values()  # per subcommand
              for scenario, files in outputs.items()
              for fname, digest in files.items()}
    assert len(pinned) == 13
    assert {key: GOLDEN_SHA256.get(key) for key in pinned} == pinned
