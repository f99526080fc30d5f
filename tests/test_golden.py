"""Every CLI output of the three golden runs is byte-identical to the digest
recorded in golden.json (see golden.py for the runs and how to re-record)."""

import json

from golden import GOLDEN, RECORD_COMMAND, digests, versions


def test_cli_outputs_match_golden_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = digests(tmp_path)
    if actual == recorded["runs"]:
        return
    changed = sorted(
        f"{run}/{name}"
        for run in recorded["runs"].keys() | actual.keys()
        for name in recorded["runs"].get(run, {}).keys() | actual.get(run, {}).keys()
        if recorded["runs"].get(run, {}).get(name) != actual.get(run, {}).get(name)
    )
    raise AssertionError(
        f"{len(changed)} CLI outputs differ from {GOLDEN.name}: {', '.join(changed)}\n"
        f"recorded with {recorded['versions']}, running with {versions()}.\n"
        f"If the change is deliberate, re-record with `{RECORD_COMMAND}` "
        "and say why in CHANGES.md."
    )
