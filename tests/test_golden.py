"""Golden command line outputs: each command on each sample config in
configs/, as csv, against the stdout (with the ms column masked), stderr and
exit status recorded in golden_cli.json next to this file.  A change meant
to alter that output records the file again with

    PYTHONPATH=src python tests/test_golden.py

and the diff of golden_cli.json shows what changed."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from rghw.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
COMMANDS = (
    ["hilbert"],
    ["vanishing-ideal"],
    ["code-info"],
    ["weights", "--with-bruteforce"],
    ["matrix"],
)


def runs():
    """(key, argv) per run: every config in configs/ under every command."""
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        for command in COMMANDS:
            argv = [command[0], "--config", str(config), "--format", "csv"] + command[1:]
            yield f"{config.relative_to(ROOT)} {' '.join(command)}", argv


def outcome(argv):
    """Exit status, stdout and stderr of one in-process run, with the ms
    column of `weights` rows replaced by MS."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    stdout = out.getvalue()
    if argv[0] == "weights" and stdout:
        header, *rows = stdout.splitlines()
        stdout = "\n".join([header] + [row.rsplit(",", 1)[0] + ",MS" for row in rows]) + "\n"
    return {"status": status, "stdout": stdout, "stderr": err.getvalue()}


GOLDEN_RUNS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_sample_config_run_is_recorded():
    assert sorted(key for key, _ in runs()) == sorted(GOLDEN_RUNS)


@pytest.mark.parametrize("key, argv", list(runs()), ids=[key for key, _ in runs()])
def test_cli_output_matches_golden(key, argv):
    assert outcome(argv) == GOLDEN_RUNS[key]


if __name__ == "__main__":
    recorded = {key: outcome(argv) for key, argv in runs()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} runs in {GOLDEN}", file=sys.stderr)
