"""Byte-for-byte replay of a fixed CLI transcript.

`cli_transcript.json` lists command lines with the stdout, stderr and exit
code each one produced when the file was recorded.  The list covers every
subcommand in text and `--json` form and every documented exit code but
the internal-error code 4, which no correct command reaches (0 answer,
1 failed verification, 2 usage, 3 exhausted budget).  Each case
is replayed through `cli.main` in-process, with no `GARSIDE_AL_*` variable
set and no config file in the working directory.

The cases avoid argparse's own messages, whose layout varies between Python
versions, and budgets whose outcome depends on what an earlier search in
the same process left cached.  To record the file again after an intended
output change, run `python tests/test_cli_transcript.py` from the repository
root with the package importable.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from garside_al import cli

DATA = pathlib.Path(__file__).with_name("cli_transcript.json")


def replay(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "out": out.getvalue(),
            "err": err.getvalue()}


def test_transcript_replays_byte_for_byte(monkeypatch, tmp_path):
    for key in [k for k in os.environ if k.startswith("GARSIDE_AL_")]:
        monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    cases = json.loads(DATA.read_text())
    assert {c["code"] for c in cases} == {0, 1, 2, 3}
    for case in cases:
        assert replay(case["argv"]) == case, case["argv"]


if __name__ == "__main__":
    cases = json.loads(DATA.read_text())
    for key in [k for k in os.environ if k.startswith("GARSIDE_AL_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        recorded = [replay(c["argv"]) for c in cases]
    DATA.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} cases", file=sys.stderr)
