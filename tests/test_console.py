"""Command-line checks run as fresh processes, each one in its own directory:
what a user sees on stdout, byte for byte."""

import hashlib
import os
import subprocess
import sys

import pytest

import garside_al

SRC = os.path.dirname(os.path.dirname(garside_al.__file__))


def cli(tmp_path, *args):
    """stdout of python -m garside_al.cli with args, run in tmp_path; the
    command must exit 0 (CalledProcessError otherwise)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "garside_al.cli", *args], cwd=tmp_path,
                          env=env, capture_output=True, check=True).stdout


# normal forms of 40 and 41 factors whose first 10 agree
PATH_LEFT = ("s4^2 s2^3 s7^3 s1^3 s2^3 s6^3 s1^2 s6^2 s5^3 s2^3 s6^3 s5^2 s7^2 s5^3 s4^3 "
             "s2^2 s6^3 s1^2 s5^2 s6^2 s7^2 s5^2 s1^2 s5^3 s4^3 s6^3 s4^2 s5^3 s2^2 s5^3 "
             "s7^3 s1^3 s3^3 s6^3 s1^2 s2^2 s3^2 s7^2 s2^2 s4^2 s2^3 s4^3 s3^3 s5^3 s4^3")
PATH_RIGHT = ("s4^2 s2^3 s7^3 s1^3 s2^3 s6^3 s1^2 s6^2 s5^3 s2^3 s6^3 s5^2 s4^3 s3^2 s4^3 "
              "s3^2 s7^2 s5^2 s2^3 s6^2 s7^3 s5^2 s1^2 s7^2 s3^2 s6^3 s1^2 s5^2 s6^3 s2^3 "
              "s1^2 s7^2 s5^2 s1^2 s6^2 s3^2 s6^2 s3^2 s7^2 s6^2 s3^2 s5^3 s3^3 s4^3 s1^2 s4^3")


def test_preferred_path_on_a_long_eight_strand_pair_is_pinned(tmp_path):
    # the path has 58 edges, and its text and JSON are pinned byte for byte
    text = cli(tmp_path, "path", "--n", "8", PATH_LEFT, PATH_RIGHT)
    data = cli(tmp_path, "path", "--n", "8", PATH_LEFT, PATH_RIGHT, "--json")
    assert text.split(b"\n", 1)[0] == b"58 edges"
    assert hashlib.sha256(text).hexdigest() == \
        "e429e552c07489660e92af278238d58df809072db739d8d07360acdeaaec1d47"
    assert hashlib.sha256(data).hexdigest() == \
        "3c40f7dac1c885869eacb991c335c739b04752328c43eabfbfa61e3167b712e4"


@pytest.mark.parametrize("suite", ("kernel", "complex"))
@pytest.mark.parametrize("seed", range(1, 6))
def test_gcd_overlap_and_gcd_walk_checks_pass_on_fresh_seeds(tmp_path, suite, seed):
    # the kernel suite checks gcds, the complex suite the gcd vertex,
    # overlaps and the gcd walks of thin triangles: each exits 0
    out = cli(tmp_path, "verify", suite, "--seed", str(seed))
    assert out.endswith(f"suite {suite}: PASS\n".encode())
