"""Word syntax, display formats, and the command line front end.

CLI tests call cli.main(argv) in-process and read captured stdout; exit
codes follow the documented contract (0 answers, 1 failed verification,
2 usage, 3 exhausted search budget).
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st_

from garside_al import braid, braid_structure, cli, delta_power, multiply, power
from garside_al.suites import SuiteCheck, SuiteResult, random_element
from garside_al.words import (
    WordSyntaxError,
    format_element,
    format_factors,
    one_line,
    parse_word,
)

B3 = braid_structure(3)
B4 = braid_structure(4)

EX2_WORD = "s1 s1 s2 s2 s3 s3 s2 s2 s1"


class TestWords:
    def test_empty_and_delta_spellings(self):
        assert parse_word(B3, "").is_identity
        assert parse_word(B3, "D^0").is_identity
        assert parse_word(B3, "D") == delta_power(B3, 1)
        assert parse_word(B3, "D^-2") == delta_power(B3, -2)

    def test_exponents_and_inverses(self):
        assert parse_word(B3, "s1^3") == parse_word(B3, "s1 s1 s1")
        assert parse_word(B3, "s1^-1 s1").is_identity
        assert parse_word(B3, "s2^-2") == power(parse_word(B3, "s2"), -2)

    def test_format_parse_round_trip(self):
        rng = random.Random(41)
        for _ in range(40):
            a = random_element(rng, B4, 5)
            assert parse_word(B4, format_element(a)) == a

    def test_identity_formats_to_one(self):
        one = parse_word(B3, "")
        assert format_element(one) == "1"
        assert parse_word(B3, "1") == one
        assert parse_word(B3, "s1 1 s1^-1 1") == one

    def test_negative_power_display(self):
        a = multiply(delta_power(B3, -1), parse_word(B3, "s1"))
        assert format_element(a) == "D^-1 s1"

    def test_factor_display_uses_bars(self):
        a = parse_word(B3, "s1 s1")
        assert format_factors(a) == "s1 | s1"

    def test_one_line_permutation_display(self):
        assert one_line(B3, B3.delta) == "321"

    def test_syntax_error_positions(self):
        with pytest.raises(WordSyntaxError, match="position 2"):
            parse_word(B3, "s1 t2")
        with pytest.raises(WordSyntaxError, match="position 1"):
            parse_word(B3, "s1^")

    def test_atom_range_errors(self):
        with pytest.raises(WordSyntaxError, match="out of range"):
            parse_word(B3, "s0")
        with pytest.raises(WordSyntaxError, match="out of range"):
            parse_word(B3, "s3")

    @given(st_.lists(st_.tuples(st_.integers(1, 3), st_.integers(-3, 3)),
                     max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_survives_arbitrary_letter_words(self, letters):
        text = " ".join(f"s{i}^{e}" for i, e in letters)
        a = parse_word(B4, text)
        assert parse_word(B4, format_element(a)) == a


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliCommands:
    def test_nf_prints_the_normal_form(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "s1 s2 s1", "--n", "3")
        assert code == 0 and out == "D\n"

    def test_rnf_matches_for_the_half_twist(self, capsys):
        code, out, _ = run_cli(capsys, "rnf", "s2 s1 s2", "--n", "3")
        assert code == 0 and out == "D\n"

    def test_stats_line(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "s1^-1", "--n", "3")
        assert code == 0 and out == "inf=-1 sup=0 len=1\n"

    def test_eq_answers_both_ways_with_exit_zero(self, capsys):
        assert run_cli(capsys, "eq", "s1 s2 s1", "s2 s1 s2", "--n", "3") == \
            (0, "equal\n", "")
        assert run_cli(capsys, "eq", "s1", "s2", "--n", "3") == \
            (0, "different\n", "")

    def test_gcd_and_right_gcd(self, capsys):
        assert run_cli(capsys, "gcd", "s1 s1", "s1 s2", "--n", "3")[1] == "s1\n"
        code, out, _ = run_cli(capsys, "gcd", "s1 s1", "s2 s1", "--n", "3",
                               "--right")
        assert code == 0 and out == "s1\n"

    def test_tau_flips_atoms(self, capsys):
        assert run_cli(capsys, "tau", "s1", "--n", "4")[1] == "s3\n"
        assert run_cli(capsys, "tau", "s1", "--n", "4", "--power", "2")[1] == \
            "s1\n"

    def test_complement_of_an_atom(self, capsys):
        assert run_cli(capsys, "complement", "s1", "--n", "3")[1] == "s2 s1\n"

    def test_rigid_verdicts(self, capsys):
        assert run_cli(capsys, "rigid", EX2_WORD.replace("s3", "s1"), "--n",
                       "4")[1] in ("rigid\n", "not rigid\n")
        assert run_cli(capsys, "rigid", "s1 s1 s2", "--n", "3")[1] == \
            "not rigid\n"

    def test_absorbable_with_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "absorbable", "s1", "--n", "3",
                               "--certificate")
        assert code == 0 and out == "absorbable\nabsorbed by s2\n"
        code, out, _ = run_cli(capsys, "absorbable", "s1 s2", "--n", "3")
        assert code == 0 and out == "not absorbable\n"

    def test_absorbable_prime_variant(self, capsys):
        code, out, _ = run_cli(capsys, "absorbable", "s1", "--n", "3",
                               "--prime")
        assert code == 0 and out.startswith("yes")

    def test_enum_absorbable_lists_the_atoms(self, capsys):
        code, out, _ = run_cli(capsys, "enum-absorbable", "--n", "3",
                               "--max-len", "3")
        assert code == 0 and sorted(out.split()) == ["s1", "s2"]

    def test_vertex_normalizes_away_the_twist(self, capsys):
        assert run_cli(capsys, "vertex", "D^3 s2", "--n", "3")[1] == "s1\n"

    def test_adjacent_text_answers(self, capsys):
        code, out, _ = run_cli(capsys, "adjacent", "", "s1 s2", "--n", "3")
        assert code == 0 and out == "adjacent: simple label s1 s2 (shift 0)\n"
        code, out, _ = run_cli(capsys, "adjacent", "", "s1 s1", "--n", "3")
        assert code == 0 and out == "not adjacent\n"

    def test_path_lists_labels(self, capsys):
        code, out, _ = run_cli(capsys, "path", "", "s1 s1", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["2 edges", "1 -> s1 : s1",
                                    "s1 -> s1 s1 : s1"]

    def test_dist_ub(self, capsys):
        code, out, _ = run_cli(capsys, "dist-ub", "", "s1 s1", "--n", "3",
                               "--max-len", "1", "--radius", "3")
        assert code == 0 and out == "<= 2\n"
        code, out, _ = run_cli(capsys, "dist-ub", "", "s1 s1", "--n", "3",
                               "--max-len", "1", "--radius", "1")
        assert code == 0 and "radius" in out

    def test_witness_prints_word_and_passes_check(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "4")
        assert code == 0
        assert parse_word(B4, out.strip()).canonical_length == 6
        code, out, _ = run_cli(capsys, "witness", "--n", "4", "--check")
        assert code == 0 and "pass" in out

    def test_max_power(self, capsys):
        assert run_cli(capsys, "max-power", "s2", "s2 s2 s2", "--n", "4")[1] \
            == "3\n"

    def test_decompose_delta_lines(self, capsys):
        code, out, _ = run_cli(capsys, "decompose-delta", "1", "--n", "4")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3
        assert lines[0] == "s1  absorbed by  s3  [commuting atom power]"

    def test_decompose_reducible(self, capsys):
        code, out, _ = run_cli(capsys, "decompose-reducible", "s1 s2 s1  s1 s2",
                               "--n", "5", "--curve", "1,3")
        assert code == 0 and "absorbed by" in out

    def test_decompose_reducible_clears_an_odd_tube_twist(self, capsys):
        code, out, _ = run_cli(capsys, "decompose-reducible", "s1 s2 s1 s3 s2 s3",
                               "--n", "4", "--curve", "3,4")
        pieces = out.splitlines()
        assert code == 0 and 1 <= len(pieces) <= 9
        assert all("absorbed by" in line for line in pieces)

    def test_probe_orbit_emits_csv(self, capsys):
        code, out, _ = run_cli(capsys, "probe-orbit", "s1 s2 s3", "--n", "4",
                               "--steps", "3", "--radius", "2")
        assert code == 0
        assert out.splitlines() == ["i,upper_bound", "1,1", "2,2", "3,1"]

    def test_probe_orbit_blank_field_when_unresolved(self, capsys):
        code, out, _ = run_cli(capsys, "probe-orbit", EX2_WORD, "--n", "4",
                               "--steps", "1", "--radius", "1",
                               "--max-len", "1")
        assert code == 0 and out.splitlines() == ["i,upper_bound", "1,"]

    def test_verify_fast_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "worked-examples")
        assert code == 0
        assert out.splitlines()[-1] == "suite worked-examples: PASS"


class TestCliJson:
    def payload(self, capsys, *argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        return code, json.loads(out)

    def test_nf_document(self, capsys):
        code, doc = self.payload(capsys, "nf", "s1 s2 s1", "--n", "3")
        assert code == 0
        assert doc["schema"] == "garside-al.v1"
        assert doc["command"] == "nf"
        assert doc["inputs"] == {"word": "s1 s2 s1", "n": 3}
        assert doc["result"] == {"power": 1, "factors": [], "word": "D"}

    def test_factors_use_one_line_permutations(self, capsys):
        code, doc = self.payload(capsys, "nf", "s1 s1", "--n", "3")
        assert code == 0 and doc["result"]["factors"] == ["213", "213"]

    def test_adjacent_document_carries_the_witness(self, capsys):
        code, doc = self.payload(capsys, "adjacent", "", EX2_WORD, "--n", "4")
        assert code == 0
        assert doc["result"]["adjacent"] is True
        assert doc["result"]["kind"] == "absorbable"

    def test_verify_document_reports_ok(self, capsys):
        code, doc = self.payload(capsys, "verify", "worked-examples")
        assert code == 0 and doc["result"]["ok"] is True


class TestCliErrors:
    def test_missing_strand_count(self, capsys):
        code, _, err = run_cli(capsys, "nf", "s1")
        assert code == 2 and "strand count" in err

    def test_bad_word_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "nf", "s9", "--n", "3")
        assert code == 2 and "out of range" in err

    def test_bad_curve_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "decompose-reducible", "s1", "--n", "5",
                               "--curve", "banana")
        assert code == 2

    def test_budget_exhaustion_is_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "absorbable", EX2_WORD, "--n", "4",
                               "--budget", "3")
        assert code == 3 and "budget" in err

    def test_absorber_budget_exhaustion_reports_the_depth(self, capsys):
        code, _, err = run_cli(capsys, "absorbable", "s1 s3 s1 s3", "--n", "4",
                               "--budget", "5")
        lines = err.splitlines()
        assert code == 3 and len(lines) == 1
        assert lines[0].startswith("budget exceeded:") and "depth" in lines[0]

    def test_distance_budget_exhaustion_reports_the_depth(self, capsys):
        code, _, err = run_cli(capsys, "dist-ub", "", "s1 s1 s1 s2 s2 s2",
                               "--n", "3", "--max-len", "1", "--radius", "4",
                               "--budget", "5")
        lines = err.splitlines()
        assert code == 3 and len(lines) == 1
        assert lines[0].startswith("budget exceeded:") and "depth" in lines[0]

    def test_cache_in_a_missing_directory_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "no-such-dir" / "c.txt"
        code, out, err = run_cli(capsys, "enum-absorbable", "--n", "3",
                                 "--max-len", "1", "--cache", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cache: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_probe_orbit_radius_below_one_is_a_usage_error(self, capsys):
        for extra in (("--radius", "0"), ("--radius", "1", "--max-len", "0")):
            code, out, err = run_cli(capsys, "probe-orbit", "s1", "--n", "3",
                                     "--steps", "2", *extra)
            assert code == 2 and out == "", extra
            assert err == "error: generator length and radius must be >= 1\n", extra

    def test_internal_error_is_exit_four_with_one_line(self, capsys, monkeypatch):
        def broken(args, cfg):
            raise RuntimeError("kernel invariant broken")

        monkeypatch.setattr(cli, "_cmd_nf", broken)
        code, out, err = run_cli(capsys, "nf", "s1", "--n", "3")
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: kernel invariant broken\n"

    def test_decompose_reducible_spends_the_budget(self, capsys):
        # the tube twist head's absorber is the one search this command runs
        code, out, err = run_cli(capsys, "decompose-reducible",
                                 "s1 s2 s3 s2 s1 s1 s2 s3 s2 s1", "--n", "4",
                                 "--curve", "2,3", "--budget", "1")
        assert code == 3 and out == ""
        assert err.startswith("budget exceeded:") and err.count("\n") == 1

    def test_budget_below_one_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "absorbable", "s1", "--n", "4",
                               "--budget", "-1")
        assert code == 2 and err.startswith("error:") and "budget" in err

    def test_unenumerable_strand_count_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "absorbable", "s1", "--n", "9")
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    def test_strand_count_above_the_cap_is_a_usage_error(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "braid_structure", lambda n: built.append(n))
        code, _, err = run_cli(capsys, "nf", "s1", "--n", str(cli.MAX_STRANDS + 1))
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert "strands" in err and built == []
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "nf", "s1", "--n", str(cli.MAX_STRANDS))
        assert code == 0 and out.strip()

    def test_strand_cap_holds_for_commands_without_a_word(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(braid, "BraidStructure", lambda n: built.append(n))
        for argv in (("witness",), ("decompose-delta", "1")):
            code, _, err = run_cli(capsys, *argv, "--n", str(cli.MAX_STRANDS + 1))
            assert code == 2 and err.startswith("error:") and err.count("\n") == 1, argv
            assert "strands" in err and built == [], argv

    def test_oversized_word_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "nf", "D^20000000", "--n", "3")
        assert code == 2 and "size bound" in err and err.count("\n") == 1

    def test_witness_check_failure_is_exit_one(self, capsys, monkeypatch):
        from garside_al.special import PropertyCheck, PropertyReport
        monkeypatch.setattr(
            cli, "check_witness_properties",
            lambda n: PropertyReport("stub", (PropertyCheck("x", False),)))
        code, out, _ = run_cli(capsys, "witness", "--n", "4", "--check")
        assert code == 1

    def test_verify_failure_is_exit_one(self, capsys, monkeypatch):
        stub = SuiteResult("kernel", (SuiteCheck("broken", False, "boom"),),
                           ())
        monkeypatch.setattr(cli, "run_suite",
                            lambda name, **kw: stub)
        code, out, _ = run_cli(capsys, "verify", "kernel")
        assert code == 1 and "FAIL" in out


class TestCliConfig:
    def test_environment_supplies_the_strand_count(self, capsys, monkeypatch):
        monkeypatch.setenv("GARSIDE_AL_N", "3")
        code, out, _ = run_cli(capsys, "nf", "s1 s2 s1")
        assert code == 0 and out == "D\n"

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("GARSIDE_AL_N", "3")
        # s3 only parses when the flag's larger rank wins
        code, out, _ = run_cli(capsys, "nf", "s3", "--n", "4")
        assert code == 0 and out == "s3\n"

    def test_config_file_is_the_fallback(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "garside-al.cfg").write_text("[garside-al]\nn = 4\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "nf", "s3")
        assert code == 0 and out == "s3\n"

    def test_environment_beats_config_file(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "garside-al.cfg").write_text("[garside-al]\nn = 4\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GARSIDE_AL_N", "3")
        code, _, err = run_cli(capsys, "nf", "s3")
        assert code == 2 and "out of range" in err

    def test_explicit_config_path(self, capsys, monkeypatch, tmp_path):
        cfg = tmp_path / "other.cfg"
        cfg.write_text("[garside-al]\nn = 3\n")
        monkeypatch.setenv("GARSIDE_AL_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "nf", "s1 s2 s1")
        assert code == 0 and out == "D\n"

    def test_missing_config_file_named_by_the_environment_is_a_usage_error(
            self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "no-such.cfg"
        monkeypatch.setenv("GARSIDE_AL_CONFIG", str(path))
        for argv in (("nf", "s1"), ("nf", "s1", "--n", "3")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith(f"error: cannot read config file {path}: "), argv
            assert err.count("\n") == 1, argv

    def test_unknown_config_key_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "garside-al.cfg").write_text("[garside-al]\nbudgte = 3\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "absorbable", EX2_WORD, "--n", "4")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budgte" in err
        assert len(err.strip().splitlines()) == 1

    def test_budget_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("GARSIDE_AL_BUDGET", "3")
        code, _, err = run_cli(capsys, "absorbable", EX2_WORD, "--n", "4")
        assert code == 3
