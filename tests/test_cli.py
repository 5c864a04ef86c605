import hashlib
import json
from pathlib import Path

import pytest

from trifactor.cli import build_parser, main
from trifactor.hypergraph import BergeSearchResult
from trifactor.verifier import SuiteConfig, json_text, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of the construct dumps; any change to the dump format or to the
# factors, their order or their labels changes them
CONSTRUCT_Q11 = "01f5e7ff2e11d815e0949de2683a73e777f1e16a74bab0e3a7cedb897d6b49aa"
CONSTRUCT_Q8_HUMAN = "136bf28a7be23ccda44a3780ceedf0b6f3c9f339eec8511a8674d107420c0a83"


def test_construct_round_trip(tmp_path, capsys):
    out = tmp_path / "f11.txt"
    for _ in range(2):
        code, _, _ = run_cli(capsys, "construct", "--q", "11", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_Q11
        code, text, _ = run_cli(capsys, "construct", "--q", "8", "--human")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_Q8_HUMAN


def test_construct_q2_single_factor(capsys):
    code, out, _ = run_cli(capsys, "construct", "--q", "2", "--human")
    assert code == 0
    assert "factor 0" in out
    assert "0 1 inf" in out
    assert "factor 1" not in out


def test_check_c1f_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "c1f", "--q", "11", "--mode", "full")
    assert code == 0
    assert "computed=true" in out
    # computed false matching prediction is still a clean exit
    code, out, _ = run_cli(capsys, "check", "c1f", "--q", "17")
    assert code == 0
    assert "computed=false" in out


def test_check_text_stats_have_no_elapsed_time(capsys):
    # elapsed times appear only in suite reports under --timings
    code, out, _ = run_cli(capsys, "check", "hb1f", "--q", "8", "--mode", "full")
    assert code == 0
    assert "stats: {" in out
    assert "elapsed_ms" not in out


def test_check_u1f_json_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "u1f", "--q", "11",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"] is False
    assert payload["witness"]["overlap"] != 2


def test_check_uc1f(capsys):
    code, out, _ = run_cli(capsys, "check", "uc1f", "--q", "8",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["computed"] is True


def test_check_hb1f_sampled(capsys):
    code, out, _ = run_cli(
        capsys, "check", "hb1f", "--q", "8", "--mode", "sampled",
        "--samples", "20", "--seed", "7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"] is True
    assert payload["stats"]["samples"] == 20


def test_check_format_parity(capsys):
    _, text_out, _ = run_cli(capsys, "check", "u1f", "--q", "5")
    _, json_out, _ = run_cli(capsys, "check", "u1f", "--q", "5",
                             "--format", "json")
    payload = json.loads(json_out)
    assert f"computed={str(payload['computed']).lower()}" in text_out
    assert f"predicted={str(payload['predicted']).lower()}" in text_out


def test_overlap_single_label(capsys):
    code, out, _ = run_cli(capsys, "overlap", "--q", "11", "--alpha", "10",
                           "--beta", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebraic"] == payload["combinatorial"] == 3
    assert payload["agree"] is True


def test_overlap_just_past_one_byte_points(capsys):
    # q=257: 258 points, two more than a byte can index, so both factors
    # keep four-byte points
    code, out, _ = run_cli(capsys, "overlap", "--q", "257", "--alpha", "2",
                           "--beta", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebraic"] == payload["combinatorial"] == 2
    assert payload["agree"] is True


def test_overlap_with_points_above_255(capsys):
    # q=3125: the factors hold points up to 3125, past one byte; the output
    # is pinned as computed with one tuple per edge
    code, out, _ = run_cli(capsys, "overlap", "--q", "3125", "--alpha", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "agree": True,
        "algebraic": 2,
        "alpha": "2,0,0,0,0",
        "beta": "0,0,0,0,0",
        "combinatorial": 2,
        "direct_solutions": [4, 3125],
        "inverse_solutions": [],
        "q": 3125,
        "repeated_pairs": [[0, 3125], [3, 4]],
    }


def test_overlap_histogram(capsys):
    code, out, _ = run_cli(capsys, "overlap", "--q", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["histogram"] == {"2": 9}
    code, out, _ = run_cli(capsys, "overlap", "--q", "11")
    assert code == 0
    assert out == "overlap histogram q=11: {0: 18, 2: 12, 3: 12, 4: 12}\n"


def test_overlap_histogram_off_its_sums_exits_4(monkeypatch, capsys):
    monkeypatch.setattr("trifactor.verifier.block_overlap", lambda block, f: 0)
    code, out, err = run_cli(capsys, "overlap", "--q", "11")
    assert code == 4
    assert out == ""
    assert "does not sum to 54 factors and 108 shared pairs" in err


def test_subgroup_single(capsys):
    code, out, _ = run_cli(capsys, "subgroup", "--q", "8", "--alpha", "0,1,0",
                           "--beta", "0,0,0", "--format", "json")
    assert code == 0
    row = json.loads(out)["labels"][0]
    assert row["class"] == "FullPSL"
    assert row["order"] == 504
    assert row["transitive"] is True


def test_scan_trace(capsys):
    code, out, _ = run_cli(capsys, "scan-trace", "--l", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses_eq4"] == []
    assert payload["all_trace1"] is True


def test_indeterminate_verdict_has_one_mark_in_both_text_outputs(monkeypatch, capsys):
    monkeypatch.setattr("trifactor.verifier.find_hamilton_berge_cycle",
                        lambda h, time_budget: BergeSearchResult("timeout"))
    line = "computed=indeterminate predicted=true INDETERMINATE"
    report = run_suite(SuiteConfig(qs=(5,), trace_scan_degrees=(), hb1f_full_qs=(5,)))
    assert f"  hb1f [full]: {line}" in report.to_text().splitlines()
    assert report.exit_code == 2
    code, out, _ = run_cli(capsys, "check", "hb1f", "--q", "5", "--mode", "full")
    assert out.splitlines()[0] == f"hb1f q=5: {line}"
    assert code == 2


def test_suite_config_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("qs = 5 8\ntrace_scans = 3\nhb1f_full_qs = 5\n")
    code, out, _ = run_cli(capsys, "suite", "--config", str(cfg),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["discrepancies"] == 0
    # deliberate mismatch drives exit code 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("qs = 17\ntrace_scans =\nexpect_c1f_17 = true\n")
    code, _, _ = run_cli(capsys, "suite", "--config", str(bad))
    assert code == 1


def test_suite_empty_config(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("qs =\ntrace_scans =\nhb1f_full_qs =\n")
    code, out, _ = run_cli(capsys, "suite", "--config", str(cfg),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["suite"] == []


def test_suite_byte_identical_reports(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("qs = 5 11\ntrace_scans = 3\nhb1f_full_qs = 5\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(capsys, "suite", "--config", str(cfg), "--format", "json",
                   "--out", str(out1))[0] == 0
    assert run_cli(capsys, "suite", "--config", str(cfg), "--format", "json",
                   "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_suite_timings_add_only_elapsed_ms(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("qs = 2 5 8\ntrace_scans = 3\nhb1f_full_qs = 5\n")
    code, untimed, _ = run_cli(capsys, "suite", "--config", str(cfg), "--format", "json")
    assert code == 0
    code, timed, _ = run_cli(capsys, "suite", "--config", str(cfg), "--format", "json",
                             "--timings")
    assert code == 0
    payload = json.loads(timed)
    props = [prop for entry in payload["suite"] for prop in entry["properties"]]
    assert len(props) == 13
    for prop in props:
        elapsed = prop["stats"].pop("elapsed_ms")
        assert type(elapsed) is int and elapsed >= 0
    assert json_text(payload) == untimed


def test_usage_errors_exit_3(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "notaproperty", "--q", "5"])
    assert exc.value.code == 3
    # invalid q (not 2 mod 3) is a usage error, not a crash
    code, _, err = run_cli(capsys, "check", "c1f", "--q", "7")
    assert code == 3
    assert "error" in err
    code, _, _ = run_cli(capsys, "construct", "--q", "12")
    assert code == 3
    # broken config file
    code, _, _ = run_cli(capsys, "suite", "--config", "/nonexistent/path.cfg")
    assert code == 3
    # malformed values: a field element and a config value that are not ints
    code, _, _ = run_cli(capsys, "overlap", "--q", "11", "--alpha", "x")
    assert code == 3
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("qs = five\n")
    code, _, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 3
    assert "qs = five" in err
    cfg.write_text("expect_clf_17 = true\n")  # a property name with a typo
    code, _, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 3
    assert "expect_clf_17 = true" in err
    cfg.write_text("workers = 1\n")  # not a config key
    code, _, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 3
    assert "workers = 1" in err
    cfg.write_bytes(b"qs = \xff\n")
    assert run_cli(capsys, "suite", "--config", str(cfg))[0] == 3
    # the A4 census covers odd primes only
    code, out, _ = run_cli(capsys, "subgroup", "--q", "8", "--census")
    assert code == 3 and out == ""
    # an exact closure larger than the cap is the caller's request, not a fault
    code, _, err = run_cli(capsys, "subgroup", "--q", "125", "--exact",
                           "--alpha", "2,1", "--beta", "1")
    assert code == 3
    assert "exceeded cap" in err
    # sampling needs a positive count and at least three factors to draw from
    for q, samples in (("8", "0"), ("2", "3")):
        code, _, _ = run_cli(capsys, "check", "hb1f", "--q", q, "--mode",
                             "sampled", "--samples", samples, "--seed", "1")
        assert code == 3
    # a time budget must be a finite number of seconds above 0
    for value in ("nan", "inf", "0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "hb1f", "--q", "5", "--time-budget", value])
        assert exc.value.code == 3
        assert f"'{value}'" in capsys.readouterr().err
        cfg.write_text(f"qs = 5\ntime_budget = {value}\n")
        code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
        assert code == 3 and out == ""
        assert f"time_budget = {value}" in err
    # an entry for a q that qs leaves out would never run
    cfg.write_text("qs = 5\nhb1f_sampled = 128:10:7\nhb1f_reduced_qs = 32\n")
    code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 3 and out == ""
    assert "hb1f_sampled 128:10:7" in err and "hb1f_reduced_qs 32" in err
    # an expectation that no check of the suite reads
    cfg.write_text("qs = 5 11\nhb1f_full_qs = 5\nexpect_hb1f_11 = false\n")
    code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 3 and out == ""
    assert "expect_hb1f_11" in err
    cfg.write_text("qs = 5 5\n")
    code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 3 and out == ""
    assert "qs = 5 5" in err
    # a factorisation too large to hold is refused before it is built
    for argv in (["construct", "--q", "2048"], ["check", "c1f", "--q", "512"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert "above the cap" in err


@pytest.mark.parametrize("argv", [
    "check u1f --q 5 --mode full",
    "check u1f --q 5 --time-budget 3",
    "check c1f --q 5 --samples 10",
    "check hb1f --q 8 --samples 5",
    "check hb1f --q 8 --mode full --seed 3",
    "overlap --q 5 --beta 1",
    "subgroup --q 5 --beta 1",
    "subgroup --q 17 --census --alpha 1",
    "subgroup --q 17 --census --beta 1",
    "subgroup --q 17 --census --exact",
])
def test_options_a_command_would_drop_exit_3(argv, capsys):
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse rejects options a property does not take
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    examples = [words for words in lines if words[:1] == ["trifactor"]]
    assert len(examples) >= 12
    for words in examples:
        build_parser().parse_args(words[1:])


def test_internal_fault_exits_4(monkeypatch, capsys):
    import trifactor.cli

    def broken(ctx):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(trifactor.cli, "build_factorisation", broken)
    code, out, err = run_cli(capsys, "construct", "--q", "5")
    assert code == 4
    assert out == ""
    assert err == "trifactor: internal error: ValueError: matrix is singular\n"


def test_failed_berge_replay_exits_4(monkeypatch, capsys):
    monkeypatch.setattr("trifactor.verifier.validate_berge_cycle",
                        lambda h, result: False)
    code, out, err = run_cli(capsys, "check", "hb1f", "--q", "8", "--mode", "full")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("trifactor: internal error: InvariantError: ")


def test_wrong_isomorphism_exits_4(swapped_isomorphism, capsys):
    code, out, err = run_cli(capsys, "check", "u1f", "--q", "8")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("trifactor: internal error: InvariantError: ")


def test_odd_census_pair_count_exits_4(extra_a4_pair, capsys):
    code, out, err = run_cli(capsys, "subgroup", "--q", "11", "--census")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("trifactor: internal error: InvariantError: ")


def test_tampered_union_exits_4(tamper_union, capsys):
    tamper_union(351)  # the last base triple at q=8, not the first of its class
    code, out, err = run_cli(capsys, "check", "hb1f", "--q", "8", "--mode", "full")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("trifactor: internal error: InvariantError: ")


def test_broken_partition_exits_4(one_duplicate_edge, capsys):
    code, out, err = run_cli(capsys, "suite")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("trifactor: internal error: InvariantError: q=2: ")


def test_single_label_commands_build_no_factorisation(monkeypatch, capsys):
    import trifactor.cli

    def broken(ctx):
        raise ValueError("whole factorisation built")

    monkeypatch.setattr(trifactor.cli, "build_factorisation", broken)
    # (8, 7) is the later twin of (3, 4): its factor is the same edge set
    code, out, _ = run_cli(capsys, "overlap", "--q", "11", "--alpha", "8",
                           "--beta", "7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "agree": True, "algebraic": 4, "alpha": "8", "beta": "7",
        "combinatorial": 4, "direct_solutions": [0, 3],
        "inverse_solutions": [2, 7], "q": 11,
        "repeated_pairs": [[0, 1], [2, 6], [3, 5], [4, 7]],
    }
    for extra in ((), ("--exact",)):
        code, out, _ = run_cli(capsys, "subgroup", "--q", "11", "--alpha", "3",
                               "--beta", "4", "--format", "json", *extra)
        assert code == 0
        assert json.loads(out) == {
            "labels": [{"alpha": "3", "beta": "4", "class": "A5", "order": 60,
                        "transitive": True}],
            "psl_order": 660,
            "q": 11,
        }
