import json

import pytest

from trifactor.cli import main
from trifactor.factorisation import build_factorisation, load_factorisation
from trifactor.verifier import field_for


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_round_trip(tmp_path, capsys):
    out = tmp_path / "f5.txt"
    code, _, _ = run_cli(capsys, "construct", "--q", "5", "--out", str(out))
    assert code == 0
    loaded = load_factorisation(out.read_text())
    assert loaded == build_factorisation(field_for(5))
    # idempotent
    code, _, _ = run_cli(capsys, "construct", "--q", "5", "--out", str(out))
    assert code == 0
    assert load_factorisation(out.read_text()) == loaded


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


def test_overlap_histogram(capsys):
    code, out, _ = run_cli(capsys, "overlap", "--q", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["histogram"] == {"2": 9}


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
    cfg.write_bytes(b"qs = \xff\n")
    assert run_cli(capsys, "suite", "--config", str(cfg))[0] == 3
    # sampling needs a positive count and at least three factors to draw from
    for q, samples in (("8", "0"), ("2", "3")):
        code, _, _ = run_cli(capsys, "check", "hb1f", "--q", q, "--mode",
                             "sampled", "--samples", samples, "--seed", "1")
        assert code == 3


def test_internal_fault_exits_4(monkeypatch, capsys):
    import trifactor.cli

    def broken(ctx):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(trifactor.cli, "build_factorisation", broken)
    code, out, err = run_cli(capsys, "construct", "--q", "5")
    assert code == 4
    assert out == ""
    assert err == "trifactor: internal error: ValueError: matrix is singular\n"


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
