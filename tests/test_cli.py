import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, tmp_path=None, out_name="out.json"):
    out = None
    if tmp_path is not None:
        out = str(tmp_path / out_name)
        args = args + ["--out", out]
    code = main(args)
    payload = None
    if out and code == 0:
        with open(out) as fh:
            payload = json.load(fh)
    return code, payload, out


def test_unknown_command_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_cf_command(tmp_path):
    code, payload, _ = run_cli(["cf", "--quotients", "1,1,1,1,1", "--depth", "5"], tmp_path)
    assert code == 0
    qs = [int(r["q_k"]) for r in payload["rows"]]
    assert qs == [1, 1, 2, 3, 5, 8]
    assert payload["command"] == "cf"
    assert set(payload) == {"command", "config", "started", "rows"}


def test_cf_missing_spec_exit_2():
    assert main(["cf", "--depth", "3"]) == 2


@pytest.mark.parametrize("command, flag", [("prime-average", "--N"), ("huxley", "--x")],
                         ids=["prime-average", "huxley"])
@pytest.mark.parametrize("bad", ["abc", "1e4,zz"])
def test_malformed_value_exit_2(command, flag, bad, capsys):
    assert main([command, flag, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["identities", "--n_max", "50", "--k", "0"],
    ["charsum", "--q", "2", "--stat", "windowed"],
    ["charsum", "--q", "5", "--stat", "windowed", "--chi_index", "3"],
    ["prime-average", "--N", "0"],
    ["ms-sum", "--eta", "0"],
    ["charsum", "--stat", "windowed", "--Hp", "-1"],
    ["charsum", "--stat", "windowed", "--Hp", "0"],
    ["huxley", "--x", "0"],
    ["huxley", "--x", "100", "--H", "0"],
    ["orbit", "--pair", "nope"],
    ["cf", "--quotients", "1,1", "--depth", "1e400"],
    ["discrepancy", "--N", "10", "--K", "Infinity"],
    ["prime-average", "--b", "1e400"],
    ["orbit", "--steps", "1,NaN"],
    ["ms-sum", "--N", "-1"],
    ["cf", "--quotients", "1,1", "--depth", "2", "stray"],
    ["cf", "--quotients", "1,1", "--depth", "2", "--seed", "2.5"],
    ["cf", "--quotients", "1,1", "--depth", "2", "--threads", "0"],
    ["cf", "--quotients", "1,1", "--depth", "2", "--out"],
    ["huxley", "--x", "-5"],
    ["huxley", "--x", "100", "--H", "-3"],
    ["ms-sum", "--N", "0"],
    ["ms-sum", "--N", "1000", "--H", "-1"],
    ["discrepancy", "--N", "0"],
    ["discrepancy", "--N", "-1"],
], ids=["identities-k0", "charsum-q2-windowed", "charsum-chi-index-past-last",
        "prime-average-N0", "ms-sum-eta0", "charsum-windowed-Hp-negative",
        "charsum-windowed-Hp0", "huxley-x0", "huxley-H0", "orbit-unknown-pair",
        "cf-depth-overflow", "discrepancy-K-infinite", "prime-average-b-overflow",
        "orbit-steps-nan", "ms-sum-N-negative", "cf-stray-token", "seed-not-int",
        "threads0", "out-without-path", "huxley-x-negative", "huxley-H-negative",
        "ms-sum-N0", "ms-sum-H-negative", "discrepancy-N0",
        "discrepancy-N-negative"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_domain_value_exit_2(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["cf", "--config", "{tmp}/missing.cfg"],
    ["cocycle-check", "--spec", "{tmp}/missing.csv"],
    ["cf", "--quotients", "1,1", "--depth", "1", "--out", "{tmp}/no/such/dir/out.json"],
], ids=["config-missing", "spec-missing", "out-unwritable"])
def test_unreadable_file_exit_2(args, tmp_path, capsys):
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and len(err.splitlines()) == 1


# commands whose defaults finish well under a second, and the keys each reads
QUICK_KEYS = {
    "cf": ("quotients", "decimal", "depth"),
    "orbit": ("pair", "x", "y", "steps"),
    "huxley": ("x", "H", "q", "r"),
    "charsum": ("q", "stat", "r", "gauss_x", "Hp", "chi_index"),
    "discrepancy": ("N", "K"),
    "ms-sum": ("N", "H", "r", "a", "coeffs", "eta", "B"),
}
MALFORMED = ("abc", "", "-1", "0", "2.5", "1e400", "Infinity", "NaN", "[]", "1,zz", "true")


@st.composite
def malformed_runs(draw):
    command = draw(st.sampled_from(sorted(QUICK_KEYS)))
    keys = st.sampled_from(QUICK_KEYS[command] + ("seed", "threads"))
    flags = draw(st.dictionaries(keys, st.sampled_from(MALFORMED), min_size=1, max_size=3))
    return [command] + [tok for key, val in flags.items() for tok in (f"--{key}", val)]


@given(malformed_runs())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_flags_never_raise(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def test_counterexample_dump_reports_cli_eps(tmp_path):
    dump = tmp_path / "stages.json"
    code, payload, _ = run_cli(["counterexample", "--stages", "2", "--eps", "0.001",
                                "--dump", str(dump)], tmp_path)
    assert code == 0
    passed = [r["passed"] for r in payload["rows"]]
    assert passed == [False, True]
    stages = json.loads(dump.read_text())["stages"]
    assert [s["phi_report"]["passed"] for s in stages] == passed


def test_identities_beyond_int64_exit_3(capsys):
    assert main(["identities", "--k", "60", "--z", "2", "--buchstab_windows", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and len(err.splitlines()) == 1


def test_identities_command(tmp_path):
    code, payload, _ = run_cli(
        ["identities", "--n_max", "300", "--z", "2,5", "--k", "1",
         "--buchstab_windows", "3"], tmp_path)
    assert code == 0
    assert all(r["defect"] == 0 for r in payload["rows"])


def test_identities_vaughan_rows_are_per_z(tmp_path, monkeypatch):
    from types import SimpleNamespace

    import skewlab.identities as ids
    from skewlab.primes import von_mangoldt

    # only z = 2 gets a nonzero defect; the z = 5 row must not inherit it
    monkeypatch.setattr(ids, "vaughan_decompose", lambda n, z: (
        None, None, None, SimpleNamespace(to_float=lambda: von_mangoldt(n) + (z == 2))))
    code, payload, _ = run_cli(
        ["identities", "--n_max", "50", "--z", "2,5", "--k", "1",
         "--buchstab_windows", "0"], tmp_path)
    assert code == 0
    vaughan = {r["params"]: r["defect"] for r in payload["rows"] if r["identity"] == "vaughan"}
    assert vaughan["z=2"] == pytest.approx(1.0) and vaughan["z=5"] == 0.0


def test_prime_average_command(tmp_path):
    code, payload, _ = run_cli(
        ["prime-average", "--N", "1e4,1e5", "--b", "0", "--c", "1"], tmp_path)
    assert code == 0
    rows = payload["rows"]
    assert [r["N"] for r in rows] == [10**4, 10**5]
    assert set(rows[0]) == {"N", "b", "c", "re_avg", "im_avg", "theta_ratio"}


def test_ms_sum_command(tmp_path):
    code, payload, _ = run_cli(
        ["ms-sum", "--N", "100000", "--H", "5000", "--r", "1", "--a", "0"], tmp_path)
    assert code == 0
    row = payload["rows"][0]
    assert row["class"].startswith("non-oscillatory")
    assert row["gap"] >= 0 and row["budget"] > 0


def test_counterexample_command(tmp_path):
    code, payload, _ = run_cli(["counterexample", "--stages", "2"], tmp_path)
    assert code == 0
    assert all(r["passed"] for r in payload["rows"])


def test_discrepancy_command(tmp_path):
    code, payload, _ = run_cli(["discrepancy", "--N", "1e3", "--K", "20"], tmp_path)
    assert code == 0
    row = payload["rows"][0]
    assert row["bound"] >= row["exact"]


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("depth = 4\nquotients = 2,2,2,2\n")
    code, payload, _ = run_cli(["cf", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert [int(r["q_k"]) for r in payload["rows"]] == [1, 2, 5, 12, 29]
    # flag overrides win over the file
    code, payload, _ = run_cli(["cf", "--config", str(cfg), "--depth", "2"],
                               tmp_path, "out2.json")
    assert code == 0
    assert len(payload["rows"]) == 3


def test_determinism_across_thread_counts(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outs = []
    for threads, name in ((1, "a.json"), (4, "b.json")):
        code, _, out = run_cli(["prime-average", "--N", "1e4", "--threads",
                                str(threads)], tmp_path, name)
        assert code == 0
        outs.append(open(out, "rb").read())
    a, b = outs
    # thread count is provenance inside the config block; strip it before comparing
    a = a.replace(b'"threads": 1', b'"threads": N')
    b = b.replace(b'"threads": 4', b'"threads": N')
    assert a == b


def test_entry_point_subprocess(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "skewlab.cli", "cf", "--quotients", "3,7", "--depth", "2",
         "--out", str(out)],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin", "SOURCE_DATE_EPOCH": "0",
                                             "PYTHONPATH": str(REPO_ROOT / "src")},
        cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["started"] == "1970-01-01T00:00:00Z"
