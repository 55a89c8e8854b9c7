import contextlib
import hashlib
import inspect
import io
import json
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.cli import HANDLERS, KINDS, main

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


def test_cf_default_depth(tmp_path, capsys):
    # a short quotient list takes its own length; a long one and a decimal take 10
    for args, rows in ((["--quotients", "1,1"], 3), (["--quotients", ",".join(["2"] * 12)], 11),
                       (["--decimal", "0.6180339887498948482045868343656381177203"], 11)):
        code, payload, _ = run_cli(["cf"] + args, tmp_path)
        assert code == 0 and len(payload["rows"]) == rows
    assert main(["cf", "--quotients", "1,1", "--depth", "3"]) == 2
    assert capsys.readouterr().err == "precondition error: depth 3 outside [1, 2]\n"


# sha256 of the counterexample's stdout and dump file under SOURCE_DATE_EPOCH=0, recorded
# with the exact per-point integer evaluation; the array evaluation must keep every byte
COUNTEREXAMPLE_SHA256 = [
    (["--stages", "3", "--dump", "st.json"],
     "7b0b77d5f2e5d2b0512951f0e6e6671148504829fe528d820481a35b87d4e7f8",
     "5e0d39ae7120520f42cfe1185d47fc3d0a9f128ae496d4106d63ed3767e280a4"),
    (["--stages", "2", "--include_h", "true"],
     "6d12e3a0b0a079c75b7c5177a3dc750bb31e875701c932d94e3892c45ef631f2", None),
    (["--stages", "2", "--include_h", "true", "--dump", "st.json"],
     "bd985127bd00cb8636d2efce72252830c502e13ad3580d6577fe8eb1b6823ba1",
     "bb0874d16d8ef5c5cc5c8b9abdf1e3cbeb620f4360b50307eff9fd9275ba747a"),
    (["--stages", "2", "--mu_twist", "true", "--dump", "st.json"],
     "e754e6783da2bf94f1ba7255e6b02b9b7ecb1621a772e4dbfca366c0c853dd58",
     "fa8d0d828d4d00300b4165d875cec4eeab262814e91be7ee030b9147f912e2f8"),
]


@pytest.mark.parametrize("args, stdout_sha, dump_sha", COUNTEREXAMPLE_SHA256)
def test_counterexample_bytes_pinned(args, stdout_sha, dump_sha, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.chdir(tmp_path)
    assert main(["counterexample"] + args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    if dump_sha is not None:
        assert hashlib.sha256((tmp_path / "st.json").read_bytes()).hexdigest() == dump_sha


# sha256 of charsum stdout under SOURCE_DATE_EPOCH=0, recorded with the character groups
# built from per-element dlog loops and per-kind conductor rules; every byte must stay.
# The gauss rows were re-recorded when e() moved from cos/sin to a table of 4096th roots
# (largest change in |G|: 1.8e-14)
CHARSUM_SHA256 = [
    (["--stat", "gauss", "--q", "1024"],
     "d3bab12fec9b8ff33d2a93b398055b95bb2ba3a6a1680942d0ab2e62bbdbbdfc"),
    (["--stat", "gauss", "--q", "1155"],
     "2293c26e5f0492ba63bc57af47397d4cd76b4bf85d1adcc1585c7fd2dddc8989"),
    (["--stat", "progression", "--q", "1155", "--r", "2"],
     "918bbf13a696fd571964fc5658993b0a77c2ea66e7dd70988e6c5af4d1559778"),
    (["--stat", "windowed", "--q", "1009"],
     "66018becc3a3cb0e0a4878e01b97dea787062fe43234a689117857f7b67e48fb"),
]


@pytest.mark.parametrize("args, stdout_sha", CHARSUM_SHA256,
                         ids=["gauss-1024", "gauss-1155", "progression-1155", "windowed-1009"])
def test_charsum_bytes_pinned(args, stdout_sha, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert main(["charsum"] + args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


# sha256 of prime-average and residue-average stdout under SOURCE_DATE_EPOCH=0, recorded
# with the serial orbit pass; windows drawn on a producer thread must keep every byte.
# Re-recorded when e() moved from cos/sin to a table of 4096th roots (largest change:
# 1.3e-13 absolute)
ORBIT_SHA256 = [
    (["prime-average", "--N", "1e5,4194306,1e7", "--b", "1", "--c", "2"],
     "fc8cdbcb324b53a866e216fa96e416f8ed79ea794a66ac74fb6d23ff17a8bccf"),
    (["prime-average", "--N", "3e6", "--b", "0", "--c", "1"],
     "0c9f676c7d968d3bc6280af18a377076489001e80d658d124214a2b7301507bd"),
    (["residue-average", "--scales", "3"],
     "d2f2bc6d6d73e241df53b5a0521f1a322467b06c8eb017d96f098d4651304a86"),
]


@pytest.mark.parametrize("args, stdout_sha", ORBIT_SHA256,
                         ids=["prime-three-N", "prime-3e6", "residue-3"])
def test_orbit_bytes_pinned(args, stdout_sha, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


# sha256 of the other prime-fed commands' stdout under SOURCE_DATE_EPOCH=0, recorded with
# the dense sieve beside the segmented one; one sieve must keep every byte
PRIME_FED_SHA256 = [
    (["huxley"], "cf9be69fa9fc49b4701c8e2108d5525b3a70165a2c06d81627d9a89e28295fec"),
    (["huxley", "--x", "300000", "--H", "3000", "--q", "9973", "--r", "31"],
     "64c6c235306bf0cfca3eedaad9ba40ce61c14ce1d039cdf83df9f0412950cdb5"),
    (["identities", "--n_max", "5000", "--k", "1,2,3"],
     "fc378100e7c444721ef552e44e2a1fcc0420c687897dc53009a24909dae9ed50"),
    (["ms-sum"], "45cc8b92ab9e528b2efae5de1141ff78908bc8f28e6a176025e53a6d74746ad0"),
]


@pytest.mark.parametrize("args, stdout_sha", PRIME_FED_SHA256,
                         ids=["huxley-H-x", "huxley-sliding", "identities-5000", "ms-sum"])
def test_prime_fed_bytes_pinned(args, stdout_sha, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


# sha256 of the remaining commands' stdout under SOURCE_DATE_EPOCH=0; every byte must stay.
# discrepancy (Weyl sums) was re-recorded when e() moved from cos/sin to a table of
# 4096th roots (largest change: 1.6e-16)
OTHER_SHA256 = [
    (["cf", "--quotients", "3,7,15,1,292"],
     "d8de858e945e4a82faf1925d779de40c7c8e22e62e4325e93595e3d64b8ddab7"),
    (["orbit"], "0563c1edc6b4fd8ff503a90cfde4a3d7a686e4a0d4968c9fead2d43cebacf824"),
    (["cocycle-check"], "7b6d3f24b9eae66e45e4b5bdf80f1a0e0cccb75587e863dd36168131b8779d76"),
    (["phase"], "8557d138006cac9b9eb525717dfa7b57e9f9c724109dd54326381f24b5f665a2"),
    (["discrepancy"], "6fa155bce9fd49fb4eb23ce611b9f485c658bd6cf79fddb33df371cffc7fec9a"),
]


@pytest.mark.parametrize("args, stdout_sha", OTHER_SHA256,
                         ids=["cf-pi", "orbit", "cocycle-check", "phase", "discrepancy"])
def test_other_bytes_pinned(args, stdout_sha, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


@pytest.mark.parametrize("command, flag", [("prime-average", "--N"), ("huxley", "--x"),
                                           ("charsum", "--gauss_x")],
                         ids=["prime-average", "huxley", "charsum"])
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
    ["cf", "--quotients", "1,1", "--depth", "2", "--dpeth", "5"],
    ["prime-average", "--N", "1e5", "--obs", "3"],
    ["cf", "--quotients", "1,1", "--set", "depth=1"],
    ["cf", "--quotients", "1,2,3", "--depth", "2.7"],
    ["prime-average", "--N", "1e4", "--b", "0.5", "--c", "1.9"],
    ["residue-average", "--scales", "1.5"],
    ["counterexample", "--stages", "2.5"],
    ["cf", "--quotients", "1,1", "--depth"],
    ["orbit", "--steps", "1", "--x", "1" + "0" * 400],
    ["ms-sum", "--r", "-1000", "--coeffs", "0.1"],
    ["cocycle-check", "--samples", "-1"],
    ["identities", "--buchstab_windows", "-1"],
    ["cocycle-check", "--decay_rate", "0.05"],
    ["cocycle-check", "--quotients", "1,2"],
    ["counterexample", "--eps", "-1e10"],
    ["counterexample", "--eps", "0"],
    ["counterexample", "--mu_twist", "--eps", "0.05"],
    ["charsum", "--stat", "gauss", "--r", "2"],
    ["charsum", "--gauss_x", "2"],
    ["charsum", "--Hp", "3"],
    ["charsum", "--stat", "gauss", "--chi_index", "1"],
    ["cf", "--quotients", "1,1", "--decimal", "0.5"],
    ["cf", "--decimal", "1/3"],
    ["cocycle-check", "--spec", "{tmp}/g.csv", "--decay_rate", "1e-320"],
    ["counterexample", "--stages", "0"],
    ["counterexample", "--stages", "-1"],
], ids=["identities-k0", "charsum-q2-windowed", "charsum-chi-index-past-last",
        "prime-average-N0", "ms-sum-eta0", "charsum-windowed-Hp-negative",
        "charsum-windowed-Hp0", "huxley-x0", "huxley-H0", "orbit-unknown-pair",
        "cf-depth-overflow", "discrepancy-K-infinite", "prime-average-b-overflow",
        "orbit-steps-nan", "ms-sum-N-negative", "cf-stray-token", "seed-not-int",
        "threads0", "out-without-path", "huxley-x-negative", "huxley-H-negative",
        "ms-sum-N0", "ms-sum-H-negative", "discrepancy-N0",
        "discrepancy-N-negative", "cf-misspelt-key", "prime-average-unknown-key",
        "cf-old-set-flag", "cf-depth-not-integral", "prime-average-b-not-integral",
        "residue-average-scale-not-integral", "counterexample-stages-not-integral",
        "cf-bare-depth", "orbit-x-beyond-float", "ms-sum-r-negative",
        "cocycle-check-samples-negative", "identities-buchstab-windows-negative",
        "cocycle-check-decay-rate-without-spec", "cocycle-check-quotients-without-spec",
        "counterexample-eps-negative", "counterexample-eps0", "counterexample-eps-with-mu-twist",
        "charsum-gauss-r", "charsum-progression-gauss-x", "charsum-progression-Hp",
        "charsum-gauss-chi-index", "cf-quotients-and-decimal", "cf-decimal-fraction",
        "cocycle-check-decay-rate-overflows-m-max", "counterexample-stages0",
        "counterexample-stages-negative"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_domain_value_exit_2(args, tmp_path, capsys):
    (tmp_path / "g.csv").write_text("1,0.1,0\n3,0,0.05\n")
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
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


def test_unknown_config_file_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("quotients = 1,1\ndpeth = 4\n")
    assert main(["cf", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'dpeth'" in err and len(err.splitlines()) == 1


COMMON = ("seed", "threads")
# each command's keys besides seed and threads, written out as the handler table listed them
# before the handler signatures declared them
KEYS = {
    "cf": ("quotients", "decimal", "depth"),
    "cocycle-check": ("samples", "spec", "decay_rate", "quotients"),
    "phase": ("scales", "m_samples", "w", "x_grid"),
    "orbit": ("pair", "x", "y", "steps"),
    "prime-average": ("pair", "b", "c", "x", "y", "N"),
    "residue-average": ("pair", "b", "c", "scales"),
    "huxley": ("x", "H", "q", "r"),
    "charsum": ("q", "stat", "r", "gauss_x", "Hp", "chi_index"),
    "identities": ("n_max", "z", "k", "buchstab_windows"),
    "ms-sum": ("N", "H", "r", "a", "coeffs", "eta", "B"),
    "counterexample": ("stages", "include_h", "mu_twist", "eps", "dump"),
    "discrepancy": ("N", "K"),
}
# misspelt keys, the old parser's --set, and keys that only other commands read
UNKNOWN = ("dpeth", "obs", "set", "n_max", "stages")
MALFORMED = ("abc", "", "-1", "0", "2.5", "1e10", "-1e10", "1e15", "1e400", "Infinity", "NaN", "[]",
             "1,zz", "true")


def _keys(command):
    return tuple(inspect.signature(HANDLERS[command]).parameters)


@pytest.mark.parametrize("command", sorted(KEYS))
def test_handler_signature_declares_the_keys(command):
    assert set(HANDLERS) == set(KEYS)
    params = inspect.signature(HANDLERS[command]).parameters
    assert set(params) | set(COMMON) == set(KEYS[command] + COMMON)
    for p in params.values():
        assert p.kind is p.POSITIONAL_OR_KEYWORD and p.annotation in KINDS, p
        assert p.default is None or isinstance(
            p.default, getattr(p.annotation, "__origin__", p.annotation)), p


# per command: a small base run, and for each key a value other than its default; the key
# must change the rows, or the command must refuse it with exit 2 and an error naming it
KEY_EFFECTS = {
    "cf": (["--quotients", "1,2,3"], {"quotients": "1,2,4", "decimal": "0.5", "depth": "2"}),
    "cocycle-check": (["--samples", "3"], {"samples": "4", "spec": "{tmp}/g.csv",
                                          "decay_rate": "0.05", "quotients": "1,2",
                                          "seed": "1"}),
    "phase": (["--scales", "1", "--m_samples", "2", "--x_grid", "2"],
              {"scales": "2", "m_samples": "3", "w": "2", "x_grid": "3"}),
    "orbit": (["--steps", "1,10"], {"pair": "phase", "x": "0.25", "y": "0.25", "steps": "1,100"}),
    "prime-average": (["--N", "1000"], {"pair": "phase", "b": "1", "c": "2", "x": "0.25",
                                        "y": "0.25", "N": "2000"}),
    "residue-average": (["--scales", "1"], {"pair": "phase", "b": "1", "c": "2", "scales": "2"}),
    "huxley": (["--x", "1000"], {"x": "2000", "H": "100", "q": "89", "r": "3"}),
    "charsum": (["--q", "11"], {"q": "13", "stat": "gauss", "r": "2", "gauss_x": "2", "Hp": "1",
                                "chi_index": "1"}),
    "identities": (["--n_max", "50", "--buchstab_windows", "0"],
                   {"n_max": "60", "z": "2,3", "k": "1"}),
    "ms-sum": (["--N", "10000", "--coeffs", "0.01"],
               {"N": "20000", "H": "100", "r": "3", "a": "1", "coeffs": "0.02", "eta": "0.1",
                "B": "0.5"}),
    "counterexample": (["--stages", "1"], {"stages": "2", "include_h": "true",
                                           "mu_twist": "true", "eps": "0.001"}),
    "discrepancy": (["--N", "100", "--K", "5"], {"N": "200", "K": "6"}),
}
KEY_EFFECT_EXEMPT = {
    ("counterexample", "dump"): "writes a file beside the rows",
    ("identities", "seed"): "the rows report a certified 0 defect for any window draw",
    ("identities", "buchstab_windows"): "the rows report a certified 0 defect for any count",
}


@pytest.mark.parametrize("command", sorted(KEY_EFFECTS))
def test_every_key_changes_the_rows_or_is_refused(command, tmp_path, capsys):
    base, values = KEY_EFFECTS[command]
    exempt = {key for cmd, key in KEY_EFFECT_EXEMPT if cmd == command}
    assert not exempt & set(values) and exempt | set(values) == set(_keys(command))
    (tmp_path / "g.csv").write_text("1,0.1,0\n3,0,0.05\n")
    code, payload, _ = run_cli([command] + base, tmp_path)
    assert code == 0
    for key, value in values.items():
        capsys.readouterr()
        code, other, _ = run_cli([command] + base + [f"--{key}", value.format(tmp=tmp_path)],
                                 tmp_path, f"{key}.json")
        if code == 2:
            assert key in capsys.readouterr().err, key
        else:
            assert code == 0 and other["rows"] != payload["rows"], key


@st.composite
def malformed_runs(draw):
    command = draw(st.sampled_from(sorted(HANDLERS)))
    keys = st.sampled_from(_keys(command) + COMMON + UNKNOWN)
    flags = draw(st.dictionaries(keys, st.sampled_from(MALFORMED), min_size=1, max_size=3))
    return [command] + [tok for key, val in flags.items() for tok in (f"--{key}", val)]


@given(argv=malformed_runs())
@settings(max_examples=60, deadline=timedelta(seconds=30))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_flags_never_raise(argv, tmp_path_factory):
    # every command, so counterexample --dump writes its drawn file name into a scratch dir
    err = io.StringIO()
    with (contextlib.chdir(tmp_path_factory.mktemp("run")),
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    if {tok[2:] for tok in argv[1::2]} - set(_keys(argv[0]) + COMMON):
        assert code == 2 and err.getvalue().startswith("precondition error: "), err.getvalue()


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


@pytest.mark.parametrize("args", [
    ["identities", "--n_max", "1e10"],
    ["identities", "--buchstab_windows", "1e15"],
    ["identities", "--k", "1e15"],  # z^k is never expanded; the int64 guard trips at j = 2
    ["cocycle-check", "--samples", "1e10"],
    ["phase", "--m_samples", "1e10"],
    ["phase", "--x_grid", "1e5"],
    ["charsum", "--q", "31627", "--stat", "gauss"],  # the least prime q with phi(q) q > 1e9
], ids=["n_max", "buchstab_windows", "k", "samples", "m_samples", "x_grid", "charsum-gauss-q"])
def test_work_beyond_budget_exit_3(args, capsys):
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["ms-sum", "--N", "1e8", "--H", "1e9"],  # an O(H) main term: 7.45 GiB unchecked
    ["residue-average", "--scales", "20"],  # z = q_20 ~ 4.3e11 indices: hours unchecked
    ["residue-average", "--scales", "5,6,7"],  # each z < 1e9, their sum 1.75e9
], ids=["ms-sum-H", "residue-scales-20", "residue-sum-of-z"])
def test_orbit_and_window_budgets_refuse_at_once(args, capsys):
    t0 = time.perf_counter()
    assert main(args) == 3
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and len(err.splitlines()) == 1


def test_charsum_refuses_before_building_rows(capsys):
    start = time.perf_counter()
    assert main(["charsum", "--q", "999983"]) == 3  # phi(q) q ~ 1e12: hours of rows
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("resource error: charsum phi(q) * q budget") and len(err.splitlines()) == 1


def test_charsum_windowed_refuses_before_listing_characters(capsys):
    start = time.perf_counter()
    assert main(["charsum", "--q", "999983", "--stat", "windowed"]) == 3  # q H' = 3.1e7
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("resource error: charsum windowed q * H' budget")
    assert len(err.splitlines()) == 1


def test_file_keys_stay_text(tmp_path, monkeypatch, capsys):
    # 1 and true would otherwise reach open() as the file descriptors of stdout
    monkeypatch.chdir(tmp_path)
    assert main(["cocycle-check", "--spec", "1"]) == 2
    assert main(["counterexample", "--stages", "1", "--dump", "true", "--out", "o.json"]) == 0
    assert json.loads((tmp_path / "true").read_text())["stage_k"]
    assert main(["counterexample", "--dump"]) == 2
    assert main(["identities", "--n_max", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and "needs a path" in err[1] and "n_max >= 2" in err[2]


@pytest.mark.parametrize("key", ["include_h", "mu_twist"])
@pytest.mark.parametrize("bad", ["flase", "1", "0", "yes", "[]"])
def test_misspelt_boolean_exit_2(key, bad, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = {bad}\n")
    for args in (["--" + key, bad], ["--config", str(cfg)]):
        assert main(["counterexample", "--stages", "1"] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition error: ") and len(err.splitlines()) == 1
        assert f"{key} must be true or false" in err


@pytest.mark.parametrize("key", ["include_h", "mu_twist"])
def test_boolean_keys_take_true_and_false(key, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = true\n")
    runs = {}
    for name, args in (("bare", ["--" + key]), ("true", ["--" + key, "true"]),
                       ("file", ["--config", str(cfg)]), ("false", [f"--{key}=false"])):
        out = tmp_path / f"{name}.json"
        assert main(["counterexample", "--stages", "1", "--out", str(out)] + args) == 0
        payload = json.loads(out.read_text())
        assert payload["config"][key] is (name != "false")
        runs[name] = payload["rows"]
    assert runs["bare"] == runs["true"] == runs["file"]
    assert ("mu_twist_avg" in runs["true"][0]) is (key == "mu_twist")
    assert "mu_twist_avg" not in runs["false"][0]


def test_bare_flag_before_another_flag(tmp_path, capsys):
    code, payload, _ = run_cli(["counterexample", "--mu_twist", "--stages", "1"], tmp_path)
    assert code == 0 and payload["config"] == {"mu_twist": True, "stages": 1, "threads": 1}
    assert "mu_twist_avg" in payload["rows"][0]
    assert main(["cf", "--quotients", "1,1", "--depth", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition error: depth ") and len(err.splitlines()) == 1


def test_decimal_stays_text(tmp_path):
    # 40 digits of 1/phi pin 45 quotients; as a float they would pin 37
    golden = "0.6180339887498948482045868343656381177203"
    code, payload, _ = run_cli(["cf", "--decimal", golden, "--depth", "45"], tmp_path)
    assert code == 0
    assert [r["a_k"] for r in payload["rows"][1:]] == [1] * 45
    assert payload["config"]["decimal"] == golden


def test_identities_command(tmp_path):
    code, payload, _ = run_cli(
        ["identities", "--n_max", "300", "--z", "2,5", "--k", "1",
         "--buchstab_windows", "3"], tmp_path)
    assert code == 0
    assert all(r["defect"] == 0 for r in payload["rows"])


def test_identities_vaughan_rows_are_per_z(monkeypatch, capsys):
    import skewlab.identities as ids
    from skewlab.errors import IntegrityError

    # the rows' 0 defect is vaughan_decompose's certificate: a failed one at z = 2 ends the run
    def decompose(n, z):
        if z == 2:
            raise IntegrityError(f"Vaughan identity failed at n={n}, z={z}")

    monkeypatch.setattr(ids, "vaughan_decompose", decompose)
    code, _, _ = run_cli(["identities", "--n_max", "50", "--z", "5,2", "--k", "1",
                          "--buchstab_windows", "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: Vaughan identity failed at n=3, z=2\n"


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
