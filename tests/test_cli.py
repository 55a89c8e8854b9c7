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
# with the exact per-point integer evaluation; the array evaluation must keep every byte.
# Every stdout pin in this file was re-recorded when the envelope lost its "threads" key
COUNTEREXAMPLE_SHA256 = [
    (["--stages", "3", "--dump", "st.json"],
     "5800f59bf5a4333e3c75796a8b1858700335d95cc1a054a73cb7fbbd4777b196",
     "5e0d39ae7120520f42cfe1185d47fc3d0a9f128ae496d4106d63ed3767e280a4"),
    (["--stages", "2", "--include_h", "true"],
     "c7b56deb9e338c3f62cb0af21ea0398da16773ce69d058050c3cf3e9e331c6e7", None),
    (["--stages", "2", "--include_h", "true", "--dump", "st.json"],
     "3d234a49eacf588aba11fe5f082f72242c068532a893bcbce6303ee2375d408b",
     "bb0874d16d8ef5c5cc5c8b9abdf1e3cbeb620f4360b50307eff9fd9275ba747a"),
    (["--stages", "2", "--mu_twist", "true", "--dump", "st.json"],
     "8c43de76be5a8fa9b1e518c2c3c02c66b72bbb871619c630ba61ae933092cee0",
     "fa8d0d828d4d00300b4165d875cec4eeab262814e91be7ee030b9147f912e2f8"),
]


@pytest.mark.parametrize("args, stdout_sha, dump_sha", COUNTEREXAMPLE_SHA256,
                         ids=["stages-3-dump", "stages-2-h", "stages-2-h-dump", "stages-2-mu-dump"])
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
# (largest change in |G|: 1.8e-14), and all four when the value rows and the window twists
# came from e() too (largest change 3.6e-12 absolute, in windowed-1009: 8.4e-16 relative)
CHARSUM_SHA256 = [
    (["--stat", "gauss", "--q", "1024"],
     "de495584bb39a5203ff803a5da8503346f03859f9042ad5c016055479b62b5ca"),
    (["--stat", "gauss", "--q", "1155"],
     "e016b6173479a55e0be97460ee0af4744ee3f4e0fd06496df8a211e6066abdd1"),
    (["--stat", "progression", "--q", "1155", "--r", "2"],
     "4c0cee78aa0a2cacfae6f81202fdce3e101d2ccae5f8d8c90fa62bc020f53a5c"),
    (["--stat", "windowed", "--q", "1009"],
     "c1c53fc008c9288204fff6a5507db50a46cc8f41e4bf65583bdf927281e488c9"),
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
# 1.3e-13 absolute), and when kappa_m = a_m e(m x) / (e(m alpha) - 1) of the fiber was
# formed without the cancelling e(m alpha) - 1 (largest change 2.2e-10, in prime-three-N).
# prime-three-N was re-recorded when e(b x_k) came from rotation tables instead of one e() of
# the rounded b x_k + c y_k (largest change 1.0e-15 absolute at N = 1e5, 4.3e-13 relative at 1e7)
ORBIT_SHA256 = [
    (["prime-average", "--N", "1e5,4194306,1e7", "--b", "1", "--c", "2"],
     "ef9bf055a15f3d4f5d7d8798f124a2811288021a9ecf41e5b8098e0df6549a72"),
    (["prime-average", "--N", "3e6", "--b", "0", "--c", "1"],
     "8795f7f0146be8ed064d60076a3096dd236d276a2e934225fe1b26dd7f76568f"),
    (["residue-average", "--scales", "3"],
     "bf0ca5d7f34925e7b03a04b095465c3bca49b33654b2294faee60aad5861cb0c"),
]


@pytest.mark.parametrize("args, stdout_sha", ORBIT_SHA256,
                         ids=["prime-three-N", "prime-3e6", "residue-3"])
def test_orbit_bytes_pinned(args, stdout_sha, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


# sha256 of the other prime-fed commands' stdout under SOURCE_DATE_EPOCH=0, recorded with
# the dense sieve beside the segmented one; one sieve must keep every byte.  huxley-sliding
# was re-recorded when the sliding statistic streamed its events by prime window (value
# 197358407.15576762 -> ...56, a change of 6.0e-8, 3.0e-16 relative), and again when its
# three L1 terms left the BLAS dot for numpy's pairwise sum (...56 -> ...62, the same size),
# and when the walk grouped those terms by steps of SLIDE_STEP window starts (...62 -> ...56)
PRIME_FED_SHA256 = [
    (["huxley"], "1636b83be49c2c2245991f1879a319a3198b6031b46ccba0c6a9cf07f830e284"),
    (["huxley", "--x", "300000", "--H", "3000", "--q", "9973", "--r", "31"],
     "ae42e66900947b872cd0003e8aca9463322ed78db66c06cb69b0d2b826ad9aa3"),
    (["identities", "--n_max", "5000", "--k", "1,2,3"],
     "2803b1b2c8a09a84a65de233c7b0c916fcfb62ae834a561ecbe89908355c4635"),
    (["ms-sum"], "a4a56dbd8881a0038c985a02ead2f39574179783fe111f0ee0d26107283e88a0"),
]


@pytest.mark.parametrize("args, stdout_sha", PRIME_FED_SHA256,
                         ids=["huxley-H-x", "huxley-sliding", "identities-5000", "ms-sum"])
def test_prime_fed_bytes_pinned(args, stdout_sha, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


def test_pinned_bytes_do_not_follow_the_blas_threads():
    # the BLAS dot summed the sliding L1 in an order set by its thread count
    outs = []
    for threads in ("1", "2"):
        env = {"PATH": "/usr/bin:/bin", "SOURCE_DATE_EPOCH": "0",
               "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "skewlab.cli", *PRIME_FED_SHA256[1][0]],
                              capture_output=True, env=env, cwd=REPO_ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# sha256 of the remaining commands' stdout under SOURCE_DATE_EPOCH=0; every byte must stay.
# discrepancy (Weyl sums) was re-recorded when e() moved from cos/sin to a table of
# 4096th roots (largest change: 1.6e-16); cocycle-check and phase when their phases m x
# were reduced exactly and fed to e() (closed_vs_direct 7.6e-10 -> 1.8e-11; phase errors
# by at most 9.2e-15)
OTHER_SHA256 = [
    (["cf", "--quotients", "3,7,15,1,292"],
     "86167a59c8562fdc715fab5862c5469b236cbc71f08689afca8ee8e352bdccfa"),
    (["orbit"], "fe23b01d1325dfdf13ec6cb6873d5cbf1ae92f2f8659bf6ff645826237eccb35"),
    (["cocycle-check"], "9a97998ffdbc69e58d6d55783018f1cc449ce872d6c5353554cbc7d665bb0d26"),
    (["phase"], "9fe1a583e2dff26e0bcce11dfebaa1795945ad5b5bf69ce5cefd31c1097562f3"),
    (["discrepancy"], "feaf72b12c1bc93804f0738b760c15931a45c78655f59d9915f91e12e5968330"),
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
    ["cocycle-check", "--seed", "-1"],
    ["identities", "--seed", "-1"],
    ["prime-average", "--N", "1e9", "--threads", "2"],
    ["orbit", "--seed", "1"],
    ["prime-average", "--N", "1000", "--c", "1e30"],
    ["residue-average", "--scales", "1", "--c", "1e30"],
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
        "counterexample-stages-negative", "cocycle-check-seed-negative",
        "identities-seed-negative", "threads-is-no-key", "seed-only-where-drawn",
        "prime-average-c-beyond-phase-bound", "residue-average-c-beyond-phase-bound"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_domain_value_exit_2(args, tmp_path, capsys):
    (tmp_path / "g.csv").write_text("1,0.1,0\n3,0,0.05\n")
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition error: ") and len(err.splitlines()) == 1


def test_prime_average_keeps_a_huge_b(tmp_path):
    # b = 10**30 was once multiplied into a float x_k, rounded away, and the (0, 0) value
    # theta(N)/N printed as the average; a huge c is refused (exit 2, above)
    code, payload, _ = run_cli(["prime-average", "--N", "1000", "--b", "1" + "0" * 30,
                                "--c", "0"], tmp_path)
    assert code == 0
    (row,) = payload["rows"]
    assert abs(complex(row["re_avg"], row["im_avg"]) - row["theta_ratio"]) > 0.1


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


# each command's keys, written out as the handler table listed them before the handler
# signatures declared them; seed only where a command draws random inputs
KEYS = {
    "cf": ("quotients", "decimal", "depth"),
    "cocycle-check": ("samples", "spec", "decay_rate", "quotients", "seed"),
    "phase": ("scales", "m_samples", "w", "x_grid"),
    "orbit": ("pair", "x", "y", "steps"),
    "prime-average": ("pair", "b", "c", "x", "y", "N"),
    "residue-average": ("pair", "b", "c", "scales"),
    "huxley": ("x", "H", "q", "r"),
    "charsum": ("q", "stat", "r", "gauss_x", "Hp", "chi_index"),
    "identities": ("n_max", "z", "k", "buchstab_windows", "seed"),
    "ms-sum": ("N", "H", "r", "a", "coeffs", "eta", "B"),
    "counterexample": ("stages", "include_h", "mu_twist", "eps", "dump"),
    "discrepancy": ("N", "K"),
}
# misspelt keys, the old parser's --set, keys that only other commands read, and the
# removed --threads
UNKNOWN = ("dpeth", "obs", "set", "n_max", "stages", "seed", "threads")
MALFORMED = ("abc", "", "-1", "0", "2.5", "1e10", "-1e10", "1e15", "1e400", "Infinity", "NaN", "[]",
             "1,zz", "true")


def _keys(command):
    return tuple(inspect.signature(HANDLERS[command]).parameters)


@pytest.mark.parametrize("command", sorted(KEYS))
def test_handler_signature_declares_the_keys(command):
    assert set(HANDLERS) == set(KEYS)
    params = inspect.signature(HANDLERS[command]).parameters
    assert set(params) == set(KEYS[command])
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
    keys = st.sampled_from(_keys(command) + UNKNOWN)
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
    if {tok[2:] for tok in argv[1::2]} - set(_keys(argv[0])):
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


@pytest.mark.parametrize("command, work", [("cocycle-check", "skewlab.presets.prime_pair"),
                                           ("identities", "skewlab.identities.vaughan_decompose")])
def test_negative_seed_refused_before_any_work(command, work, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError(f"{work} ran before the seed was checked")

    monkeypatch.setattr(work, refuse)
    assert main([command, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "precondition error: seed must be >= 0, got -1\n"


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
    ["ms-sum", "--N", "1e8", "--H", "1e9"],  # an O(H) main term: over a minute unchecked
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
    assert code == 0 and payload["config"] == {"mu_twist": True, "stages": 1}
    assert "mu_twist_avg" in payload["rows"][0]
    assert main(["cf", "--depth", "--quotients", "1,1"]) == 2
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


def test_entry_point_subprocess(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "skewlab.cli", "cf", "--quotients", "3,7", "--depth", "2",
         "--out", str(out)],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin", "SOURCE_DATE_EPOCH": "0",
                                             "PYTHONPATH": str(REPO_ROOT / "src"),
                                             "PYTHONDONTWRITEBYTECODE": "1"},
        cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["started"] == "1970-01-01T00:00:00Z"
