"""CLI harness: end-to-end pipeline on a tiny wave problem, determinism,
network save/load, error handling."""

import csv
import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from sympmor import cli, reduction
from sympmor.cli import load_network, main, save_network, speed_test
from sympmor.config import VARIANTS, RunConfig
from sympmor.errors import ConfigError, IntegrationFailureError, SympmorError
from sympmor.network import build_network
from sympmor.optimizers import PSD_OPTIMIZERS
from sympmor.reduction import SnapshotSet
from sympmor.snapshot_io import read_snapshot_file, write_snapshot_file


WAVE_CFG = """
variant = V3
model = wave
N = 6
n_range = 2
mu_list = 0.25 0.3
testing = 0.25
n_epochs = 2
batch_size = 8
time_steps = 10
eta = 0.01
seed = 5
"""


def cfg_with(text, lines):
    """Config text with the keys of lines set to their values in lines."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + [lines]) + "\n"


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(WAVE_CFG)
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_pipeline_end_to_end(cfg_path, tmp_path, capsys):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"

    assert main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    snap = data_dir / "snapshots.bin"
    assert snap.exists() and Path(str(snap) + ".meta.json").exists()

    assert main(["normalize", "--input", str(snap), "--out", str(data_dir)]) == 0
    norm = data_dir / "snapshots_normalized.bin"
    assert norm.exists()

    assert main(["train", "--config", str(cfg_path), "--data", str(norm),
                 "--out", str(run_dir)]) == 0
    assert (run_dir / "losses_n2.csv").exists()
    assert (run_dir / "params_n2.npz").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["variant"] == "V3"
    assert "initialization" in manifest
    assert manifest["summaries"]["2"]["stalled"] is False
    losses = read_csv(run_dir / "losses_n2.csv")
    assert losses[0] == ["epoch", "avg_loss"]
    assert len(losses) == 3  # header + 2 epochs
    assert float(losses[1][1]) > 0

    assert main(["evaluate", "--config", str(cfg_path), "--run", str(run_dir)]) == 0
    errors = read_csv(run_dir / "errors.csv")
    assert errors[0] == ["n", "param", "e_red", "e_proj", "integration_seconds"]
    assert len(errors) == 2  # one testing parameter, one n
    assert float(errors[1][2]) >= 0

    assert main(["psd", "--config", str(cfg_path), "--data", str(snap),
                 "--out", str(run_dir)]) == 0
    psd = read_csv(run_dir / "psd_errors.csv")
    assert len(psd) == 2
    # at n = 2 on a tiny problem the linear baseline reduction error is finite
    assert 0 <= float(psd[1][2]) < 10

    assert main(["report", str(run_dir), "--out", str(run_dir)]) == 0
    report = read_csv(run_dir / "report.csv")
    assert report[0][0] == "variant"
    assert report[1][0] == "V3"


def test_training_csv_bitwise_deterministic(cfg_path, tmp_path):
    data_dir = tmp_path / "data"
    main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)])
    main(["normalize", "--input", str(data_dir / "snapshots.bin"), "--out", str(data_dir)])
    norm = str(data_dir / "snapshots_normalized.bin")
    main(["train", "--config", str(cfg_path), "--data", norm, "--out", str(tmp_path / "a")])
    main(["train", "--config", str(cfg_path), "--data", norm, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "losses_n2.csv").read_bytes()
    b = (tmp_path / "b" / "losses_n2.csv").read_bytes()
    assert a == b


def test_noepoch_csv_has_one_row_per_batch(cfg_path, tmp_path):
    """V1 samples batches without epochs: its CSV says so in the header and
    holds ceil(n_epochs * columns / batch_size) batch losses."""
    cfg_path.write_text(cfg_with(WAVE_CFG, "variant = V1"))
    data_dir = tmp_path / "data"
    assert main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir / "snapshots.bin"),
                 "--out", str(tmp_path / "run")]) == 0
    rows = read_csv(tmp_path / "run" / "losses_n2.csv")
    assert rows[0] == ["batch", "loss"]
    cols = 2 * (10 + 1)   # two speeds, K + 1 snapshots each
    assert [int(row[0]) for row in rows[1:]] == list(range(1, -(-2 * cols // 8) + 1))


def test_seed_flag_overrides_config(cfg_path, tmp_path):
    data_dir = tmp_path / "data"
    main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)])
    meta = json.loads((data_dir / "snapshots.bin.meta.json").read_text())
    assert meta["seed"] == 5
    main(["generate-data", "--config", str(cfg_path), "--seed", "11",
          "--out", str(data_dir)])
    meta = json.loads((data_dir / "snapshots.bin.meta.json").read_text())
    assert meta["seed"] == 11


def test_network_save_load_roundtrip(tmp_path):
    netw = build_network(8, 4, seed=2)
    p = tmp_path / "net.npz"
    save_network(netw, p)
    back = load_network(p)
    x = np.random.default_rng(0).standard_normal((8, 3))
    out_a, _ = netw.forward(x)
    out_b, _ = back.forward(x)
    assert np.array_equal(out_a, out_b)
    assert back.encoder_len == 5 and back.decoder_jacobian(np.zeros(4))[1].shape == (8, 4)
    # the file stores no width: each follows from the arrays
    with np.load(p) as data:
        spec = json.loads(data["spec"].tobytes().decode())
    assert set(spec) == {"layers", "encoder_len"}
    assert all(set(entry) <= {"type", "kind", "direction"} for entry in spec["layers"])


def test_load_network_reads_files_that_name_tanh():
    """data/params_tanh_spec.npz is save_network(build_network(8, 4, seed=2))
    as written when the spec named each gradient layer's activation, "tanh";
    the outputs file holds its encode(x) and decode(xi) from then."""
    path = Path(__file__).parent / "data" / "params_tanh_spec.npz"
    with np.load(path) as data:
        spec = json.loads(data["spec"].tobytes().decode())
    assert {entry.get("activation") for entry in spec["layers"]} == {"tanh", None}
    back = load_network(path)
    with np.load(path.with_name("params_tanh_spec_outputs.npz")) as want:
        assert np.array_equal(back.encode(want["x"]), want["encoded"])
        assert np.array_equal(back.decode(want["xi"]), want["decoded"])


def rewrite_params(src, dst, edit):
    """Copy a params file through edit(arrays, spec), which changes both in place."""
    with np.load(src) as data:
        arrays = dict(data)
    spec = json.loads(arrays["spec"].tobytes().decode())
    edit(arrays, spec)
    arrays["spec"] = np.frombuffer(json.dumps(spec).encode(), dtype=np.uint8)
    np.savez(dst, **arrays)


def with_width_keys(arrays, spec):
    """The spec as files once held it: every width stored beside the arrays."""
    for i, entry in enumerate(spec["layers"]):
        if entry["type"] == "gradient":
            L, half = arrays[f"K_{i}"].shape
            entry.update(dim=2 * half, upscale=L)
    spec.update(full_dim=8, reduced_dim=4)


def test_load_network_ignores_stored_widths(tmp_path):
    netw = build_network(8, 4, seed=2)
    save_network(netw, tmp_path / "net.npz")
    rewrite_params(tmp_path / "net.npz", tmp_path / "old.npz", with_width_keys)
    back = load_network(tmp_path / "old.npz")
    rng = np.random.default_rng(0)
    x, xi = rng.standard_normal((8, 3)), 0.3 * rng.standard_normal(4)
    assert np.array_equal(back.forward(x)[0], netw.forward(x)[0])
    for got, want in zip(back.decoder_jacobian(xi), netw.decoder_jacobian(xi)):
        assert np.array_equal(got, want)


def short_a0(arrays, spec):
    arrays["a_0"] = arrays["a_0"][:-1]


# edit of a good params file -> a word of the SympmorError it must raise at load
BAD_PARAMS = {
    "short a_0": (short_a0, "ValueError"),
    "wide K_5": (lambda arrays, spec: arrays.update(K_5=np.hstack([arrays["K_5"]] * 2)),
                 "DimensionError"),
    "kind R": (lambda arrays, spec: spec["layers"][0].update(kind="R"), "unknown layer"),
    "direction lift": (lambda arrays, spec: spec["layers"][4].update(direction="lift"),
                       "unknown layer"),
    "encoder_len 0": (lambda arrays, spec: spec.update(encoder_len=0), "encoder_len"),
    "encoder_len 9": (lambda arrays, spec: spec.update(encoder_len=9), "encoder_len"),
    "activation relu": (lambda arrays, spec: spec["layers"][5].update(activation="relu"),
                        "layer 5: activation 'relu'"),
}


@pytest.mark.parametrize("edit, word", BAD_PARAMS.values(), ids=list(BAD_PARAMS))
def test_load_network_rejects_layers_that_do_not_chain(edit, word, tmp_path):
    save_network(build_network(8, 4, seed=2), tmp_path / "net.npz")
    rewrite_params(tmp_path / "net.npz", tmp_path / "bad.npz", edit)
    with pytest.raises(SympmorError, match=word):
        load_network(tmp_path / "bad.npz")
    # the same edit is caught in a file that still stores the widths
    rewrite_params(tmp_path / "bad.npz", tmp_path / "bad_old.npz", with_width_keys)
    with pytest.raises(SympmorError, match=word):
        load_network(tmp_path / "bad_old.npz")


def test_cli_errors_are_reported(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = heat\nmu_list = 0.5\n")
    rc = main(["generate-data", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # unreadable snapshot input
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"XXXX" + b"\x00" * 40)
    rc = main(["normalize", "--input", str(junk), "--out", str(tmp_path)])
    assert rc == 1
    capsys.readouterr()

    def reports_error(argv):
        rc = main(argv)
        err = capsys.readouterr().err
        return rc == 1 and err.startswith("error: ") and err.count("\n") == 1

    bad.write_text("model = wave\nN = abc\nmu_list = 0.5\n")
    assert reports_error(["generate-data", "--config", str(bad), "--out", str(tmp_path)])
    assert reports_error(["generate-data", "--config", str(tmp_path / "missing.cfg"),
                          "--out", str(tmp_path)])
    assert reports_error(["normalize", "--input", str(tmp_path / "missing.bin"),
                          "--out", str(tmp_path)])
    short = tmp_path / "short.bin"
    short.write_bytes(b"SMOR" + b"\x00" * 10)
    assert reports_error(["normalize", "--input", str(short), "--out", str(tmp_path)])
    # header claiming 2^40 rows on an empty payload
    huge = tmp_path / "huge.bin"
    huge.write_bytes(struct.pack("<4sIQQQQB", b"SMOR", 1, 2 ** 40, 2, 1, 1, 0))
    assert reports_error(["normalize", "--input", str(huge), "--out", str(tmp_path)])
    good = tmp_path / "good.bin"
    snaps = SnapshotSet(data=np.ones((4, 3)), params=[0.5], K=2, t0=0.0, t1=1.0)
    write_snapshot_file(good, snaps)
    meta = Path(str(good) + ".meta.json")
    for text in ("{not json", "[1, 2]"):
        meta.write_text(text)
        assert reports_error(["normalize", "--input", str(good), "--out", str(tmp_path)])
    # evaluate on a run whose params file is missing, then truncated, then has a short a_0
    cfg = tmp_path / "wave.cfg"
    cfg.write_text(WAVE_CFG)
    # non-positive sizes, V1's no-epoch batch count and a fractional n_range
    wave = tmp_path / "wave"
    assert main(["generate-data", "--config", str(cfg), "--out", str(wave)]) == 0
    for line in ("batch_size = 0", "batch_size = -4", "n_epochs = 0", "time_steps = -2",
                 "n_range = -1", "n_range = 2.5", "variant = V1\nbatch_size = 0"):
        bad.write_text(cfg_with(WAVE_CFG, line))
        assert reports_error(["train", "--config", str(bad), "--data", str(wave / "snapshots.bin"),
                              "--out", str(tmp_path / "sizes")]), line
    # a key given twice
    bad.write_text(WAVE_CFG + "variant = V1\n")
    assert reports_error(["train", "--config", str(bad), "--data", str(wave / "snapshots.bin"),
                          "--out", str(tmp_path / "sizes")])
    assert not (tmp_path / "sizes").exists()
    run = tmp_path / "run"
    run.mkdir()
    evaluate = ["evaluate", "--config", str(cfg), "--run", str(run)]
    assert reports_error(evaluate)
    params = run / "params_n2.npz"
    save_network(build_network(16, 4, seed=2), params)
    params.write_bytes(params.read_bytes()[:200])
    assert reports_error(evaluate)
    save_network(build_network(16, 4, seed=2), params)
    rewrite_params(params, params, short_a0)
    assert reports_error(evaluate)
    for pairs in ("abc", "2000", "10x20"):
        assert reports_error(["speed-test", "--pairs", pairs, "--out", str(tmp_path)])
    # report on an empty errors.csv, then on a malformed manifest
    (run / "errors.csv").write_text("")
    report = ["report", str(run), "--out", str(tmp_path)]
    assert reports_error(report)
    (run / "errors.csv").write_text("n,param,e_red,e_proj,integration_seconds\n")
    for text in ("{not json", "[1, 2]", '{"config": {"variant": 3}}'):
        (run / "manifest.json").write_text(text)
        assert reports_error(report)


SG_CFG = """
model = sg_single_soliton
N = 16
n_range = 2
nu_list = 0.5
time_steps = 5
a = -10
b = 10
"""


@pytest.mark.parametrize("command, text, extra", [
    ("train", WAVE_CFG, ["--seed", "-1"]),
    ("train", cfg_with(WAVE_CFG, "seed = -3"), []),
    ("train", cfg_with(WAVE_CFG, "eta = -1"), []),
    ("train", cfg_with(WAVE_CFG, "eta = 0"), []),
    ("generate-data", cfg_with(SG_CFG, "t0 = 1\nt1 = 0"), []),
    ("speed-test", None, ["--seed", "-1"]),
], ids=["seed-flag", "seed-key", "eta-negative", "eta-zero", "t1-before-t0", "speed-test-seed"])
def test_bad_seed_eta_and_span_end_in_one_error_line(command, text, extra, tmp_path, capsys):
    """A negative seed, a non-positive eta and t1 <= t0 exit 1 with one error: line
    and no traceback, before anything is written."""
    if command == "train":
        ok, data = tmp_path / "ok.cfg", tmp_path / "data"
        ok.write_text(WAVE_CFG)
        assert main(["generate-data", "--config", str(ok), "--out", str(data)]) == 0
        extra = extra + ["--data", str(data / "snapshots.bin")]
    if text is not None:
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        extra = extra + ["--config", str(bad)]
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("pairs, entry", [("10x10", "10x10"), ("8x2,4x4", "4x4")])
def test_speed_test_pair_with_n_equal_to_N_is_a_parse_error(pairs, entry, tmp_path, capsys,
                                                             monkeypatch):
    """The homogeneous step's section needs N > n, so n = N is a bad --pairs entry,
    reported before any pair is timed."""
    monkeypatch.setattr(cli, "speed_test", lambda *a, **k: pytest.fail("pairs were timed"))
    out = tmp_path / "out"
    assert main(["speed-test", "--pairs", pairs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: SympmorError: bad --pairs entry '{entry}'")
    assert err.count("\n") == 1 and not out.exists()


def test_snapshot_file_with_trailing_bytes_is_an_error(cfg_path, tmp_path, capsys):
    """A header whose columns understate the payload is an error naming the extra
    bytes, not a silently read prefix."""
    data = tmp_path / "snapshots.bin"
    write_snapshot_file(data, SnapshotSet(data=np.ones((4, 3)), params=[0.5], K=2,
                                          t0=0.0, t1=1.0))
    data.write_bytes(data.read_bytes() + b"\x00" * 24)
    with pytest.raises(SympmorError, match="24 bytes after the 4 x 3 payload"):
        read_snapshot_file(data)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SympmorError: 24 bytes") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("model", ["sg_single_soliton", "sg_doublets"])
def test_overflowing_closed_form_is_an_error(model, tmp_path, capsys):
    """On [-1000, 1000] the sine-Gordon closed form overflows to inf/inf far from
    the wave: generate-data exits 1 with one error: line naming the parameter
    and writes no snapshot file."""
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"model = {model}\nN = 50\na = -1000\nb = 1000\nt0 = 0\nt1 = 1\n"
                   "nu_list = 0.6\n")
    out = tmp_path / "out"
    assert main(["generate-data", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "parameter 0.6" in err
    assert not (out / "snapshots.bin").exists()


def test_evaluate_leaves_out_alone(cfg_path, tmp_path, capsys):
    """evaluate writes errors.csv into --run; it takes no --out, and given one
    it exits nonzero and writes nothing."""
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir / "snapshots.bin"),
                 "--out", str(run_dir)]) == 0
    unused = tmp_path / "unused"
    with pytest.raises(SystemExit) as info:
        main(["evaluate", "--config", str(cfg_path), "--run", str(run_dir),
              "--out", str(unused)])
    assert info.value.code != 0
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (run_dir / "errors.csv").exists() and not unused.exists()


def test_evaluate_scores_a_run_with_its_trained_variant(cfg_path, tmp_path, capsys):
    """evaluate takes the reference-state choice from the run's manifest: a config
    that names another variant is one error line and leaves errors.csv as it was;
    a manifest that records no variant still records normalized; without a
    manifest the config's variant decides."""
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    v2_cfg, v3_cfg = tmp_path / "v2.cfg", cfg_path
    v2_cfg.write_text(cfg_with(WAVE_CFG, "variant = V2"))
    assert main(["train", "--config", str(v2_cfg), "--data", str(data_dir / "snapshots.bin"),
                 "--out", str(run_dir)]) == 0

    def errors(cfg):
        """(n, param, e_red, e_proj) of each row evaluate writes under cfg."""
        assert main(["evaluate", "--config", str(cfg), "--run", str(run_dir)]) == 0
        return [row[:4] for row in read_csv(run_dir / "errors.csv")[1:]]

    no_ref = errors(v2_cfg)
    written = (run_dir / "errors.csv").read_bytes()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(v3_cfg), "--run", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SympmorError: run ") and "variant V2" in err
    assert err.count("\n") == 1
    assert (run_dir / "errors.csv").read_bytes() == written

    mpath = run_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    assert manifest["config"]["normalized"] is False
    manifest["config"]["variant"] = ""
    mpath.write_text(json.dumps(manifest))
    assert errors(v3_cfg) == no_ref
    mpath.unlink()
    assert errors(v3_cfg) != no_ref     # the config's V3 scores the with-reference ROM


# subcommand -> its own arguments, to which each unread shared flag is added
UNREAD_FLAGS = {
    "normalize": (["--input", "snapshots.bin"], ["--config", "--seed"]),
    "report": (["run"], ["--config", "--seed"]),
    "speed-test": (["--pairs", "8x2"], ["--config"]),
    "evaluate": (["--config", "run.cfg", "--run", "run"], ["--out", "--seed"]),
    "psd": (["--config", "run.cfg", "--data", "snapshots.bin"], ["--seed"]),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in UNREAD_FLAGS.items() for flag in flags])
def test_subcommands_reject_flags_they_do_not_read(command, flag, tmp_path, capsys):
    """Each subcommand accepts only the flags it reads: the rest are usage errors,
    raised before any file is opened or written."""
    args = [str(tmp_path / a) if a in ("snapshots.bin", "run", "run.cfg") else a
            for a in UNREAD_FLAGS[command][0]]
    with pytest.raises(SystemExit) as info:
        main([command, *args, flag, "7"])
    assert info.value.code != 0
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("variant", ["V1", "V2"])
def test_train_rejects_normalized_data_under_a_raw_variant(variant, cfg_path, tmp_path, capsys):
    """V1 and V2 train on raw snapshots; a normalized file is an error, not a
    network that evaluate would then score through the no-reference ROM."""
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    assert main(["normalize", "--input", str(data_dir / "snapshots.bin"),
                 "--out", str(data_dir)]) == 0
    cfg_path.write_text(cfg_with(WAVE_CFG, f"variant = {variant}"))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path),
                 "--data", str(data_dir / "snapshots_normalized.bin"),
                 "--out", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: SympmorError: variant {variant} trains on unnormalized")
    assert err.count("\n") == 1 and not run_dir.exists()
    # the raw file still trains
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir / "snapshots.bin"),
                 "--out", str(run_dir)]) == 0


def test_report_labels_an_unnamed_variant_with_its_directory(tmp_path):
    """Manifests written before every run named a variant record "": such a run's
    rows carry its directory name, so two of them stay apart."""
    for name in ("a", "b"):
        run = tmp_path / name
        run.mkdir()
        (run / "errors.csv").write_text("n,param,e_red,e_proj,integration_seconds\n"
                                        "4,0.5,1,1,1\n")
        (run / "manifest.json").write_text(json.dumps({"config": {"variant": ""}}))
    assert main(["report", str(tmp_path / "a"), str(tmp_path / "b"),
                 "--out", str(tmp_path)]) == 0
    assert [row[0] for row in read_csv(tmp_path / "report.csv")[1:]] == ["a", "b"]


def test_report_sorts_n_and_param_as_numbers(tmp_path, capsys):
    header = "n,param,e_red,e_proj,integration_seconds\n"
    run = tmp_path / "V3"
    run.mkdir()
    (run / "errors.csv").write_text(header + "10,0.5,1,1,1\n4,0.5,1,1,1\n"
                                    "4,10.0,1,1,1\n4,2.0,1,1,1\n")
    assert main(["report", str(run), "--out", str(tmp_path)]) == 0
    report = read_csv(tmp_path / "report.csv")
    assert [row[1:3] for row in report[1:]] == [
        ["4", "0.5"], ["4", "2.0"], ["4", "10.0"], ["10", "0.5"]]
    (run / "errors.csv").write_text(header + "four,0.5,1,1,1\n")
    assert main(["report", str(run), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: SympmorError")


def test_evaluate_and_psd_share_one_loop(cfg_path, tmp_path, monkeypatch):
    cfg_path.write_text(WAVE_CFG.replace("n_range = 2", "n_range = 2 3")
                        .replace("testing = 0.25", "testing = 0.25 0.3"))
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)])
    main(["normalize", "--input", str(data_dir / "snapshots.bin"), "--out", str(data_dir)])
    main(["train", "--config", str(cfg_path),
          "--data", str(data_dir / "snapshots_normalized.bin"), "--out", str(run_dir)])
    evaluate = ["evaluate", "--config", str(cfg_path), "--run", str(run_dir)]
    psd = ["psd", "--config", str(cfg_path), "--data", str(data_dir / "snapshots.bin"),
           "--out", str(run_dir)]

    # each test parameter's FOM is solved once, not once per reduced size n
    fom_solves = []
    solve = cli.implicit_midpoint

    def counting(sys_fom, *args, **kwargs):
        fom_solves.append(sys_fom.dim)
        return solve(sys_fom, *args, **kwargs)

    monkeypatch.setattr(cli, "implicit_midpoint", counting)
    assert main(evaluate) == 0
    assert len(fom_solves) == 2
    assert len(read_csv(run_dir / "errors.csv")) == 5

    # a ROM solver failure is a "failed" row in both commands
    def fail(*args, **kwargs):
        raise IntegrationFailureError(3)

    monkeypatch.setattr(reduction, "solve_rom", fail)
    assert main(evaluate) == 0
    assert main(psd) == 0
    for name in ("errors.csv", "psd_errors.csv"):
        rows = read_csv(run_dir / name)[1:]
        assert [(r[0], r[1]) for r in rows] == [("2", "0.25"), ("2", "0.3"),
                                                ("3", "0.25"), ("3", "0.3")]
        assert all(r[2] == r[3] == "failed" for r in rows)


def test_integration_seconds_include_build_rom(cfg_path, tmp_path, monkeypatch):
    """integration_seconds times the ROM's set-up with its solve: a build_rom
    that takes 0.1 s more shows in every row."""
    data_dir = tmp_path / "data"
    assert main(["generate-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    build = reduction.build_rom

    def slow(*args, **kwargs):
        time.sleep(0.1)
        return build(*args, **kwargs)

    monkeypatch.setattr(reduction, "build_rom", slow)
    assert main(["psd", "--config", str(cfg_path), "--data", str(data_dir / "snapshots.bin"),
                 "--out", str(tmp_path / "psd")]) == 0
    rows = read_csv(tmp_path / "psd" / "psd_errors.csv")[1:]
    assert rows and all(float(row[4]) >= 0.1 for row in rows)


# The benchmark's desk training: N = 32, n = 4, five speeds, K = 50, 10 epochs.
DESK_CFG = """
model = wave
N = 32
n_range = 4
mu_left = 0.4166666666666667
mu_right = 0.6666666666666666
n_params = 5
n_epochs = 10
batch_size = 32
time_steps = 50
seed = 7
"""


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    cfg = base / "desk.cfg"
    cfg.write_text(DESK_CFG)
    assert main(["generate-data", "--config", str(cfg), "--out", str(base)]) == 0
    assert main(["normalize", "--input", str(base / "snapshots.bin"), "--out", str(base)]) == 0
    return base


def _train_desk(desk_data, tmp_path, variant, eta, data_name):
    cfg = tmp_path / f"{variant}.cfg"
    cfg.write_text(DESK_CFG + f"variant = {variant}\neta = {eta}\n")
    out = tmp_path / variant
    rc = main(["train", "--config", str(cfg), "--data", str(desk_data / data_name),
               "--out", str(out)])
    return rc, out


def test_desk_divergence_is_reported(desk_data, tmp_path, capsys):
    """V6 at eta = 100 used to exit 0 with epoch losses 1.07 -> 70.7 -> 126."""
    capsys.readouterr()
    rc, out = _train_desk(desk_data, tmp_path, "V6", 100, "snapshots_normalized.bin")
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith("error: TrainingDivergedError: training diverged at batch ")
    assert not (out / "params_n4.npz").exists()


def test_desk_drift_is_renormalized(desk_data, tmp_path):
    """V1 at eta = 10 drifts off the manifold inside the homogeneous retraction;
    it used to die there with DimensionError and now trains on."""
    with pytest.warns(RuntimeWarning, match="re-orthonormalizing"):
        rc, out = _train_desk(desk_data, tmp_path, "V1", 10, "snapshots.bin")
    assert rc == 0
    assert (out / "params_n4.npz").exists()
    # the last loss is 1.8x the first: recorded, not an error
    assert json.loads((out / "manifest.json").read_text())["summaries"]["4"]["stalled"]


def test_speed_test_rows():
    rows = speed_test([(60, 4)])
    assert {r[0] for r in rows} == {"homogeneous", "stiefel_decay"}
    for r in rows:
        assert r[1] == 60 and r[2] == 4 and r[3] > 0


def test_speed_test_runs_every_psd_optimizer():
    rows = speed_test([(8, 2)], optimizers=tuple(PSD_OPTIMIZERS))
    assert [r[0] for r in rows] == list(PSD_OPTIMIZERS)
    with pytest.raises(ConfigError):
        speed_test([(8, 2)], optimizers=("stiefel_decayed",))


@pytest.fixture(scope="module")
def tiny_snapshots():
    """Wave snapshots with 8 columns (N = 4, K = 7): two batches of 4."""
    return cli.generate_snapshots(RunConfig(N=4, time_steps=7, params=[0.25]))


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_every_variant_trains_through_train_run(variant, tiny_snapshots, tmp_path):
    """Each row's optimizer, metric, transport, loss and sampling mode trains."""
    cfg = RunConfig(N=4, n_range=[1], time_steps=7, n_epochs=1, batch_size=4, eta=0.01,
                    params=[0.25], seed=3).apply_variant(variant).validate()
    setup = cfg.setup
    snaps = reduction.normalize_snapshots(tiny_snapshots) if setup.normalized else tiny_snapshots
    cli.train_run(cfg, snaps, tmp_path)
    losses = [float(row[1]) for row in read_csv(tmp_path / "losses_n1.csv")[1:]]
    # one epoch-mean row, or one row per batch without epochs
    assert len(losses) == (1 if setup.epochwise else 2)
    # the manifest spells out the variant's setup
    written = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert written["variant"] == variant
    assert [written[key] for key in setup._fields] == [
        getattr(value, "value", value) for value in setup]
    assert np.all(np.isfinite(losses))
    for layer in load_network(tmp_path / "params_n1.npz").layers:
        if hasattr(layer, "weight"):
            assert layer.weight.ortho_residual() < 1e-12


@pytest.mark.parametrize("n_epochs", [1, 2])
def test_stalled_is_null_for_a_single_loss(n_epochs, tiny_snapshots, tmp_path):
    """One epoch loss is both first and final, so it cannot stall: the manifest
    writes null.  Two epochs give a boolean."""
    cfg = RunConfig(N=4, n_range=[1], time_steps=7, n_epochs=n_epochs, batch_size=4,
                    eta=0.01, params=[0.25], seed=3).apply_variant("V3").validate()
    summary = cli.train_run(cfg, reduction.normalize_snapshots(tiny_snapshots), tmp_path)[1]
    written = json.loads((tmp_path / "manifest.json").read_text())["summaries"]["1"]
    if n_epochs == 1:
        assert summary["stalled"] is None
    else:
        assert summary["stalled"] == (summary["final_loss"] >= summary["first_loss"])
    assert written["stalled"] is summary["stalled"]


def test_sg_fom_starts_at_t0():
    """A sine-Gordon FOM started at t0 = 2 begins at the first snapshot column."""
    cfg = RunConfig(model="sg_single_soliton", N=64, a=-10.0, b=10.0, t0=2.0, t1=3.0,
                    params=[0.5], time_steps=10).validate()
    snaps = cli.generate_snapshots(cfg)
    sys_fom, x0 = cli.fom_system_for(cfg, 0.5)
    assert np.array_equal(x0, snaps.data[:, 0])
    # the closed form at t = 0 is 17% away: a FOM that ignored t0 would start there
    at_zero = cli.fom_system_for(RunConfig(**{**vars(cfg), "t0": 0.0}), 0.5)[1]
    assert np.linalg.norm(at_zero - x0) > 0.1 * np.linalg.norm(x0)
