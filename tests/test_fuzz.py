"""Fuzzed inputs for the two file readers the CLI exposes: every input either
parses or raises a SympmorError, which main() turns into one "error:" line."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as hst

from sympmor.config import load_config
from sympmor.errors import SympmorError
from sympmor.reduction import SnapshotSet
from sympmor.snapshot_io import _HEADER, read_snapshot_file, write_snapshot_file

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

small = hst.integers(0, 4)
u64 = hst.one_of(small, hst.integers(0, 2 ** 64 - 1))
json_values = hst.recursive(
    hst.none() | hst.booleans() | hst.floats(allow_nan=False) | hst.integers() | hst.text(),
    lambda inner: hst.lists(inner, max_size=4) | hst.dictionaries(hst.text(), inner, max_size=4),
    max_leaves=12)
sidecar_keys = hst.sampled_from(["params", "t0", "t1", "model", "seed"])


def parses_or_typed_error(fn, *args):
    try:
        fn(*args)
    except SympmorError:
        pass


def _write(tmp, head, payload, sidecar):
    path = Path(tmp) / "snapshots.bin"
    path.write_bytes(head + payload)
    if sidecar is not None:
        Path(str(path) + ".meta.json").write_text(sidecar)
    return path


@FUZZ
@given(magic=hst.sampled_from([b"SMOR", b"SMOX"]), version=hst.sampled_from([1, 2]),
       rows=u64, cols=u64, n_params=u64, K=u64, normalized=hst.integers(0, 255),
       payload_len=hst.integers(0, 200), cut=hst.integers(0, _HEADER.size))
# zero rows of 2^40 columns: no payload needed, but 2^40 default parameters
@example(magic=b"SMOR", version=1, rows=0, cols=2 ** 40, n_params=2 ** 40, K=0,
         normalized=0, payload_len=0, cut=_HEADER.size)
def test_snapshot_header_and_payload_fuzz(magic, version, rows, cols, n_params, K,
                                          normalized, payload_len, cut):
    head = _HEADER.pack(magic, version, rows, cols, n_params, K, normalized)
    head = head[:cut] if cut < _HEADER.size - 1 else head
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, head, b"\x01" * payload_len, None)
        parses_or_typed_error(read_snapshot_file, path)


@FUZZ
@given(meta=hst.dictionaries(sidecar_keys, json_values, max_size=4) | json_values,
       raw=hst.binary(max_size=40), use_raw=hst.booleans())
@example(meta={"params": 5}, raw=b"", use_raw=False)
def test_snapshot_sidecar_fuzz(meta, raw, use_raw):
    snaps = SnapshotSet(data=np.arange(12.0).reshape(2, 6), params=[0.25, 0.5], K=2,
                        t0=0.0, t1=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshots.bin"
        write_snapshot_file(path, snaps)
        side = Path(str(path) + ".meta.json")
        if use_raw:
            side.write_bytes(raw)
        else:
            side.write_text(json.dumps(meta))
        parses_or_typed_error(read_snapshot_file, path)


config_keys = hst.sampled_from([
    "model", "N", "n_range", "n_epochs", "batch_size", "time_steps", "seed", "mu_list",
    "params", "mu_left", "mu_right", "n_params", "testing", "loss", "epochwise",
    "normalized", "optimizer", "metric", "transport", "t0", "t1", "a", "b", "eta",
    "variant", "wibble"])
config_values = hst.one_of(
    hst.sampled_from(["wave", "sg_single_soliton", "V3", "V11", "stiefel", "inf", "-inf",
                      "nan", "1e400", "-3", "0", "0.5 0.6", "1,2", "", "true", "abc"]),
    hst.integers(-10 ** 30, 10 ** 30).map(str),
    hst.floats().map(repr),
    hst.text(max_size=12))


@FUZZ
@given(key=config_keys, value=config_values)
@example(key="n_range", value="inf")
@example(key="mu_left", value="-inf")
@example(key="n_params", value="-3")
@example(key="n_params", value=str(10 ** 14))
def test_load_config_one_key_fuzz(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        pairs = {"mu_left": "0.25", "mu_right": "0.5", "n_params": "3", key: value}
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()),
                        encoding="utf-8", errors="surrogatepass")
        parses_or_typed_error(load_config, path)


@FUZZ
@given(lines=hst.lists(hst.tuples(config_keys, config_values), max_size=8),
       junk=hst.text(max_size=30), raw=hst.binary(max_size=30), mode=hst.integers(0, 2))
def test_load_config_fuzz(lines, junk, raw, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        if mode == 2:
            path.write_bytes(raw)
        else:
            text = "\n".join(f"{k} = {v}" for k, v in lines)
            path.write_text(text + ("\n" + junk if mode else ""), encoding="utf-8",
                            errors="surrogatepass")
        parses_or_typed_error(load_config, path)
