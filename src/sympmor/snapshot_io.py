"""Binary snapshot file format.

Header (little-endian): magic "SMOR", format version u32, rows u64, cols u64,
n_params u64, K u64, normalized u8.  Payload: rows*cols float64 values in
column-major order.  A JSON sidecar at <path>.meta.json carries parameter
values, time bounds, model id, and seed; other keys, such as the
initial_states of older files, are ignored.
"""

import json
import struct
from pathlib import Path

import numpy as np

from .errors import SympmorError
from .reduction import SnapshotSet

MAGIC = b"SMOR"
VERSION = 1
_HEADER = struct.Struct("<4sIQQQQB")


def write_snapshot_file(path, snapshots, model_id="", seed=None):
    path = Path(path)
    data = np.asarray(snapshots.data, dtype="<f8")
    rows, cols = data.shape
    header = _HEADER.pack(MAGIC, VERSION, rows, cols, len(snapshots.params),
                          snapshots.K, 1 if snapshots.normalized else 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asfortranarray(data).tobytes(order="F"))
    meta = {
        "params": [float(p) for p in snapshots.params],
        "t0": snapshots.t0,
        "t1": snapshots.t1,
        "model": model_id,
        "seed": seed,
    }
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return path


def read_snapshot_file(path):
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            payload = fh.read()
    except OSError as exc:
        raise SympmorError(f"cannot read snapshot file {str(path)!r}: {exc}") from exc
    if len(head) != _HEADER.size:
        raise SympmorError(f"truncated header: {len(head)} of {_HEADER.size} bytes")
    magic, version, rows, cols, n_params, K, normalized = _HEADER.unpack(head)
    if magic != MAGIC:
        raise SympmorError(f"not a snapshot file: bad magic {magic!r}")
    if version != VERSION:
        raise SympmorError(f"unsupported format version {version}")
    if cols != n_params * (K + 1):
        raise SympmorError(f"header claims {n_params} parameters of {K + 1} columns "
                           f"but {cols} columns")
    if rows == 0 and cols:
        raise SympmorError(f"header claims {cols} columns of zero rows")
    extra = len(payload) - rows * cols * 8
    if extra < 0:
        raise SympmorError("truncated payload")
    if extra:
        raise SympmorError(f"{extra} bytes after the {rows} x {cols} payload")
    data = np.frombuffer(payload, dtype="<f8", count=rows * cols)
    data = data.reshape((rows, cols), order="F").copy()
    meta_path = Path(str(path) + ".meta.json")
    meta = {}
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise SympmorError(f"malformed snapshot metadata {str(meta_path)!r}: {exc}") from exc
        if not isinstance(meta, dict):
            raise SympmorError(f"snapshot metadata {str(meta_path)!r} is not a JSON object")
    try:
        params = meta.get("params", [float("nan")] * n_params)
        if not isinstance(params, list):
            raise TypeError(f"params must be a list, not {type(params).__name__}")
        params = [float(v) for v in params]
        t0, t1 = float(meta.get("t0", 0.0)), float(meta.get("t1", 1.0))
    except (TypeError, ValueError) as exc:
        raise SympmorError(f"bad snapshot metadata {str(meta_path)!r}: {exc}") from exc
    if len(params) != n_params:
        raise SympmorError(f"snapshot metadata {str(meta_path)!r} lists {len(params)} "
                           f"parameters, the header {n_params}")
    return SnapshotSet(data=data, params=params, K=K, t0=t0, t1=t1,
                       normalized=bool(normalized)), meta
