"""Command-line harness: data generation, training, evaluation, speed test.

Subcommands: generate-data, normalize, train, evaluate, psd, speed-test,
report.  Every command is deterministic given (config, seed) and exits
nonzero with a machine-readable "error: ..." line on failure.
"""

import argparse
import csv
import json
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import models, network as net, optimizers as opt, reduction as red
from . import stiefel as st
from .config import RunConfig, load_config
from .errors import DimensionError, SympmorError
from .integrators import implicit_midpoint
from .snapshot_io import read_snapshot_file, write_snapshot_file
from .stiefel import MetricKind, TransportKind


# -- data generation --------------------------------------------------------

def generate_snapshots(cfg):
    """Snapshot set for the configured model: closed form if it has one, else integrated."""
    testbed = models.MODELS[cfg.model]
    K = cfg.time_steps
    times = np.linspace(cfg.t0, cfg.t1, K + 1)
    blocks = []
    for param in cfg.params:
        if testbed.exact is None:
            sys_fom, x0 = fom_system_for(cfg, param)
            blocks.append(implicit_midpoint(sys_fom, x0, cfg.t0, cfg.t1, K).states)
        else:
            model = testbed.build(cfg.N, param, cfg.a, cfg.b)
            blocks.append(np.column_stack([testbed.exact(model, t) for t in times]))
    return red.SnapshotSet(data=np.hstack(blocks), params=list(cfg.params), K=K,
                           t0=cfg.t0, t1=cfg.t1, normalized=False)


def fom_system_for(cfg, param):
    """FOM system of the configured model at one parameter, and its state at cfg.t0."""
    testbed = models.MODELS[cfg.model]
    return testbed.fom(testbed.build(cfg.N, param, cfg.a, cfg.b), cfg.t0)


# -- training ---------------------------------------------------------------

def train_run(cfg, snapshots, out_dir):
    """Train one network per n in cfg.n_range; write loss CSVs and a manifest.

    A TrainingDivergedError propagates, so a diverged n leaves no params file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = snapshots.data
    full_dim = data.shape[0]
    setup = cfg.setup
    train = net.train_epochwise if setup.epochwise else net.train_noepoch
    summaries = {}
    for n in cfg.n_range:
        t_start = time.perf_counter()
        network = net.build_network(full_dim, 2 * n, seed=cfg.seed)
        losses = train(net.Trainer(network, cfg), data, cfg.batch_size, cfg.n_epochs,
                       setup.loss, seed=cfg.seed + 1)
        wall = time.perf_counter() - t_start
        with open(out_dir / f"losses_n{n}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            # epochwise: one mean loss per epoch; no-epoch: one loss per batch
            writer.writerow(["epoch", "avg_loss"] if setup.epochwise else ["batch", "loss"])
            for i, value in enumerate(losses, start=1):
                writer.writerow([i, repr(float(value))])
        save_network(network, out_dir / f"params_n{n}.npz")
        first, final = float(losses[0]), float(losses[-1])
        # one recorded loss has nothing to stall against: null in the manifest
        stalled = final >= first if len(losses) > 1 else None
        summaries[n] = {"final_loss": final, "first_loss": first,
                        "stalled": stalled, "wall_seconds": wall}
    manifest = {
        "config": {**vars(cfg), **setup._asdict()},
        "initialization": "K ~ U(+-sqrt(6/(L+fan_in))), a ~ same/L, b = 0; "
                          "PSD weights from seeded QR of normal samples",
        "summaries": {str(k): v for k, v in summaries.items()},
    }
    # enums (the setup's loss, metric and transport) are written as their values
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True, default=lambda e: e.value))
    return summaries


def save_network(network, path):
    arrays, spec = {}, []
    for i, layer in enumerate(network.layers):
        if isinstance(layer, net.GradientLayer):
            spec.append({"type": "gradient", "kind": layer.kind})
            arrays[f"K_{i}"] = layer.K
            arrays[f"a_{i}"] = layer.a
            arrays[f"b_{i}"] = layer.b
        else:
            spec.append({"type": "psd", "direction": layer.direction})
            arrays[f"X_{i}"] = layer.weight.data
    arrays["spec"] = np.frombuffer(json.dumps({
        "layers": spec, "encoder_len": network.encoder_len}).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_network(path):
    """The network of a params file.  Widths follow from the arrays (the width
    keys of older files are ignored); layers that do not chain are an error, and
    so is an activation other than tanh, which older files name per layer."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["spec"].tobytes()).decode())
            layers = []
            for i, entry in enumerate(meta["layers"]):
                if entry["type"] == "gradient" and entry["kind"] in ("P", "Q"):
                    if entry.get("activation", "tanh") != "tanh":
                        raise ValueError(f"layer {i}: activation {entry['activation']!r}, "
                                         f"not tanh")
                    layers.append(net.GradientLayer(
                        entry["kind"], data[f"K_{i}"], data[f"a_{i}"], data[f"b_{i}"]))
                elif entry["type"] == "psd" and entry["direction"] in ("reduce", "expand"):
                    layers.append(net.PSDLayer(st.StiefelPoint(data[f"X_{i}"]),
                                               entry["direction"]))
                else:
                    raise ValueError(f"layer {i}: unknown layer {entry}")
        if not 0 < meta["encoder_len"] < len(layers):
            raise ValueError(f"encoder_len {meta['encoder_len']} of {len(layers)} layers")
        network = net.Network(layers=layers, encoder_len=meta["encoder_len"])
        network.forward(np.zeros((layers[0].in_dim, 0)))   # each layer fits the next
        return network
    # OSError: missing file; BadZipFile/EOFError/ValueError: truncated or not an
    # npz, a bad spec, or arrays that do not chain; KeyError: a missing array or
    # key; IndexError/TypeError/DimensionError: an array of the wrong rank or width
    except (OSError, zipfile.BadZipFile, EOFError, ValueError, KeyError, IndexError,
            TypeError, DimensionError) as exc:
        raise SympmorError(f"cannot load network {str(path)!r}: "
                           f"{type(exc).__name__}: {exc}") from exc


# -- evaluation -------------------------------------------------------------

def evaluate(cfg, maps, normalized, out_path):
    """Write rows (n, param, e_red, e_proj, integration_seconds) to out_path.

    maps(n) gives the (encode, decode, decoder Jacobian) triple of the reduced
    size n.  Each FOM is solved once per parameter and shared by every n; a
    ROM solver failure is recorded as a "failed" row.  integration_seconds
    times `build_rom` and `solve_rom` together.
    """
    variant = "with_ref" if normalized else "no_ref"
    foms = []
    for param in (cfg.testing_params or cfg.params):
        sys_fom, x0 = fom_system_for(cfg, param)
        exact = implicit_midpoint(sys_fom, x0, cfg.t0, cfg.t1, cfg.time_steps)
        foms.append((param, sys_fom, x0, exact))
    rows = []
    for n in cfg.n_range:
        encode, decode, jacobian = maps(n)
        for param, sys_fom, x0, exact in foms:
            t_start = time.perf_counter()
            rom = red.build_rom(encode, decode, jacobian, x0,
                                use_ref=normalized, normalized=normalized)
            try:
                reduced = red.solve_rom(rom, sys_fom, cfg.t0, cfg.t1, cfg.time_steps,
                                        tol=1e-10)
                seconds = time.perf_counter() - t_start
                e_red = red.reduction_error(variant, exact, rom, reduced)
            except SympmorError as exc:
                rows.append([n, param, "failed", "failed", f"{exc}"])
                continue
            e_proj = red.projection_error(variant, exact, encode, decode, x_ref=rom.x_ref)
            rows.append([n, param, e_red, e_proj, seconds])
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "param", "e_red", "e_proj", "integration_seconds"])
        writer.writerows(rows)
    return rows


# -- speed test -------------------------------------------------------------

def _time_median(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _parse_pairs(text):
    """'2000x10,4000x10' -> [(2000, 10), (4000, 10)]; each pair needs 0 < n <= N."""
    pairs = []
    for pair in text.split(","):
        try:
            N, n = (int(v) for v in pair.split("x"))
        except ValueError:
            raise SympmorError(f"bad --pairs entry {pair!r}: expected Nxn, e.g. 2000x10") from None
        if not 0 < n <= N:
            raise SympmorError(f"bad --pairs entry {pair!r}: need 0 < n <= N")
        pairs.append((N, n))
    return pairs


def speed_test(pairs, optimizers=("homogeneous", "stiefel_decay"), seed=0):
    """Timing rows (optimizer, N, n, seconds); one warm-up step before the median of 5.
    Steps at eta = 0.001, canonical metric, submanifold transport."""
    rows = []
    for N, n in pairs:
        egrad = np.ones((N, n))
        for name in optimizers:
            X = st.random_stiefel(N, n, seed)
            hyper, cache = opt.psd_state(name, X, eta=0.001)
            state = {"X": X}

            def step(state=state, hyper=hyper, cache=cache):
                state["X"] = opt.psd_update(hyper, cache, state["X"], egrad, hyper.t,
                                            MetricKind.Canonical, TransportKind.Submanifold)
            step()  # warm-up, excluded from the median
            rows.append([name, N, n, _time_median(step)])
    return rows


# -- report -----------------------------------------------------------------

def _run_config(run_dir):
    """The config that run_dir/manifest.json records, {} without a manifest; its
    variant is a string ("" in older manifests) where it names one."""
    mpath = run_dir / "manifest.json"
    if not mpath.exists():
        return {}
    try:
        config = json.loads(mpath.read_text()).get("config", {})
        variant = config.get("variant", "")
    except (ValueError, AttributeError) as exc:   # JSONDecodeError is a ValueError
        raise SympmorError(f"malformed manifest {str(mpath)!r}: {exc}") from exc
    if not isinstance(variant, str):
        raise SympmorError(f"malformed manifest {str(mpath)!r}: variant {variant!r}")
    return config


def _run_variant(run_dir):
    """The variant named in run_dir/manifest.json, else the directory name."""
    return _run_config(run_dir).get("variant") or run_dir.name


def _run_normalized(run_dir, cfg):
    """Whether the run in run_dir trained on normalized snapshots, as its manifest
    records, else as the config's variant sets it.  A config naming another
    variant than the manifest is an error."""
    recorded = _run_config(run_dir)
    if recorded.get("variant") not in (None, "", cfg.variant):
        raise SympmorError(f"run {str(run_dir)!r} was trained with variant "
                           f"{recorded['variant']}; the config names {cfg.variant}")
    normalized = recorded.get("normalized", cfg.setup.normalized)
    if not isinstance(normalized, bool):
        raise SympmorError(f"malformed manifest in {str(run_dir)!r}: normalized {normalized!r}")
    return normalized


def _report_key(row):
    """(variant, n, param) of a merged row, with n and param as numbers."""
    try:
        return row[0], int(row[1]), float(row[2])
    except (IndexError, ValueError) as exc:
        raise SympmorError(f"bad errors.csv row {row[1:]!r} of variant {row[0]!r}: "
                           f"n and param must be numbers") from exc


def merge_reports(run_dirs, out_path):
    """Merge errors.csv files across runs into one CSV, sorted by variant, then
    n and param as numbers."""
    rows = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        variant = _run_variant(run_dir)
        epath = run_dir / "errors.csv"
        if not epath.exists():
            raise SympmorError(f"missing errors.csv in {run_dir}")
        with open(epath, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) is None:
                raise SympmorError(f"empty errors.csv in {run_dir}")
            for row in reader:
                rows.append([variant] + row)
    rows.sort(key=_report_key)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "n", "param", "e_red", "e_proj",
                         "integration_seconds"])
        writer.writerows(rows)
    return rows


# -- argparse plumbing ------------------------------------------------------

def _load(args):
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg.validate()


# the options several subcommands share
_SHARED = {"--config": {"required": True}, "--seed": {"type": int}, "--out": {"default": "."}}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="sympmor")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *shared):
        """A subcommand with the shared options it reads."""
        p = sub.add_parser(name)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        return p

    add("generate-data", "--config", "--seed", "--out")
    add("normalize", "--out").add_argument("--input", required=True)
    add("train", "--config", "--seed", "--out").add_argument("--data", required=True)
    add("evaluate", "--config").add_argument("--run", required=True)
    add("psd", "--config", "--out").add_argument("--data", required=True)
    add("speed-test", "--seed", "--out").add_argument("--pairs", default="2000x10,4000x10")
    add("report", "--out").add_argument("runs", nargs="+")

    args = parser.parse_args(argv)
    try:
        out = Path(args.out) if "out" in args else None
        if args.command == "generate-data":
            cfg = _load(args)
            snaps = generate_snapshots(cfg)
            out.mkdir(parents=True, exist_ok=True)
            write_snapshot_file(out / "snapshots.bin", snaps, model_id=cfg.model,
                                seed=cfg.seed)
            print(out / "snapshots.bin")
        elif args.command == "normalize":
            snaps, meta = read_snapshot_file(args.input)
            normed = red.normalize_snapshots(snaps)
            out.mkdir(parents=True, exist_ok=True)
            write_snapshot_file(out / "snapshots_normalized.bin", normed,
                                model_id=meta.get("model", ""), seed=meta.get("seed"))
            print(out / "snapshots_normalized.bin")
        elif args.command == "train":
            cfg = _load(args)
            snaps, _ = read_snapshot_file(args.data)
            if snaps.normalized and not cfg.setup.normalized:
                raise SympmorError(f"variant {cfg.variant} trains on unnormalized data; "
                                   f"{args.data} is normalized")
            if cfg.setup.normalized and not snaps.normalized:
                snaps = red.normalize_snapshots(snaps)
            train_run(cfg, snaps, out)
            print(out)
        elif args.command == "evaluate":
            cfg = _load(args)
            run = Path(args.run)

            def network_maps(n):
                network = load_network(run / f"params_n{n}.npz")
                return network.encode, network.decode, network.decoder_jacobian

            evaluate(cfg, network_maps, _run_normalized(run, cfg), run / "errors.csv")
            print(run / "errors.csv")
        elif args.command == "psd":
            cfg = _load(args)
            snaps, _ = read_snapshot_file(args.data)
            if snaps.normalized:
                raise SympmorError("PSD baseline requires unnormalized data")
            out.mkdir(parents=True, exist_ok=True)
            evaluate(cfg, lambda n: red.psd_maps(red.psd_cotangent_lift(snaps.data, n)),
                     False, out / "psd_errors.csv")
            print(out / "psd_errors.csv")
        elif args.command == "speed-test":
            if args.seed is not None and args.seed < 0:
                raise SympmorError(f"--seed {args.seed} must be non-negative")
            rows = speed_test(_parse_pairs(args.pairs), seed=args.seed or 0)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / "speed.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["optimizer", "N", "n", "seconds"])
                writer.writerows(rows)
            print(out / "speed.csv")
        elif args.command == "report":
            out.mkdir(parents=True, exist_ok=True)
            merge_reports(args.runs, out / "report.csv")
            print(out / "report.csv")
    except SympmorError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
