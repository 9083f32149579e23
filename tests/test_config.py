"""Config parsing and the variant table."""

import dataclasses
import re
from pathlib import Path

import pytest

from sympmor.config import VARIANTS, RunConfig, load_config
from sympmor.errors import ConfigError
from sympmor.network import LossKind
from sympmor.optimizers import PSD_OPTIMIZERS
from sympmor.stiefel import MetricKind, TransportKind


def test_variant_table_shape():
    assert set(VARIANTS) == {f"V{i}" for i in range(1, 11)}
    # V1 is the only non-epochwise variant; V1/V2 are unnormalized
    assert VARIANTS["V1"][0] is False
    assert all(VARIANTS[f"V{i}"][0] for i in range(2, 11))
    assert not VARIANTS["V1"][1] and not VARIANTS["V2"][1]
    # exactly V4 and V10 use the scaled-MSE loss
    mse = {k for k, v in VARIANTS.items() if v[2] is LossKind.ScaledMSE}
    assert mse == {"V4", "V10"}
    # V1-V4 are baseline runs, V5 plain direct, V6-V10 direct with decay
    for k in ("V1", "V2", "V3", "V4"):
        assert VARIANTS[k][3] == "homogeneous"
    assert VARIANTS["V5"][3] == "stiefel"
    for k in ("V6", "V7", "V8", "V9", "V10"):
        assert VARIANTS[k][3] == "stiefel_decay"


def test_every_variant_names_a_psd_optimizer():
    assert {setup.optimizer for setup in VARIANTS.values()} <= set(PSD_OPTIMIZERS)


def test_apply_variant():
    cfg = RunConfig(params=[0.5]).apply_variant("V9")
    assert cfg.setup.metric is MetricKind.Euclidean
    assert cfg.setup.transport is TransportKind.Differential
    assert cfg.setup.optimizer == "stiefel_decay"
    assert cfg.setup.loss is LossKind.Relative
    assert cfg.setup.epochwise and cfg.setup.normalized
    assert cfg.variant == "V9"
    cfg.apply_variant("V1")
    assert not cfg.setup.epochwise and not cfg.setup.normalized
    # the homogeneous baseline takes no metric or transport
    assert cfg.setup.metric is None and cfg.setup.transport is None
    with pytest.raises(ConfigError):
        cfg.apply_variant("V11")
    assert cfg.variant == "V1"


def test_default_config_is_v3():
    cfg = RunConfig(params=[0.5]).validate()
    assert cfg.variant == "V3" and cfg.setup is VARIANTS["V3"]


def test_validate():
    with pytest.raises(ConfigError):
        RunConfig(params=[]).validate()
    with pytest.raises(ConfigError):
        RunConfig(model="heat", params=[1.0]).validate()
    with pytest.raises(ConfigError):
        RunConfig(model="wave", params=[1.0], t1=2.0).validate()
    with pytest.raises(ConfigError, match="unknown variant 'V11'"):
        RunConfig(params=[1.0], variant="V11").validate()
    with pytest.raises(ConfigError, match="unknown variant 'V11'"):
        RunConfig(variant="V11").setup
    cfg = RunConfig(model="sg_single_soliton", params=[0.5],
                    a=-10.0, b=10.0).validate()
    assert cfg.model == "sg_single_soliton"


def test_load_config_full(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# training run\n"
        "model = wave\n"
        "N = 16\n"
        "n_range = 2, 4\n"
        "mu_list = 0.4166666 0.5 0.6\n"
        "testing = 0.45\n"
        "n_epochs = 5\n"
        "batch_size = 16\n"
        "time_steps = 25\n"
        "variant = V9\n"
        "eta = 0.01\n"
        "seed = 3\n"
    )
    cfg = load_config(p)
    assert cfg.N == 16 and cfg.n_range == [2, 4]
    assert cfg.params == pytest.approx([0.4166666, 0.5, 0.6])
    assert cfg.testing_params == [0.45]
    assert cfg.setup.loss is LossKind.Relative
    assert cfg.setup.metric is MetricKind.Euclidean
    assert cfg.setup.transport is TransportKind.Differential
    assert cfg.eta == 0.01 and cfg.seed == 3


def test_every_runconfig_field_is_a_config_key(tmp_path):
    """A file setting every RunConfig field, none to its default, loads to exactly
    that RunConfig, each value of its field's type."""
    values = dict(model="sg_single_soliton", N=48, n_range=[2, 6], n_epochs=3, batch_size=12,
                  time_steps=40, params=[0.25, 0.5], testing_params=[0.375], t0=0.5, t1=2.5,
                  a=-12.0, b=8.0, eta=0.02, seed=9, variant="V7")
    assert list(values) == [f.name for f in dataclasses.fields(RunConfig)]
    assert all(value != getattr(RunConfig(), name) for name, value in values.items())
    p = tmp_path / "run.cfg"
    p.write_text("".join(f"{key} = {' '.join(map(str, v)) if isinstance(v, list) else v}\n"
                         for key, v in values.items()))
    cfg = load_config(p)
    assert cfg == RunConfig(**values)
    for name, value in values.items():
        got = getattr(cfg, name)
        assert type(got) is type(value), name
        if isinstance(value, list):
            assert {type(v) for v in got} == {type(value[0])}, name


def test_load_config_variant_and_linspace(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "variant = V6\n"
        "model = wave\n"
        "mu_left = 0.4\n"
        "mu_right = 0.6\n"
        "n_params = 5\n"
    )
    cfg = load_config(p)
    assert cfg.variant == "V6"
    assert cfg.setup.optimizer == "stiefel_decay"
    assert len(cfg.params) == 5
    assert cfg.params[0] == pytest.approx(0.4)
    assert cfg.params[-1] == pytest.approx(0.6)


def test_load_config_rejects_bad_lines(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("model wave\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("model = wave\nwibble = 3\nmu_list = 0.5\n")
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("line", ["metric = foo", "loss = foo", "transport = foo",
                                  "epochwise = maybe", "normalized = maybe",
                                  "loss = rel", "metric = can", "transport = sub"])
def test_load_config_rejects_misspelt_names(tmp_path, line):
    """A misspelt or abbreviated setup value is an error, not the other option:
    the variant sets these keys, so each is an unknown key."""
    p = tmp_path / "run.cfg"
    p.write_text(f"mu_list = 0.5\n{line}\n")
    with pytest.raises(ConfigError, match=line.split()[0]):
        load_config(p)


@pytest.mark.parametrize("line", ["epochwise = true", "normalized = false",
                                  "loss = scaled_mse", "optimizer = stiefel",
                                  "metric = canonical", "transport = differential"])
def test_setup_keys_are_unknown(tmp_path, line):
    """The variant is the whole training setup: no key sets one part of it."""
    key = line.split()[0]
    p = tmp_path / "run.cfg"
    p.write_text(f"variant = V6\nmu_list = 0.5\n{line}\n")
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        load_config(p)


def _readme_variant_rows():
    """The rows of the README's variant table: name -> its six cells."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (V\d+) \|(.*)\|$", text, re.M)
    return {name: [cell.strip() for cell in cells.split("|")] for name, cells in rows}


def test_readme_variant_table_matches_variants():
    def cells(setup):
        return ["epochwise" if setup.epochwise else "no-epoch",
                "normalized" if setup.normalized else "raw",
                setup.loss.value, setup.optimizer,
                setup.metric.value if setup.metric else "-",
                setup.transport.value if setup.transport else "-"]

    assert _readme_variant_rows() == {name: cells(s) for name, s in VARIANTS.items()}


@pytest.mark.parametrize("text, keys", [
    pytest.param("variant = V3\nmu_list = 0.5\nvariant = V1\n", ["variant"], id="variant"),
    pytest.param("N = 16\nmu_list = 0.5\nN = 64\n", ["N"], id="N"),
    pytest.param("mu_list = 0.5\nparams = 0.25\n", ["mu_list", "params"], id="alias"),
    pytest.param("testing = 0.5\ntesting_params = 0.25\nmu_list = 0.5\n",
                 ["testing", "testing_params"], id="testing-alias"),
    pytest.param("params = 0.5\nmu_left = 0.4\nmu_right = 0.6\nn_params = 5\n",
                 ["params", "mu_left"], id="list-and-span"),
    pytest.param("params = 0.5\nmu_left = 0.4\nmu_right = 0.6\n", ["params", "mu_left"],
                 id="list-and-partial-span"),
    pytest.param("mu_left = 0.4\nmu_right = 0.6\n", ["n_params"], id="partial-span"),
])
def test_load_config_rejects_a_field_set_twice(tmp_path, text, keys):
    """A second value for a field, or a partial span, is an error naming the key,
    not a silent override."""
    p = tmp_path / "run.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(p)
    for key in keys:
        assert repr(key) in str(info.value)
