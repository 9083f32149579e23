"""Run configuration: flat key-value config files and the V1-V10 variant table."""

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError
from .models import MODELS
from .network import LossKind
from .stiefel import MetricKind, TransportKind

# Upper bound on n_params: each training parameter costs one full-order solve.
MAX_PARAMS = 10_000


class Setup(NamedTuple):
    """The training setup of one variant."""
    epochwise: bool               # epochwise sampling, else batches drawn with replacement
    normalized: bool              # trains on normalized snapshots
    loss: LossKind
    optimizer: str                # a key of optimizers.PSD_OPTIMIZERS
    metric: MetricKind | None     # None: the homogeneous optimizer takes no metric
    transport: TransportKind | None


VARIANTS = {
    "V1": Setup(False, False, LossKind.Relative, "homogeneous", None, None),
    "V2": Setup(True, False, LossKind.Relative, "homogeneous", None, None),
    "V3": Setup(True, True, LossKind.Relative, "homogeneous", None, None),
    "V4": Setup(True, True, LossKind.ScaledMSE, "homogeneous", None, None),
    "V5": Setup(True, True, LossKind.Relative, "stiefel",
                MetricKind.Canonical, TransportKind.Submanifold),
    "V6": Setup(True, True, LossKind.Relative, "stiefel_decay",
                MetricKind.Canonical, TransportKind.Submanifold),
    "V7": Setup(True, True, LossKind.Relative, "stiefel_decay",
                MetricKind.Canonical, TransportKind.Differential),
    "V8": Setup(True, True, LossKind.Relative, "stiefel_decay",
                MetricKind.Euclidean, TransportKind.Submanifold),
    "V9": Setup(True, True, LossKind.Relative, "stiefel_decay",
                MetricKind.Euclidean, TransportKind.Differential),
    "V10": Setup(True, True, LossKind.ScaledMSE, "stiefel_decay",
                 MetricKind.Canonical, TransportKind.Submanifold),
}


def _variant_setup(name):
    """The Setup of the named variant; an unknown name is a ConfigError."""
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}")
    return VARIANTS[name]


@dataclass
class RunConfig:
    model: str = "wave"                # a key of models.MODELS
    N: int = 32
    n_range: list = field(default_factory=lambda: [4])
    n_epochs: int = 10
    batch_size: int = 32
    time_steps: int = 50
    params: list = field(default_factory=list)      # training mu / nu values
    testing_params: list = field(default_factory=list)
    t0: float = 0.0
    t1: float = 1.0
    a: float = -0.5
    b: float = 0.5
    eta: float = 0.001
    seed: int = 0
    variant: str = "V3"                # a key of VARIANTS: the training setup

    @property
    def setup(self):
        """The variant's row of VARIANTS; an unknown variant is a ConfigError."""
        return _variant_setup(self.variant)

    def validate(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if (span := MODELS[self.model].span) and (self.t0, self.t1, self.a, self.b) != span:
            raise ConfigError(f"{self.model} model fixes (t0, t1, a, b) = {span}")
        if self.t1 <= self.t0:
            raise ConfigError(f"t1 = {self.t1} must exceed t0 = {self.t0}")
        _variant_setup(self.variant)
        if self.eta <= 0:
            raise ConfigError(f"eta = {self.eta} must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed} must be non-negative")
        sizes = {"n_epochs": self.n_epochs, "batch_size": self.batch_size,
                 "time_steps": self.time_steps, "n_range": min(self.n_range, default=0)}
        for key, size in sizes.items():
            if size < 1:
                raise ConfigError(f"{key} = {getattr(self, key)} must be positive")
        if not self.params:
            raise ConfigError("no training parameters")
        return self

    def apply_variant(self, name):
        _variant_setup(name)
        self.variant = name
        return self


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse_list(text, parse=_float):
    return [parse(v) for v in text.replace(",", " ").split()]


# config key -> the RunConfig field it sets, where the two names differ
_ALIASES = {"mu_list": "params", "nu_list": "params", "testing": "testing_params"}
_SPAN = ("mu_left", "mu_right", "n_params")   # training parameters as a linspace


def load_config(path):
    """Parse a flat key = value config file (\"#\" starts a comment)."""
    cfg = RunConfig()
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from exc
    pairs = {}   # field name -> (key as written, value)
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = _ALIASES.get(key, key)
        if name in pairs:
            first = pairs[name][0]
            raise ConfigError(f"config key {key!r} is given twice" if first == key else
                              f"config keys {first!r} and {key!r} both set {name!r}")
        pairs[name] = (key, value)
    span_keys = [k for k in _SPAN if k in pairs]
    if span_keys and "params" in pairs:
        raise ConfigError(f"config keys {pairs['params'][0]!r} and {span_keys[0]!r} "
                          "both set 'params'")
    if 0 < len(span_keys) < len(_SPAN):
        missing = next(k for k in _SPAN if k not in pairs)
        raise ConfigError(f"config key {missing!r} is missing from the "
                          f"{'/'.join(_SPAN)} span")

    span = {}
    try:
        for name, (key, value) in pairs.items():
            if name in ("model", "variant"):
                setattr(cfg, name, value)
            elif name in ("N", "n_epochs", "batch_size", "time_steps", "seed"):
                setattr(cfg, name, int(value))
            elif name == "n_range":
                cfg.n_range = _parse_list(value, int)
            elif name in ("params", "testing_params"):
                setattr(cfg, name, _parse_list(value))
            elif name in ("mu_left", "mu_right"):
                span[name] = _float(value)
            elif name == "n_params":
                span[name] = int(value)
            elif name in ("t0", "t1", "a", "b", "eta"):
                setattr(cfg, name, _float(value))
            else:
                raise ConfigError(f"unknown config key {key!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid value {value!r} for config key {key!r}") from exc

    if span:
        if not 1 <= span["n_params"] <= MAX_PARAMS:
            raise ConfigError(f"n_params = {span['n_params']} is outside [1, {MAX_PARAMS}]")
        import numpy as np
        cfg.params = list(np.linspace(span["mu_left"], span["mu_right"], span["n_params"]))
    return cfg.validate()
