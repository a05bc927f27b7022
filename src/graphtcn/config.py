"""Model/run configuration with a flat ``key = value`` text form.

The text form is canonical: serialize → parse → serialize is the identity
on bytes, which the checkpoint format relies on. Lines come from the
shared ``errors.content_lines``; unknown keys are rejected, so a typo
cannot fall back to a default. One table, ``_FIELD_TYPES``, gives each
field type its value class, writer and reader, and the words of its one
error form: ``KEY needs WORDS, got VALUE``, prefixed with the line number.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from .errors import ConfigError, content_lines, read_utf8

VARIANTS = ("graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat")
# Keys whose code is gone; each still accepts only its field default. They
# stay fields because every v1 checkpoint's config text names them. The
# variety loss is unweighted, attention gates each value by itself, and
# every leaky_relu uses the GAT slope 0.2.
RETIRED = ("variety_weight", "leaky_slope", "separate_gate")
MAX_TCN_LAYERS = 1024   # the default 4 layers already see 9 steps, more than the 8 observed


@dataclass
class ModelConfig:
    # Windowing
    t_obs: int = 8
    t_pred: int = 12
    frame_step: int = 10
    stride: int = 1
    # Spatial encoder: two attention layers applied per observed step.
    embed_dim: int = 64
    gal1_heads: int = 2
    gal1_out: int = 16
    gal2_heads: int = 1
    gal2_out: int = 32
    # Temporal encoder
    tcn_channels: int = 16
    tcn_layers: int = 4
    tcn_kernel: int = 3
    tcn_dilations: tuple = field(default=())
    # Decoders
    noise_dim: int = 4
    future_embed_dim: int = 64
    decoder_hidden: int = 0
    # Sampling / training
    samples: int = 20
    variant: str = "graphtcn"
    lr: float = 1e-4
    epochs: int = 50
    variety_weight: float = 1.0     # retired
    kl_weight_early: float = 0.5
    kl_weight_late: float = 0.2
    kl_switch_epoch: int = 15
    seed: int = 0
    leaky_slope: float = 0.2        # retired
    separate_gate: bool = False     # retired

    def __post_init__(self):
        if isinstance(self.tcn_dilations, Iterable):
            self.tcn_dilations = tuple(self.tcn_dilations)
        # No dilations means 1 per layer; a mistyped or oversized count is
        # left for validate to name.
        if self.tcn_dilations == () and _has_type("int", self.tcn_layers):
            self.tcn_dilations = (1,) * min(self.tcn_layers, MAX_TCN_LAYERS)
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(f.type, value):
                raise ConfigError(f"{f.name} needs {_FIELD_TYPES[f.type][1]}, got {value!r}")
            if f.name in RETIRED and value != f.default:
                raise ConfigError(f"{f.name} is retired and accepts only {f.default!r}, got {value!r}")
        positive = (
            "t_obs", "t_pred", "frame_step", "stride", "embed_dim",
            "gal1_heads", "gal1_out", "gal2_heads", "gal2_out",
            "tcn_channels", "tcn_layers", "tcn_kernel", "noise_dim",
            "future_embed_dim", "samples", "epochs",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.tcn_layers > MAX_TCN_LAYERS:
            raise ConfigError(f"tcn_layers must be <= {MAX_TCN_LAYERS}, got {self.tcn_layers}")
        if len(self.tcn_dilations) != self.tcn_layers:
            raise ConfigError(
                f"tcn_dilations has {len(self.tcn_dilations)} entries for {self.tcn_layers} layers"
            )
        if any(d < 1 for d in self.tcn_dilations):
            raise ConfigError(f"dilations must be >= 1, got {self.tcn_dilations}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        for name in ("kl_weight_early", "kl_weight_late"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("decoder_hidden", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    # Derived quantities -------------------------------------------------

    def kl_weight(self, epoch: int) -> float:
        """Weight of the latent variant's KL term: early through the switch epoch, then late."""
        return self.kl_weight_early if epoch <= self.kl_switch_epoch else self.kl_weight_late

    # Text form -----------------------------------------------------------

    def to_text(self) -> str:
        return "".join(f"{f.name} = {_format_value(f, getattr(self, f.name))}\n"
                       for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        known = {f.name: f for f in fields(cls)}
        values = {}
        for line_no, line in content_lines(text):
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {line_no}: duplicate key {key!r}")
            values[key] = _parse_value(known[key], val, line_no)
        try:
            return cls(**values)
        except TypeError as e:
            raise ConfigError(str(e)) from None

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        return cls.from_text(read_utf8(path, ConfigError))


# Field types are annotation strings (postponed annotations), one of
# "int", "float", "bool", "str" and "tuple"; validation and the text form
# follow them. Each maps to the class its values must have, the words an
# error names it by, its writer and its reader; a reader rejects a bad
# value with ValueError or KeyError. A bool is no number here, though
# Python counts it as an int; numpy integers and floats are numbers.
_FIELD_TYPES = {
    "int": (numbers.Integral, "an integer", str, int),
    "float": (numbers.Real, "a number", lambda v: repr(float(v)), float),
    "bool": (bool, "true/false", lambda v: "true" if v else "false",
             {"true": True, "false": False}.__getitem__),
    "str": (str, "a string", str, str),
    "tuple": (tuple, "a tuple of integers", lambda v: ",".join(str(d) for d in v),
              lambda val: tuple(int(p) for p in val.split(",")) if val else ()),
}


def _has_type(type_name: str, v) -> bool:
    if isinstance(v, bool) and type_name != "bool":
        return False
    if type_name == "tuple":
        return isinstance(v, tuple) and all(_has_type("int", d) for d in v)
    return isinstance(v, _FIELD_TYPES[type_name][0])


def _format_value(f, v) -> str:
    return _FIELD_TYPES[f.type][2](v)


def _parse_value(f, val: str, line_no: int):
    _, words, _, read = _FIELD_TYPES[f.type]
    try:
        return read(val)
    except (ValueError, KeyError):
        raise ConfigError(f"line {line_no}: {f.name} needs {words}, got {val!r}") from None
