"""Model/run configuration with a flat ``key = value`` text form.

The text form is canonical: serialize → parse → serialize is the identity
on bytes, which the checkpoint format relies on. Lines come from the
shared ``errors.content_lines``; unknown keys are rejected, so a typo
cannot fall back to a default. One table, ``_FIELD_TYPES``, gives each
field type its value class, writer and reader, and the words of its one
error form: ``KEY needs WORDS, got VALUE``, prefixed with the line number.

Each field gives its key's type, default and bounds (``_key``); ``validate``
checks them in one loop, ``check_key`` a lone value such as a CLI flag. Widths
are uncapped: ``tensor.PARAMETER_BUDGET`` bounds their products instead.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from .errors import ConfigError, content_lines, read_utf8

VARIANTS = ("graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat")
# Keys whose code is gone; each still accepts only its field default. They
# stay fields because every v1 checkpoint's config text names them. The
# variety loss is unweighted, attention gates each value by itself, and
# every leaky_relu uses the GAT slope 0.2.
RETIRED = ("variety_weight", "leaky_slope", "separate_gate")


def _key(default, low, high=math.inf, strict=False):
    """A bounded field: low <= value <= high, or low < value when ``strict``."""
    return field(default=default, metadata={"bounds": (low, high, strict)})


@dataclass
class ModelConfig:
    # Windowing
    t_obs: int = _key(8, 1, 1024)
    t_pred: int = _key(12, 1, 1024)
    frame_step: int = _key(10, 1)
    stride: int = _key(1, 1)
    # Spatial encoder: two attention layers applied per observed step.
    embed_dim: int = _key(64, 1)
    gal1_heads: int = _key(2, 1)
    gal1_out: int = _key(16, 1)
    gal2_heads: int = _key(1, 1)
    gal2_out: int = _key(32, 1)
    # Temporal encoder
    tcn_channels: int = _key(16, 1)
    tcn_layers: int = _key(4, 1, 1024)  # 4 layers already see 9 steps, more than the 8 observed
    tcn_kernel: int = _key(3, 1)
    tcn_dilations: tuple = field(default=())
    # Decoders
    noise_dim: int = _key(4, 1)
    future_embed_dim: int = _key(64, 1)
    decoder_hidden: int = _key(0, 0)
    # Sampling / training
    samples: int = _key(20, 1, 1024)
    variant: str = "graphtcn"
    lr: float = _key(1e-4, 0.0, strict=True)
    epochs: int = _key(50, 1)
    variety_weight: float = 1.0     # retired
    kl_weight_early: float = _key(0.5, 0.0)
    kl_weight_late: float = _key(0.2, 0.0)
    kl_switch_epoch: int = _key(15, 0)
    seed: int = _key(0, 0)
    leaky_slope: float = 0.2        # retired
    separate_gate: bool = False     # retired

    def __post_init__(self):
        if isinstance(self.tcn_dilations, Iterable):
            self.tcn_dilations = tuple(self.tcn_dilations)
        # No dilations means 1 per layer; a mistyped or oversized count is
        # left for validate to name.
        if self.tcn_dilations == () and _has_type("int", self.tcn_layers):
            self.tcn_dilations = (1,) * min(self.tcn_layers, _BOUNDS["tcn_layers"][1])
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(f.type, value):
                raise ConfigError(f"{f.name} needs {_FIELD_TYPES[f.type][1]}, got {value!r}")
            if f.name in RETIRED and value != f.default:
                raise ConfigError(f"{f.name} is retired and accepts only {f.default!r}, got {value!r}")
            if f.name in _BOUNDS:
                check_key(f.name, value)
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if len(self.tcn_dilations) != self.tcn_layers:
            raise ConfigError(
                f"tcn_dilations has {len(self.tcn_dilations)} entries for {self.tcn_layers} layers"
            )
        if any(d < 1 for d in self.tcn_dilations):
            raise ConfigError(f"dilations must be >= 1, got {self.tcn_dilations}")

    # Derived quantities -------------------------------------------------

    def kl_weight(self, epoch: int) -> float:
        """Weight of the latent variant's KL term: early through the switch epoch, then late."""
        return self.kl_weight_early if epoch <= self.kl_switch_epoch else self.kl_weight_late

    # Text form -----------------------------------------------------------

    def to_text(self) -> str:
        return "".join(f"{f.name} = {_FIELD_TYPES[f.type][2](getattr(self, f.name))}\n"
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
            _, words, _, read = _FIELD_TYPES[known[key].type]
            try:
                values[key] = read(val)
            except (ValueError, KeyError):
                raise ConfigError(f"line {line_no}: {key} needs {words}, got {val!r}") from None
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        return cls.from_text(read_utf8(path, ConfigError))


# Each bounded key's (low, high, strict), as its field gives them.
_BOUNDS = {f.name: f.metadata["bounds"] for f in fields(ModelConfig) if f.metadata}


def check_key(name: str, value):
    """Refuse a ``value`` of key ``name`` past the finite floats or outside its bounds."""
    low, high, strict = _BOUNDS[name]
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value}")
    if value < low or strict and value == low:
        raise ConfigError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")
    if value > high:
        raise ConfigError(f"{name} must be <= {high}, got {value}")


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
