"""Model/run configuration with a flat ``key = value`` text form.

The text form is canonical: serialize → parse → serialize is the identity
on bytes, which the checkpoint format relies on. Unknown keys are
rejected rather than ignored so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

VARIANTS = ("graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat")
# Keys whose code is gone, with the one value each still accepts. They
# stay fields because every v1 checkpoint's config text names them. The
# variety loss is unweighted, attention gates each value by itself, and
# every leaky_relu uses the GAT slope 0.2.
RETIRED = {"variety_weight": 1.0, "leaky_slope": 0.2, "separate_gate": False}


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
        if not self.tcn_dilations:
            self.tcn_dilations = (1,) * self.tcn_layers
        else:
            self.tcn_dilations = tuple(int(d) for d in self.tcn_dilations)
        self.validate()

    def validate(self):
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
        if len(self.tcn_dilations) != self.tcn_layers:
            raise ConfigError(
                f"tcn_dilations has {len(self.tcn_dilations)} entries for {self.tcn_layers} layers"
            )
        if any(d < 1 for d in self.tcn_dilations):
            raise ConfigError(f"dilations must be >= 1, got {self.tcn_dilations}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.decoder_hidden < 0:
            raise ConfigError(f"decoder_hidden must be >= 0, got {self.decoder_hidden}")
        for name, value in RETIRED.items():
            if getattr(self, name) != value:
                raise ConfigError(
                    f"{name} is retired and accepts only {value!r}, got {getattr(self, name)!r}"
                )

    # Derived quantities -------------------------------------------------

    def spatial_out_dim(self) -> int:
        """Width of the per-step spatial encoding fed to the TCN."""
        if self.variant == "no_efgat":
            return self.embed_dim
        return self.gal2_heads * self.gal2_out

    # Text form -----------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "tcn_dilations":
                v = ",".join(str(d) for d in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        known = {f.name: f for f in fields(cls)}
        values = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {line_no}: duplicate key {key!r}")
            values[key] = _parse_value(key, val, line_no)
        try:
            return cls(**values)
        except TypeError as e:
            raise ConfigError(str(e)) from None

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


_INT_KEYS = {
    "t_obs", "t_pred", "frame_step", "stride", "embed_dim", "gal1_heads",
    "gal1_out", "gal2_heads", "gal2_out", "tcn_channels", "tcn_layers",
    "tcn_kernel", "noise_dim", "future_embed_dim", "decoder_hidden",
    "samples", "epochs", "kl_switch_epoch", "seed",
}
_FLOAT_KEYS = {
    "lr", "variety_weight", "kl_weight_early", "kl_weight_late", "leaky_slope",
}
_BOOL_KEYS = {"separate_gate"}


def _parse_value(key: str, val: str, line_no: int):
    if key in _INT_KEYS:
        try:
            return int(val)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key} needs an integer, got {val!r}") from None
    if key in _FLOAT_KEYS:
        try:
            return float(val)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key} needs a number, got {val!r}") from None
    if key in _BOOL_KEYS:
        if val not in ("true", "false"):
            raise ConfigError(f"line {line_no}: {key} needs true/false, got {val!r}")
        return val == "true"
    if key == "tcn_dilations":
        if not val:
            return ()
        try:
            return tuple(int(p) for p in val.split(","))
        except ValueError:
            raise ConfigError(f"line {line_no}: bad dilation list {val!r}") from None
    if key == "variant":
        return val
    raise ConfigError(f"line {line_no}: unhandled key {key!r}")
