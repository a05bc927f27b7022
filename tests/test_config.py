"""Configuration defaults, validation, and the key=value text round trip."""

import codecs
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphtcn.config import RETIRED, ModelConfig, VARIANTS
from graphtcn.errors import ConfigError, GraphTCNError
from graphtcn.model import GraphTCN
from graphtcn.temporal_conv import receptive_field
from test_data import edited

README = Path(__file__).resolve().parent.parent / "README.md"


class TestDefaults:
    def test_windowing(self):
        cfg = ModelConfig()
        assert (cfg.t_obs, cfg.t_pred, cfg.frame_step, cfg.stride) == (8, 12, 10, 1)

    def test_architecture_widths(self):
        cfg = ModelConfig()
        assert cfg.embed_dim == 64
        assert (cfg.gal1_heads, cfg.gal1_out) == (2, 16)
        assert (cfg.gal2_heads, cfg.gal2_out) == (1, 32)
        assert cfg.tcn_channels == 16
        assert cfg.noise_dim == 4
        assert cfg.future_embed_dim == 64

    def test_training_settings(self):
        cfg = ModelConfig()
        assert cfg.lr == 1e-4
        assert cfg.epochs == 50
        assert cfg.variety_weight == 1.0
        assert cfg.leaky_slope == 0.2

    def test_default_dilations_fill_unit(self):
        cfg = ModelConfig()
        assert cfg.tcn_dilations == (1, 1, 1, 1)

    def test_default_receptive_field_covers_observation(self):
        cfg = ModelConfig()
        field = receptive_field(cfg.tcn_kernel, cfg.tcn_dilations)
        assert field == 9
        assert field >= cfg.t_obs

    def test_kl_schedule(self):
        cfg = ModelConfig(variant="graphtcn_g")
        assert [cfg.kl_weight(epoch) for epoch in (1, 15, 16, 50)] == [0.5, 0.5, 0.2, 0.2]


class TestValidation:
    def test_nonpositive_extent(self):
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=0)

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="transformer")

    def test_all_variants_accepted(self):
        for v in VARIANTS:
            ModelConfig(variant=v)

    def test_dilation_length_mismatch(self):
        with pytest.raises(ConfigError):
            ModelConfig(tcn_layers=3, tcn_dilations=(1, 1))

    # Counts past the cap; none may reach a tuple build (10**9 would be 8 GB).
    HUGE_LAYERS = 10**15

    def test_tcn_layers_capped_in_text_and_constructor(self):
        message = f"^tcn_layers must be <= 1024, got {self.HUGE_LAYERS}$"
        with pytest.raises(ConfigError, match=message):
            ModelConfig.from_text(f"tcn_layers = {self.HUGE_LAYERS}\n")
        with pytest.raises(ConfigError, match=message):
            ModelConfig(tcn_layers=self.HUGE_LAYERS)
        with pytest.raises(ConfigError, match="^tcn_layers must be <= 1024, got 1025$"):
            ModelConfig(tcn_layers=1025)
        assert ModelConfig(tcn_layers=1024).tcn_dilations == (1,) * 1024

    def test_tcn_layers_cap_checked_before_dilation_count(self):
        cfg = ModelConfig()
        cfg.tcn_layers = self.HUGE_LAYERS
        with pytest.raises(ConfigError, match=f"^tcn_layers must be <= 1024, got {self.HUGE_LAYERS}$"):
            cfg.validate()

    def test_explicit_dilations_kept(self):
        cfg = ModelConfig(tcn_layers=3, tcn_dilations=(1, 2, 4))
        assert cfg.tcn_dilations == (1, 2, 4)
        assert receptive_field(cfg.tcn_kernel, cfg.tcn_dilations) == 1 + 2 * 7

    def test_negative_lr(self):
        with pytest.raises(ConfigError):
            ModelConfig(lr=-1.0)

    BAD_FLOATS = [
        ("lr", 0.0), ("lr", math.nan), ("lr", math.inf), ("lr", -math.inf),
        ("kl_weight_early", -0.5), ("kl_weight_early", math.nan), ("kl_weight_early", math.inf),
        ("kl_weight_late", -0.5), ("kl_weight_late", math.nan), ("kl_weight_late", math.inf),
    ]

    @pytest.mark.parametrize("key,value", BAD_FLOATS, ids=[f"{k}={v!r}" for k, v in BAD_FLOATS])
    def test_bad_float_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_text(f"{key} = {value!r}\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            ModelConfig(seed=-1)
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            ModelConfig.from_text("seed = -1\n")

    def test_zero_kl_weights_accepted(self):
        cfg = ModelConfig(kl_weight_early=0.0, kl_weight_late=0.0)
        assert cfg.kl_weight(1) == cfg.kl_weight(50) == 0.0


class TestBounds:
    """Each key's bounds, written out here by hand so that a change to the
    table shows; ``strict`` marks lr's open lower bound."""

    LOWER = {
        "t_obs": 1, "t_pred": 1, "frame_step": 1, "stride": 1, "embed_dim": 1,
        "gal1_heads": 1, "gal1_out": 1, "gal2_heads": 1, "gal2_out": 1,
        "tcn_channels": 1, "tcn_layers": 1, "tcn_kernel": 1, "noise_dim": 1,
        "future_embed_dim": 1, "decoder_hidden": 0, "samples": 1, "epochs": 1,
        "kl_weight_early": 0.0, "kl_weight_late": 0.0, "kl_switch_epoch": 0, "seed": 0,
    }
    UPPER = {"t_obs": 1024, "t_pred": 1024, "tcn_layers": 1024, "samples": 1024}

    def test_every_bounded_key_is_listed(self):
        bounded = {f.name for f in fields(ModelConfig) if f.metadata}
        assert bounded == set(self.LOWER) | {"lr"}

    @pytest.mark.parametrize("key", sorted(LOWER))
    def test_one_below_the_lower_bound_rejected_by_name(self, key):
        low = self.LOWER[key]
        below = low - 1
        message = f"^{key} must be >= {low}, got {below}$"
        with pytest.raises(ConfigError, match=message):
            ModelConfig.from_text(f"{key} = {below}\n")
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**{key: below})
        assert getattr(ModelConfig(**{key: low}), key) == low

    def test_integer_past_the_floats_rejected_by_name(self):
        # float(10**400) overflows, so to_text could not write it.
        with pytest.raises(ConfigError, match=r"^lr must be finite, got 1000"):
            ModelConfig(lr=10**400)

    def test_kl_switch_epoch_far_out_of_range_rejected_by_name(self):
        # Both loaded while the key had no bounds; a negative one acted as 0.
        with pytest.raises(ConfigError, match=f"^kl_switch_epoch must be >= 0, got {-10**30}$"):
            ModelConfig(kl_switch_epoch=-10**30)
        with pytest.raises(ConfigError, match=r"^kl_switch_epoch must be finite, got 1000"):
            ModelConfig(kl_switch_epoch=10**400)

    def test_lr_bound_is_open(self):
        with pytest.raises(ConfigError, match=r"^lr must be > 0\.0, got 0\.0$"):
            ModelConfig.from_text("lr = 0.0\n")
        assert ModelConfig(lr=5e-324).lr == 5e-324

    @pytest.mark.parametrize("key", sorted(UPPER))
    def test_one_past_the_cap_rejected_by_name(self, key):
        cap = self.UPPER[key]
        with pytest.raises(ConfigError, match=f"^{key} must be <= {cap}, got {cap + 1}$"):
            ModelConfig.from_text(f"{key} = {cap + 1}\n")
        assert getattr(ModelConfig(**{key: cap}), key) == cap

    def test_epochs_and_widths_have_no_cap(self):
        assert ModelConfig(epochs=10**15, embed_dim=10**15).embed_dim == 10**15

    # Each fails by name before any array of its size is built: the four
    # capped keys in the config, the widths at the parameter store's budget.
    HUGE = ["embed_dim", "gal1_heads", "gal1_out", "gal2_heads", "gal2_out", "tcn_channels",
            "tcn_kernel", "noise_dim", "decoder_hidden", "t_obs", "t_pred", "samples",
            "future_embed_dim"]

    @pytest.mark.parametrize("key", HUGE)
    def test_huge_value_fails_by_name_not_out_of_memory(self, key):
        variant = "graphtcn_g" if key == "future_embed_dim" else "graphtcn"
        with pytest.raises(GraphTCNError, match=f"^({key} must be <= 1024|parameter store would)"):
            GraphTCN(ModelConfig.from_text(f"variant = {variant}\n{key} = {10**15}\n"))


class TestReadmeTable:
    """README's Configuration table names each key that is not retired in
    one row, with the default that to_text writes and the bounds of the
    field."""

    @staticmethod
    def rows() -> list:
        section = README.read_text(encoding="utf-8").split("## Configuration\n", 1)[1]
        table = section.split("\n\n", 2)[1]
        lines = table.splitlines()
        assert lines[0].startswith("| key | default | bounds |")
        return [[c.strip() for c in ln.strip("|").split("|")] for ln in lines[2:]]

    @staticmethod
    def expected_bounds(f) -> str:
        if not f.metadata:
            return ""
        low, high, strict = f.metadata["bounds"]
        if high != math.inf:
            return f"{low} to {high}"
        return f"{'>' if strict else '≥'} {low}"

    def test_every_key_once_with_its_default_and_bounds(self):
        defaults = dict(line.split(" = ", 1) for line in ModelConfig().to_text().splitlines())
        rows = {}
        for key, default, bounds, _ in self.rows():
            assert re.fullmatch(r"`\w+`", key), key
            assert key.strip("`") not in rows, f"{key} twice"
            rows[key.strip("`")] = (default.strip("`"), bounds)
        want = {f.name: (defaults[f.name], self.expected_bounds(f))
                for f in fields(ModelConfig) if f.name not in RETIRED}
        assert rows == want


class TestFieldTypes:
    """Every value has its field's declared type, so to_text reloads."""

    WRONG = [
        ("epochs", 2.0), ("gal1_heads", True), ("samples", "20"), ("stride", None),
        ("lr", True), ("lr", "1e-4"), ("seed", 1.5), ("variant", 3),
        ("separate_gate", 0), ("tcn_dilations", (1.5, 1, 1, 1)),
        ("tcn_dilations", (True, 1, 1, 1)), ("tcn_dilations", ("1", 1, 1, 1)),
        ("tcn_dilations", 3), ("tcn_dilations", 0), ("tcn_layers", 2.0),
    ]

    @pytest.mark.parametrize("key,value", WRONG, ids=[f"{k}={v!r}" for k, v in WRONG])
    def test_wrong_type_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})

    def test_reassigned_wrong_type_rejected(self):
        cfg = ModelConfig()
        cfg.epochs = 3.0
        with pytest.raises(ConfigError, match="epochs"):
            cfg.validate()

    def test_numpy_and_int_values_accepted(self):
        cfg = ModelConfig(epochs=np.int64(3), lr=1, kl_weight_late=np.float64(0.1),
                          tcn_layers=2, tcn_dilations=[np.int64(1), 2])
        assert cfg.tcn_dilations == (1, 2)
        assert ModelConfig.from_text(cfg.to_text()).to_text() == cfg.to_text()


class TestTextForm:
    def test_round_trip_identity_on_bytes(self):
        cfg = ModelConfig(samples=4, variant="graphtcn_g", seed=7)
        text = cfg.to_text()
        again = ModelConfig.from_text(text).to_text()
        assert text == again

    def test_round_trip_preserves_values(self):
        cfg = ModelConfig(lr=3e-5, tcn_layers=2, tcn_dilations=(2, 3), decoder_hidden=5)
        back = ModelConfig.from_text(cfg.to_text())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ModelConfig.from_text("batch_size = 64\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ModelConfig.from_text("seed = 1\nseed = 2\n")

    def test_comments_and_blanks_ignored(self):
        cfg = ModelConfig.from_text("# my run\n\nseed = 3\n")
        assert cfg.seed == 3

    def test_type_errors_reported(self):
        with pytest.raises(ConfigError, match="integer"):
            ModelConfig.from_text("epochs = 2.5\n")
        with pytest.raises(ConfigError, match="true/false"):
            ModelConfig.from_text("separate_gate = yes\n")

    # One unparsable value per field type that has one; any text is a str.
    PARSE_ERRORS = [
        ("epochs", "2.5", "an integer"), ("lr", "fast", "a number"),
        ("separate_gate", "yes", "true/false"), ("tcn_dilations", "1,x,1,1", "a tuple of integers"),
    ]

    @pytest.mark.parametrize("key,val,words", PARSE_ERRORS, ids=[k for k, _, _ in PARSE_ERRORS])
    def test_one_parse_error_form_per_type(self, key, val, words):
        with pytest.raises(ConfigError) as err:
            ModelConfig.from_text(f"# run\n{key} = {val}\n")
        assert str(err.value) == f"line 2: {key} needs {words}, got '{val}'"

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_text("seed 3\n")

    def test_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("samples = 4\nvariant = vanilla_gat\n")
        cfg = ModelConfig.from_file(p)
        assert cfg.samples == 4 and cfg.variant == "vanilla_gat"

    def test_from_file_rejects_non_utf8_bytes(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"samples = 4\nvariant = \xffx\n")
        with pytest.raises(ConfigError, match=r"run\.cfg: invalid UTF-8 at byte offset 22"):
            ModelConfig.from_file(p)

    def test_from_file_skips_a_byte_order_mark(self, tmp_path):
        text = b"samples = 4\nvariant = vanilla_gat\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        assert ModelConfig.from_file(marked) == ModelConfig.from_file(plain)

    def test_int_given_to_float_field_is_canonical(self):
        cfg = ModelConfig(lr=1, kl_weight_late=0)
        text = cfg.to_text()
        assert "lr = 1.0\n" in text and "kl_weight_late = 0.0\n" in text
        assert ModelConfig.from_text(text).to_text() == text

    def test_reassigned_field_is_canonical(self):
        cfg = ModelConfig()
        cfg.lr = 2
        text = cfg.to_text()
        assert "lr = 2.0\n" in text
        assert ModelConfig.from_text(text).to_text() == text

    def test_every_field_type_has_a_text_form(self):
        # The text form is chosen by each field's declared type.
        kinds = {f.type for f in fields(ModelConfig)}
        assert kinds == {"int", "float", "bool", "str", "tuple"}


# The default config text as every v1 checkpoint stores it, copied
# literally so a change to the fields or their order shows here.
V1_DEFAULT_TEXT = (
    "t_obs = 8\nt_pred = 12\nframe_step = 10\nstride = 1\nembed_dim = 64\n"
    "gal1_heads = 2\ngal1_out = 16\ngal2_heads = 1\ngal2_out = 32\n"
    "tcn_channels = 16\ntcn_layers = 4\ntcn_kernel = 3\ntcn_dilations = 1,1,1,1\n"
    "noise_dim = 4\nfuture_embed_dim = 64\ndecoder_hidden = 0\nsamples = 20\n"
    "variant = graphtcn\nlr = 0.0001\nepochs = 50\nvariety_weight = 1.0\n"
    "kl_weight_early = 0.5\nkl_weight_late = 0.2\nkl_switch_epoch = 15\nseed = 0\n"
    "leaky_slope = 0.2\nseparate_gate = false\n"
)


class TestRetiredKeys:
    @pytest.mark.parametrize("line", [
        "variety_weight = 2.0", "variety_weight = 0.0",
        "leaky_slope = 0.1", "leaky_slope = nan",
        "separate_gate = true",
    ])
    def test_non_default_value_rejected_by_name(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_text(line + "\n")

    @pytest.mark.parametrize("name", RETIRED)
    def test_accepts_exactly_its_field_default(self, name):
        default = next(f.default for f in fields(ModelConfig) if f.name == name)
        line = next(ln for ln in V1_DEFAULT_TEXT.splitlines() if ln.startswith(f"{name} = "))
        assert getattr(ModelConfig.from_text(line), name) == default
        assert getattr(ModelConfig(**{name: default}), name) == default
        other = not default if isinstance(default, bool) else default + 0.5
        message = f"{name} is retired and accepts only {default!r}, got {other!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ModelConfig(**{name: other})

    def test_v1_default_text_round_trips_on_bytes(self):
        cfg = ModelConfig.from_text(V1_DEFAULT_TEXT)
        assert cfg == ModelConfig()
        assert cfg.to_text() == V1_DEFAULT_TEXT


def _at_bounds(text: str) -> list:
    """``text`` with each bounded key set, in turn, to one below its lower
    bound, the bound, the cap, one past the cap and 10**15."""
    texts = []
    for f in fields(ModelConfig):
        if f.metadata:
            low, high, _ = f.metadata["bounds"]
            for value in sorted({low - 1, low, high, high + 1, 10**15} - {math.inf}):
                texts.append(re.sub(rf"^{f.name} = .*$", f"{f.name} = {value}", text,
                                    flags=re.M))
    return texts


CONFIG_TEXTS = [ModelConfig().to_text(), *_at_bounds(ModelConfig().to_text())]
CONFIG_CHARS = st.characters() | st.sampled_from("0123456789=,.-e#\r\n")


@given(st.sampled_from(CONFIG_TEXTS).flatmap(lambda text: edited(text, CONFIG_CHARS)))
@settings(max_examples=350, deadline=None)
def test_edited_config_text_parses_or_fails_by_name(text):
    # Config text comes from outside the program (a --config file, a
    # checkpoint): it parses, or fails with a GraphTCNError. Only the text
    # is read here; no model is built from it.
    try:
        ModelConfig.from_text(text)
    except GraphTCNError:
        pass
