"""Configuration defaults, validation, and the key=value text round trip."""

import pytest

from graphtcn.config import ModelConfig, VARIANTS
from graphtcn.errors import ConfigError
from graphtcn.model import GraphTCN
from graphtcn.temporal_conv import receptive_field


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
        weights = GraphTCN(ModelConfig(variant="graphtcn_g")).loss_weights
        assert weights.kl_at(1) == 0.5
        assert weights.kl_at(15) == 0.5
        assert weights.kl_at(16) == 0.2
        assert weights.kl_at(50) == 0.2

    def test_spatial_out_dim_by_variant(self):
        assert ModelConfig().spatial_out_dim() == 32
        assert ModelConfig(variant="no_efgat").spatial_out_dim() == 64


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

    def test_explicit_dilations_kept(self):
        cfg = ModelConfig(tcn_layers=3, tcn_dilations=(1, 2, 4))
        assert cfg.tcn_dilations == (1, 2, 4)
        assert receptive_field(cfg.tcn_kernel, cfg.tcn_dilations) == 1 + 2 * 7

    def test_negative_lr(self):
        with pytest.raises(ConfigError):
            ModelConfig(lr=-1.0)


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

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_text("seed 3\n")

    def test_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("samples = 4\nvariant = vanilla_gat\n")
        cfg = ModelConfig.from_file(p)
        assert cfg.samples == 4 and cfg.variant == "vanilla_gat"


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

    def test_v1_default_text_round_trips_on_bytes(self):
        cfg = ModelConfig.from_text(V1_DEFAULT_TEXT)
        assert cfg == ModelConfig()
        assert cfg.to_text() == V1_DEFAULT_TEXT
