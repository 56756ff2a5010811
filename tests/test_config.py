import hashlib

import numpy as np
import pytest

from ctlab.config import (
    ConfigError,
    load_config,
    make_transforms,
    row_seed,
)
from ctlab.fixtures import reference_transforms, reference_world
from ctlab.world import class_pattern, generate_world

REFERENCE = "configs/reference.ini"

MINIMAL = """\
[run]
seed = 3

[world]
k = 2
per_class = 1
m = 6
m_prime = 6
q_star = 2
nuisance_rank = 1
nuisance_confusion = 0.9
noise_scale = 0.0
seed = 3

[transforms]
rho = 0.35
transform_1 = identity 0.4
transform_2 = flip 0 1 0.2
transform_3 = flip 1 0 0.2
transform_4 = bridge 0 1 0.1
transform_5 = bridge 1 0 0.1
"""


def write_cfg(tmp_path, body=MINIMAL, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


class TestLoadConfig:
    def test_reference_parses(self):
        cfg = load_config(REFERENCE)
        assert cfg.seed == 6
        assert cfg.world.K == 3 and cfg.world.q_star == 3
        assert len(cfg.transform_descriptors) == 10
        assert cfg.svd_sweep == [1, 2, 3, 4]
        assert cfg.train_k_sweep == list(range(1, 9))
        assert cfg.bounds_which == ["t1", "t3", "t4", "corollaries"]
        assert cfg.output_formats == ["csv", "text"]

    def test_minimal_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.svd_mode == "none"
        assert cfg.train_loss == "infonce"
        assert cfg.inflation_factor == 1
        assert cfg.rho == 0.35

    def test_unknown_section_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[extra]\nfoo = 1\n")
        with pytest.raises(ConfigError, match=r"\[extra\]"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[svd]\nbanana = 1\n")
        with pytest.raises(ConfigError, match="svd.banana"):
            load_config(path)

    def test_q_out_of_range_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[svd]\nmode = keep_top_q\nq = 40\n")
        with pytest.raises(ConfigError, match="svd.q"):
            load_config(path)

    def test_bad_integer_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("seed = 3\n\n[world]", "seed = x\n\n[world]"))
        with pytest.raises(ConfigError, match="run.seed"):
            load_config(path)

    def test_missing_world_section(self, tmp_path):
        path = write_cfg(tmp_path, "[run]\nseed = 1\n\n[transforms]\ntransform_1 = identity 1.0\n")
        with pytest.raises(ConfigError, match=r"\[world\]"):
            load_config(path)

    def test_missing_transforms_section(self, tmp_path):
        body = MINIMAL.split("[transforms]")[0]
        with pytest.raises(ConfigError, match=r"\[transforms\]"):
            load_config(write_cfg(tmp_path, body))

    def test_malformed_descriptor_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "transform_6 = flip 0\n")
        with pytest.raises(ConfigError, match="transforms.transform_6"):
            load_config(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "transform_6 = warp 0.0\n")
        with pytest.raises(ConfigError, match="transform_6"):
            load_config(path)

    def test_unknown_loss_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[train]\nloss = hinge\n")
        with pytest.raises(ConfigError, match="train.loss"):
            load_config(path)

    def test_unknown_bound_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[bounds]\nwhich = t9\n")
        with pytest.raises(ConfigError, match="bounds.which"):
            load_config(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[output]\nformats = yaml\n")
        with pytest.raises(ConfigError, match="output.formats"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("train.step_size", "0"),
            ("train.step_size", "-1"),
            ("train.step_size", "nan"),
            ("train.step_size", "inf"),
            ("probe.step_size", "0"),
            ("probe.step_size", "-1"),
            ("probe.step_size", "nan"),
            ("probe.step_size", "inf"),
            ("probe.l2", "-5"),
            ("probe.l2", "nan"),
            ("probe.l2", "inf"),
        ],
    )
    def test_degenerate_step_sizes_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(write_cfg(tmp_path), overrides=[f"{key}={value}"])

    def test_zero_l2_accepted(self, tmp_path):
        assert load_config(write_cfg(tmp_path), overrides=["probe.l2=0"]).probe_l2 == 0.0

    def test_discard_requires_index(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[svd]\nmode = discard_pair\n")
        with pytest.raises(ConfigError, match="svd.pair_index"):
            load_config(path)

    def test_overrides_applied(self, tmp_path):
        cfg = load_config(
            write_cfg(tmp_path), overrides=["run.seed=99", "train.k=4"]
        )
        assert cfg.seed == 99
        assert cfg.train_k == 4

    def test_malformed_override(self, tmp_path):
        with pytest.raises(ConfigError, match="--set"):
            load_config(write_cfg(tmp_path), overrides=["garbage"])
        with pytest.raises(ConfigError, match="--set"):
            load_config(write_cfg(tmp_path), overrides=["nosection=1"])

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/does/not/exist.ini")


class TestTruncationHelper:
    def test_modes(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.truncation() is None
        spec = cfg.truncation(q=2)
        assert spec.mode == "keep_top_q" and spec.q == 2
        cfg2 = load_config(
            write_cfg(tmp_path),
            overrides=["svd.mode=discard_pair", "svd.pair_index=1"],
        )
        spec2 = cfg2.truncation()
        assert spec2.mode == "discard_pair" and spec2.pair_index == 1


class TestRowSeed:
    def test_matches_digest_oracle(self):
        want = int.from_bytes(
            hashlib.sha256(b"6:baseline").digest()[:8], "little"
        )
        assert row_seed(6, "baseline") == want

    def test_distinct_rows_distinct_seeds(self):
        seeds = {row_seed(6, key) for key in ("baseline", "q=1", "q=2", "k=1")}
        assert len(seeds) == 4


class TestMakeTransforms:
    def test_patterns_match_class_patterns(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        world = generate_world(cfg.world)
        transforms = make_transforms(cfg, world)
        assert [t.id for t in transforms] == [
            f"transform_{i}" for i in range(1, 6)
        ]
        assert abs(sum(t.probability for t in transforms) - 1.0) < 1e-12
        flip = transforms[1]
        assert np.allclose(flip.pattern, class_pattern(world, 0, 1, 0.35))
        bridge = transforms[3]
        assert np.allclose(bridge.pattern, class_pattern(world, 0, 1, -0.65))

    def test_probability_sum_checked(self, tmp_path):
        # 0.4000000001 sums to 1 + 1e-10: beyond the tolerance that
        # build_augmented_space applies, so config validation rejects it too
        for identity in ("identity 0.3", "identity 0.4000000001"):
            cfg = load_config(
                write_cfg(tmp_path), overrides=[f"transforms.transform_1={identity}"]
            )
            world = generate_world(cfg.world)
            with pytest.raises(ConfigError, match="sum"):
                make_transforms(cfg, world)

    def test_fixture_family_matches_reference_config(self):
        cfg = load_config(REFERENCE)
        world = reference_world()
        assert cfg.world == world.spec
        by_descriptor = {
            (kind, args): t
            for (_, kind, args, _), t in zip(
                cfg.transform_descriptors, make_transforms(cfg, world)
            )
        }
        fixture = reference_transforms(world)
        assert len(fixture) == len(by_descriptor)
        for t in fixture[1:]:  # flip, bridge and sibling patterns
            kind, classes = t.id.split("_")
            want = by_descriptor[(kind, tuple(int(c) for c in classes))]
            assert t.pattern.tobytes() == want.pattern.tobytes()
            assert t.probability == want.probability

    def test_class_index_checked(self, tmp_path):
        cfg = load_config(
            write_cfg(tmp_path), overrides=["transforms.transform_2=flip 0 7 0.2"]
        )
        world = generate_world(cfg.world)
        with pytest.raises(ConfigError, match="class 7"):
            make_transforms(cfg, world)

    def test_sibling_needs_two_per_class(self, tmp_path):
        cfg = load_config(
            write_cfg(tmp_path), overrides=["transforms.transform_2=sibling 0 0.2"]
        )
        world = generate_world(cfg.world)
        with pytest.raises(ConfigError, match="per_class"):
            make_transforms(cfg, world)
