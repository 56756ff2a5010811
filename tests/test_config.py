import hashlib
import math
import re

import numpy as np
import pytest

from ctlab import cli, config
from ctlab.config import (
    ConfigError,
    RunConfig,
    load_config,
    make_transforms,
    row_seed,
)
from ctlab.world import WorldSpec, class_pattern, generate_world
from oracles import reference_transforms, reference_world

REFERENCE = "configs/reference.ini"
README = "README.md"

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

    def test_keep_top_q_requires_q_even_with_a_sweep(self):
        # the sweep's q rows set their own q, but the baseline row truncates at svd.q
        with pytest.raises(ConfigError, match=r"^svd.q: required when mode = keep_top_q$"):
            load_config(REFERENCE, ["svd.mode=keep_top_q"])

    def test_q_out_of_range_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[svd]\nmode = keep_top_q\nq = 40\n")
        with pytest.raises(ConfigError, match="svd.q"):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["svd.sweep=0, 2"], "svd.sweep: q=0"),
            (["svd.sweep=2, 40"], "svd.sweep: q=40"),
            (["svd.q=2", "svd.sweep=1, 13"], "svd.sweep: q=13"),
            (["svd.q=13", "svd.sweep=1, 2"], "svd.q: q=13"),
        ],
    )
    def test_q_and_sweep_entries_named_by_their_key(self, tmp_path, overrides, message):
        # MINIMAL's world has m = m' = 6
        with pytest.raises(ConfigError, match=rf"^{message} out of range \[1, 6\]$"):
            load_config(write_cfg(tmp_path), overrides)

    @pytest.mark.parametrize("key", ["train.k_sweep", "svd.sweep"])
    @pytest.mark.parametrize("value, repeated", [("3, 3", 3), ("1, 2, 4, 2, 4", 2)])
    def test_repeated_sweep_entry_named(self, key, value, repeated):
        # a repeated entry would write the same row twice under one row key
        with pytest.raises(ConfigError, match=rf"^{key}: entry {repeated} repeated$"):
            load_config(REFERENCE, [f"{key}={value}"])

    @pytest.mark.parametrize(
        "overrides, keys, message",
        [
            (["world.q_star=1"], "world.q_star", "q_star must be >= 2"),
            # 1 + 5 * (3 - 1) = 11 planted slots, though q_star + nuisance_rank = 4 fits
            (["world.k=5", "world.m=8", "world.m_prime=8"],
             "world.k/world.m/world.m_prime/world.q_star/world.nuisance_rank",
             "planted construction needs 11 direction slots"),
        ],
    )
    def test_world_the_generator_cannot_plant_rejected(self, overrides, keys, message):
        with pytest.raises(ConfigError, match=rf"^{keys}: WorldSpec: {message}"):
            load_config(REFERENCE, overrides)

    @pytest.mark.parametrize("value, bad", [("0, 2", 0), ("3, -1", -1)])
    def test_k_sweep_entry_below_one_named(self, tmp_path, value, bad):
        with pytest.raises(ConfigError, match=rf"^train\.k_sweep: must be >= 1, got {bad}$"):
            load_config(write_cfg(tmp_path), [f"train.k_sweep={value}"])

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

    @pytest.mark.parametrize("mode, top", [("discard_pair", 5), ("discard_single", 6)])
    def test_discard_index_range_checked_at_load(self, tmp_path, mode, top):
        # the 6 x 6 minimal world: pairs (i, i + 1) need i <= 5, singles i <= 6
        path = write_cfg(tmp_path)
        for i in (1, top):
            assert load_config(path, [f"svd.mode={mode}", f"svd.pair_index={i}"]).svd_pair_index == i
        for i in (-1, top + 1):
            with _named("svd.pair_index"):
                load_config(path, [f"svd.mode={mode}", f"svd.pair_index={i}"])

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


def _table_keys(*kinds):
    """(section.key, kind, bound) of every table key of the given kinds."""
    return [
        (f"{section}.{key}", kind, bound)
        for section, keys in config._TABLE.items()
        for key, (_name, kind, _default, bound) in keys.items()
        if kind in kinds
    ]


def _named(where):
    return pytest.raises(ConfigError, match=rf"^{re.escape(where)}: ")


class TestKeyTable:
    # every default of today's parser, so moving a default is a failing test
    WANT_MINIMAL = RunConfig(
        seed=3,
        world=WorldSpec(
            K=2, per_class=1, m=6, m_prime=6, q_star=2, nuisance_rank=1,
            nuisance_confusion=0.9, noise_scale=0.0, seed=3,
        ),
        transform_descriptors=[
            ("transform_1", "identity", (), 0.4),
            ("transform_2", "flip", (0, 1), 0.2),
            ("transform_3", "flip", (1, 0), 0.2),
            ("transform_4", "bridge", (0, 1), 0.1),
            ("transform_5", "bridge", (1, 0), 0.1),
        ],
        rho=0.35,
        svd_mode="none",
        svd_q=None,
        svd_pair_index=None,
        svd_sweep=[],
        train_loss="infonce",
        train_k=3,
        train_k_sweep=[],
        train_steps=30,
        train_step_size=1.0,
        train_M=1,
        probe_steps=300,
        probe_step_size=2.0,
        probe_l2=0.0,
        bounds_which=["t1", "t3", "t4", "corollaries"],
        mc_samples=20000,
        mc_replicates=8,
        mc_n_max=60,
        mc_m_max=2,
        inflation_factor=1,
        output_directory="artifacts",
        output_formats=["csv", "text"],
    )

    def test_minimal_gets_todays_defaults(self, tmp_path):
        assert load_config(write_cfg(tmp_path)) == self.WANT_MINIMAL

    def test_world_seed_defaults_to_run_seed(self, tmp_path):
        body = MINIMAL.replace("noise_scale = 0.0\nseed = 3\n", "noise_scale = 0.0\n")
        assert load_config(write_cfg(tmp_path, body), ["run.seed=99"]).world.seed == 99

    def test_zero_svd_indices_count_as_unset(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path), ["svd.q=0", "svd.pair_index=0"])
        assert cfg.svd_q is None and cfg.svd_pair_index is None

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    @pytest.mark.parametrize("where", [w for w, _, _ in _table_keys("int", "float", "ints")])
    def test_non_numbers_named(self, tmp_path, where, value):
        with _named(where):
            load_config(write_cfg(tmp_path), [f"{where}={value}"])

    # today's bounds, so loosening one is a failing test
    BOUNDS = {
        "transforms.rho": ">= 0, <= 1",
        "train.k": ">= 1",
        "train.steps": ">= 0",
        "train.step_size": "> 0",
        "train.m": ">= 1",
        "probe.steps": ">= 0",
        "probe.step_size": "> 0",
        "probe.l2": ">= 0",
        "bounds.mc_samples": ">= 1",
        "bounds.mc_replicates": ">= 2",
        "bounds.n_max": ">= 1",
        "bounds.m_max": ">= 1",
        "inflation.factor": ">= 1",
        "svd.pair_index": ">= 0",
    }

    def test_every_bound_is_tested(self):
        assert {w: b for w, _, b in _table_keys("int", "float") if b is not None} == self.BOUNDS

    @pytest.mark.parametrize("where, bound", sorted(BOUNDS.items()))
    def test_values_past_each_bound_rejected(self, tmp_path, where, bound):
        floats = where in [w for w, _, _ in _table_keys("float")]
        for condition in bound.split(","):
            op, limit = condition.split()
            limit = float(limit) if floats else int(limit)
            if op == "<=":
                past = math.nextafter(limit, math.inf) if floats else limit + 1
            elif op == ">":
                past = limit
            else:
                past = math.nextafter(limit, -math.inf) if floats else limit - 1
            with _named(where):
                load_config(write_cfg(tmp_path), [f"{where}={past!r}"])
            if op != ">":  # the limit itself is allowed
                load_config(write_cfg(tmp_path), [f"{where}={limit!r}"])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k", "1"),
            ("per_class", "0"),
            ("m", "0"),
            ("m_prime", "0"),
            ("q_star", "0"),
            ("nuisance_rank", "-1"),
            ("nuisance_confusion", "-5e-324"),
            ("nuisance_confusion", "1.0000000000000002"),
            ("noise_scale", "-5e-324"),
        ],
    )
    def test_world_values_past_their_range_rejected(self, tmp_path, key, value):
        # WorldSpec.validate's message, led by the keys of the fields it read
        with pytest.raises(ConfigError, match=r"^(world\.\w+/)*world\.\w+: WorldSpec: ") as err:
            load_config(write_cfg(tmp_path), [f"world.{key}={value}"])
        assert f"world.{key}" in str(err.value).split(": ")[0].split("/")

    @pytest.mark.parametrize(
        "descriptor",
        ["identity 0.2", "flip 0 1 0.2", "bridge 0 1 0.2", "sibling 0 0.2",
         "block_mask 0 1 0 1 0.2"],
    )
    def test_descriptor_token_count_is_exact(self, tmp_path, descriptor):
        path = write_cfg(tmp_path)
        kind, *args = descriptor.split()
        cfg = load_config(path, [f"transforms.transform_2={descriptor}"])
        want = ("transform_2", kind, tuple(map(int, args[:-1])), 0.2)
        assert cfg.transform_descriptors[1] == want
        head, prob = descriptor.rsplit(" ", 1)
        for bad in (f"{descriptor} 9", f"{head} 0 {prob}", head):
            with _named("transforms.transform_2"):
                load_config(path, [f"transforms.transform_2={bad}"])

    @pytest.mark.parametrize(
        "descriptor",
        ["identity nan", "identity inf", "identity -inf", "flip 0 x 0.2", "flip 0 1 x"],
    )
    def test_descriptor_numbers_named(self, tmp_path, descriptor):
        with _named("transforms.transform_1"):
            load_config(write_cfg(tmp_path), [f"transforms.transform_1={descriptor}"])


# the manifest echo of today's parser, line for line
REFERENCE_ECHO = """\
seed = 6
bounds.m_max = 2
bounds.mc_replicates = 8
bounds.mc_samples = 20000
bounds.n_max = 60
bounds.which = ['t1', 't3', 't4', 'corollaries']
inflation.factor = 1
probe.l2 = 0.0
probe.step_size = 2.0
probe.steps = 300
svd.mode = none
svd.pair_index = None
svd.q = None
svd.sweep = [1, 2, 3, 4]
train.k = 3
train.k_sweep = [1, 2, 3, 4, 5, 6, 7, 8]
train.loss = infonce
train.m = 1
train.step_size = 1.0
train.steps = 30
transforms.rho = 0.35
transforms.transform_1 = identity 0.34
transforms.transform_10 = sibling 2 0.06
transforms.transform_2 = flip 0 1 0.12
transforms.transform_3 = flip 1 2 0.12
transforms.transform_4 = flip 2 0 0.12
transforms.transform_5 = bridge 0 1 0.04
transforms.transform_6 = bridge 1 2 0.04
transforms.transform_7 = bridge 2 0 0.04
transforms.transform_8 = sibling 0 0.06
transforms.transform_9 = sibling 1 0.06
world.K = 3
world.m = 12
world.m_prime = 12
world.noise_scale = 0.0
world.nuisance_confusion = 0.9
world.nuisance_rank = 1
world.per_class = 2
world.q_star = 3
world.seed = 11
"""

MINIMAL_DISCARD_ECHO = """\
seed = 3
bounds.m_max = 2
bounds.mc_replicates = 8
bounds.mc_samples = 20000
bounds.n_max = 60
bounds.which = ['t1', 't3', 't4', 'corollaries']
inflation.factor = 1
probe.l2 = 0.0
probe.step_size = 2.0
probe.steps = 300
svd.mode = discard_pair
svd.pair_index = 1
svd.q = None
svd.sweep = []
train.k = 3
train.k_sweep = []
train.loss = infonce
train.m = 1
train.step_size = 1.0
train.steps = 30
transforms.rho = 0.35
transforms.transform_1 = identity 0.4
transforms.transform_2 = flip 0 1 0.2
transforms.transform_3 = flip 1 0 0.2
transforms.transform_4 = bridge 0 1 0.1
transforms.transform_5 = bridge 1 0 0.1
world.K = 2
world.m = 6
world.m_prime = 6
world.noise_scale = 0.0
world.nuisance_confusion = 0.9
world.nuisance_rank = 1
world.per_class = 1
world.q_star = 2
world.seed = 3
"""


@pytest.mark.parametrize(
    "body, overrides, want",
    [
        (None, [], REFERENCE_ECHO),
        (MINIMAL, ["svd.mode=discard_pair", "svd.pair_index=1"], MINIMAL_DISCARD_ECHO),
    ],
)
def test_manifest_echo_unchanged(tmp_path, body, overrides, want):
    path = REFERENCE if body is None else write_cfg(tmp_path, body)
    manifest = tmp_path / "manifest.txt"
    cli._write_manifest(load_config(path, overrides), manifest, ["argmin_q = none"])
    head, rest = manifest.read_text().split("\n", 1)
    assert head.startswith("ctlab ")
    assert rest == want + "argmin_q = none\n"


def test_readme_key_reference_matches_table():
    kinds = {"int": "int", "float": "float", "ints": "int list", "choice": "choice",
             "choices": "choice list", "str": "string"}
    with open(README, encoding="utf-8") as fh:
        rows = [line.strip().strip("|").split("|") for line in fh if line.startswith("| `")]
    cells = {row[0].strip().strip("`"): [c.strip() for c in row[1:]] for row in rows}
    table = {f"{s}.{k}": entry for s, keys in config._TABLE.items() for k, entry in keys.items()}
    assert set(cells) == set(table)
    for where, (_name, kind, default, bound) in table.items():
        if default is config.REQUIRED:
            default = "required"
        elif default is None:
            default = "run.seed" if where == "world.seed" else "unset"
        elif isinstance(default, tuple):
            default = ", ".join(default) or "empty"
        want = [kinds[kind], str(default)]
        if bound is not None:
            want.append(", ".join(bound) if isinstance(bound, tuple) else bound)
        assert cells[where][: len(want)] == want, where


class TestTruncationHelper:
    def test_modes(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.truncation() is None
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
        assert np.allclose(flip.shift, class_pattern(world, 0, 1, 0.35))
        bridge = transforms[3]
        assert np.allclose(bridge.shift, class_pattern(world, 0, 1, -0.65))

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
            assert t.shift.tobytes() == want.shift.tobytes()
            assert t.probability == want.probability

    def test_class_index_checked(self, tmp_path):
        cfg = load_config(
            write_cfg(tmp_path), overrides=["transforms.transform_2=flip 0 7 0.2"]
        )
        world = generate_world(cfg.world)
        with pytest.raises(ConfigError, match="class 7"):
            make_transforms(cfg, world)

    @pytest.mark.parametrize(
        "rect", ["5 2 0 3", "-3 -1 0 2", "0 99 0 99", "0 7 0 2", "0 2 6 6"]
    )
    def test_block_mask_outside_the_payload_named(self, tmp_path, rect):
        # reversed, negative, oversized or empty: none may clip to another mask
        cfg = load_config(write_cfg(tmp_path), [f"transforms.transform_2=block_mask {rect} 0.2"])
        with pytest.raises(
            ConfigError,
            match=rf"^transforms\.transform_2: block_mask {rect} needs 0 <= r0 < r1 <= 6 "
            r"and 0 <= c0 < c1 <= 6$",
        ):
            make_transforms(cfg, generate_world(cfg.world))

    @pytest.mark.parametrize("prob", ["0.0", "-0.2"])
    def test_probability_at_or_below_zero_named(self, tmp_path, prob):
        # the identity takes up the rest, so the probabilities still sum to 1
        rest = f"identity {0.6 - float(prob)!r}"
        cfg = load_config(write_cfg(tmp_path), [f"transforms.transform_1={rest}",
                                                f"transforms.transform_2=flip 0 1 {prob}"])
        with pytest.raises(ConfigError, match=rf"^transforms\.transform_2: probability "):
            make_transforms(cfg, generate_world(cfg.world))

    def test_sibling_needs_two_per_class(self, tmp_path):
        cfg = load_config(
            write_cfg(tmp_path), overrides=["transforms.transform_2=sibling 0 0.2"]
        )
        world = generate_world(cfg.world)
        with pytest.raises(ConfigError, match="per_class"):
            make_transforms(cfg, world)
