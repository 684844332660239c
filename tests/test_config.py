"""Config parsing, validation messages, and the canonical hash."""

import math

import pytest

from solenoidlab.config import (
    ConfigError,
    canonical_text,
    config_sha256,
    parse_config,
)
from solenoidlab.params import NAMED_IRRATIONALS


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.params.b == 2
    assert cfg.params.gamma_abs == 0.5
    assert cfg.params.delta == pytest.approx(math.sqrt(2) - 1)
    assert cfg.params.delta_fraction is None
    assert cfg.params.phi.cos_coeffs == (1.0,)
    assert cfg.experiment is None
    assert cfg.seed == 0
    assert cfg.thread_count == 0
    assert cfg.options["n"] == 10
    assert cfg.options["q"] == 5
    assert cfg.warnings == []


def test_sections_comments_and_values():
    cfg = parse_config(
        """
        # solenoid system under test
        [system]
        b = 3
        gamma_abs = 0.55       # contraction
        delta_kind = rational(3, 8)
        phi_cos = 0.5, 0.25
        phi_sin =
        [experiment]
        experiment = fiber-entropy
        n = 7
        [run]
        seed = 0x2a
        """
    )
    assert cfg.params.b == 3
    assert cfg.params.gamma_abs == 0.55
    assert cfg.params.delta_fraction == (3, 8)
    assert cfg.params.phi.cos_coeffs == (0.5, 0.25)
    assert cfg.params.phi.sin_coeffs == ()
    assert cfg.experiment == "fiber-entropy"
    assert cfg.options["n"] == 7
    assert cfg.seed == 42


def test_delta_kind_forms():
    assert parse_config("delta_kind = rational(5, 4)").params.delta_fraction == (1, 4)
    assert parse_config("delta_kind = rational(-1, 4)").params.delta_fraction == (3, 4)
    cfg = parse_config("delta_kind = irrational(sqrt2-1)")
    assert cfg.params.delta == NAMED_IRRATIONALS["sqrt2-1"]
    assert parse_config("delta_kind = irrational(0.123)").params.delta == 0.123
    with pytest.raises(ConfigError, match="unknown irrational name"):
        parse_config("delta_kind = irrational(tau)")
    with pytest.raises(ConfigError, match="denominator must be positive"):
        parse_config("delta_kind = rational(1, 0)")
    with pytest.raises(ConfigError, match="delta_kind must be"):
        parse_config("delta_kind = 0.5")
    with pytest.raises(ConfigError, match=r"must lie in \[0, 1\)"):
        parse_config("delta_kind = irrational(1.5)")


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 3: unknown key gama_abs"):
        parse_config("b = 2\n\ngama_abs = 0.5\n")


@pytest.mark.parametrize("key", ["theta", "box_min_level", "box_max_level"])
def test_keys_no_experiment_reads_are_unknown(key):
    with pytest.raises(ConfigError, match=f"line 1: unknown key {key}"):
        parse_config(f"{key} = 3\n")


def test_unknown_section_and_malformed_lines():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[systems]\n")
    with pytest.raises(ConfigError, match="malformed section header"):
        parse_config("[system\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("just some words\n")


def test_invalid_values_name_line_and_type():
    with pytest.raises(ConfigError, match="line 1: invalid int value for n"):
        parse_config("n = seven\n")
    with pytest.raises(ConfigError, match="invalid float value for gamma_abs"):
        parse_config("gamma_abs = half\n")
    with pytest.raises(ConfigError, match="invalid float"):
        parse_config("gamma_abs = inf\n")


def test_duplicate_key_warns_and_keeps_last():
    cfg = parse_config("n = 4\nn = 9\n")
    assert cfg.options["n"] == 9
    assert len(cfg.warnings) == 1
    assert "duplicate key n" in cfg.warnings[0]


def test_semantic_validation():
    with pytest.raises(ConfigError, match="b must be >= 2"):
        parse_config("b = 1\n")
    with pytest.raises(ConfigError, match=r"strictly in \(0, 1\)"):
        parse_config("gamma_abs = 1.0\n")
    with pytest.raises(ConfigError, match="max_words must be positive"):
        parse_config("max_words = 0\n")
    with pytest.raises(ConfigError, match="line 1: pair_budget must be positive"):
        parse_config("pair_budget = 0\n")
    with pytest.raises(ConfigError, match="thread_count cannot be negative"):
        parse_config("thread_count = -1\n")
    for bad in ("0", "-2"):  # conservation divides by the pair count
        with pytest.raises(ConfigError, match="line 1: pairs must be positive"):
            parse_config(f"pairs = {bad}\n")
    with pytest.raises(ConfigError, match="mode must be"):
        parse_config("mode = turbo\n")
    with pytest.raises(ConfigError, match="cloud_mode must be"):
        parse_config("cloud_mode = fog\n")
    with pytest.raises(ConfigError, match="x must lie"):
        parse_config("x = 1.0\n")
    with pytest.raises(ConfigError, match="seed must fit"):
        parse_config(f"seed = {1 << 64}\n")


def test_canonical_text_is_sorted_and_stable():
    text = canonical_text(parse_config("n = 7\nb = 3\ngamma_abs = 0.6\n"))
    keys = [line.split(" = ")[0] for line in text.strip().split("\n")]
    assert keys == sorted(keys)
    again = canonical_text(parse_config("gamma_abs = 0.6\nb = 3\nn = 7\n"))
    assert text == again


def test_hash_ignores_orchestration_knobs():
    base = parse_config("n = 7\n")
    assert config_sha256(base) == config_sha256(parse_config("n = 7\nseed = 99\n"))
    assert config_sha256(base) == config_sha256(
        parse_config("n = 7\nthread_count = 8\n")
    )
    assert config_sha256(base) == config_sha256(
        parse_config("n = 7\noutput_dir = /tmp/elsewhere\n")
    )
    assert config_sha256(base) != config_sha256(parse_config("n = 8\n"))
    assert config_sha256(base) != config_sha256(parse_config("n = 7\nb = 3\n"))


def test_hash_sees_experiment_name():
    a = parse_config("experiment = porosity\n")
    b = parse_config("experiment = rotation\n")
    assert config_sha256(a) != config_sha256(b)


def test_round_trip_through_canonical_text():
    cfg = parse_config(
        "b = 3\ngamma_abs = 0.55\ndelta_kind = rational(2, 6)\n"
        "phi_cos = 0.5,0.25\nexperiment = porosity\nlevels = 2, 3, 4\n"
    )
    reparsed = parse_config(canonical_text(cfg))
    assert config_sha256(reparsed) == config_sha256(cfg)
    assert reparsed.params.delta_fraction == (1, 3)
    assert reparsed.options["levels"] == (2, 3, 4)
