"""Run configuration: "key = value" files with sections, defaults, and checks.

Every key the tool understands is declared in one registry below.  A key
not in the registry is an error that names the offending line, because a
silently ignored typo in an experiment config wastes a compute budget.
Duplicate keys keep the last value and record a warning.  Sections group
keys for readability; resolution is by key name alone.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .params import NAMED_IRRATIONALS, SystemParams, TrigPoly

__all__ = ["ConfigError", "RunConfig", "parse_config", "canonical_text", "config_sha256"]


class ConfigError(ValueError):
    pass


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("not finite")
    return v


def _parse_floats(raw: str) -> tuple[float, ...]:
    if not raw.strip():
        return ()
    return tuple(_parse_float(p) for p in raw.split(","))


def _parse_ints(raw: str) -> tuple[int, ...]:
    if not raw.strip():
        return ()
    return tuple(int(p.strip(), 0) for p in raw.split(","))


def _parse_str(raw: str) -> str:
    return raw.strip()


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "floats": _parse_floats,
    "ints": _parse_ints,
    "str": _parse_str,
}

# key -> (section, type, default)
KEY_SPECS: dict[str, tuple[str, str, object]] = {
    "b": ("system", "int", 2),
    "gamma_abs": ("system", "float", 0.5),
    "delta_kind": ("system", "str", "irrational(sqrt2-1)"),
    "phi_a0": ("system", "float", 0.0),
    "phi_cos": ("system", "floats", (1.0,)),
    "phi_sin": ("system", "floats", ()),
    "max_words": ("budgets", "int", 1 << 22),
    "max_points": ("budgets", "int", 1 << 16),
    "thread_count": ("budgets", "int", 0),
    "experiment": ("experiment", "str", ""),
    "x": ("experiment", "float", 0.1710339),
    "n": ("experiment", "int", 10),
    "q": ("experiment", "int", 5),
    "depth": ("experiment", "int", 0),
    "mode": ("experiment", "str", "auto"),
    "sample_count": ("experiment", "int", 1 << 20),
    "cloud_count": ("experiment", "int", 200000),
    "cloud_mode": ("experiment", "str", "orbit"),
    "density_pixels": ("experiment", "int", 128),
    "gamma_values": ("experiment", "floats", (0.5, 0.55, 0.6)),
    "porosity_h": ("experiment", "float", -1.0),
    "porosity_delta": ("experiment", "float", 0.2),
    "porosity_m": ("experiment", "int", 4),
    "i_min": ("experiment", "int", 1),
    "i_max": ("experiment", "int", 7),
    "nx": ("experiment", "int", 16),
    "ntheta": ("experiment", "int", 32),
    "pairs": ("experiment", "int", 8),
    "q_values": ("experiment", "ints", (4, 5, 6)),
    "pair_budget": ("experiment", "int", 1 << 18),
    "probe_depth": ("experiment", "int", 6),
    "suffix": ("experiment", "str", "01"),
    "eps_exponent": ("experiment", "float", 3.0),
    "levels": ("experiment", "ints", (6, 7, 8, 9, 10, 11, 12)),
    "t_min": ("experiment", "int", 2),
    "sample_depth": ("experiment", "int", 8),
    "z_grid": ("experiment", "int", 16),
    "theta0": ("experiment", "float", 0.05),
    "orbit_length": ("experiment", "int", 100000),
    "ell": ("experiment", "int", 6),
    "k_max": ("experiment", "int", 256),
    "seed": ("run", "int", 0),
    "output_dir": ("run", "str", "."),
}

_SECTIONS = ("system", "budgets", "experiment", "run")

_DELTA_RE = re.compile(
    r"^\s*(?:rational\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)|irrational\(\s*([^)]+?)\s*\))\s*$"
)


@dataclass
class RunConfig:
    params: SystemParams
    max_words: int
    max_points: int
    thread_count: int
    experiment: Optional[str]
    seed: int
    output_dir: str
    options: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def _parse_delta_kind(raw: str, where: str) -> tuple[float, Optional[tuple[int, int]]]:
    m = _DELTA_RE.match(raw)
    if not m:
        raise ConfigError(
            f"{where}: delta_kind must be rational(p,q) or irrational(name-or-number), got {raw!r}"
        )
    if m.group(1) is not None:
        p, q = int(m.group(1)), int(m.group(2))
        if q <= 0:
            raise ConfigError(f"{where}: rational denominator must be positive")
        frac = Fraction(p, q) % 1
        return float(frac), (frac.numerator, frac.denominator)
    name = m.group(3)
    if name in NAMED_IRRATIONALS:
        return NAMED_IRRATIONALS[name], None
    try:
        value = float(name)
    except ValueError:
        known = ", ".join(sorted(NAMED_IRRATIONALS))
        raise ConfigError(
            f"{where}: unknown irrational name {name!r} (known: {known}; a numeric literal also works)"
        ) from None
    if not 0.0 <= value < 1.0:
        raise ConfigError(f"{where}: rotation number must lie in [0, 1)")
    return value, None


def parse_config(text: str) -> RunConfig:
    values: dict[str, object] = {name: spec[2] for name, spec in KEY_SPECS.items()}
    where: dict[str, str] = {name: "default" for name in KEY_SPECS}
    warnings: list[str] = []
    seen: set[str] = set()

    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {ln}: malformed section header {rawline.strip()!r}")
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"line {ln}: unknown section {section!r} (sections: {', '.join(_SECTIONS)})"
                )
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value, got {rawline.strip()!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in KEY_SPECS:
            raise ConfigError(f"line {ln}: unknown key {key}")
        if key in seen:
            warnings.append(f"line {ln}: duplicate key {key} overrides the earlier value")
        seen.add(key)
        _, typ, _ = KEY_SPECS[key]
        try:
            values[key] = _PARSERS[typ](raw)
        except (ValueError, TypeError):
            raise ConfigError(
                f"line {ln}: invalid {typ} value for {key}: {raw!r}"
            ) from None
        where[key] = f"line {ln}"

    return _assemble(values, where, warnings)


def _assemble(values: dict, where: dict, warnings: list[str]) -> RunConfig:
    b = values["b"]
    if b < 2:
        raise ConfigError(f"{where['b']}: b must be >= 2")
    gamma_abs = values["gamma_abs"]
    if not 0.0 < gamma_abs < 1.0:
        raise ConfigError(f"{where['gamma_abs']}: gamma_abs must lie strictly in (0, 1)")
    delta, frac = _parse_delta_kind(values["delta_kind"], where["delta_kind"])
    phi = TrigPoly(values["phi_a0"], tuple(values["phi_cos"]), tuple(values["phi_sin"]))
    try:
        params = SystemParams(b, gamma_abs, delta, phi, delta_fraction=frac)
    except ValueError as exc:
        raise ConfigError(f"invalid system: {exc}") from exc

    for key in ("max_words", "max_points", "sample_count", "pair_budget", "pairs"):
        if values[key] < 1:
            raise ConfigError(f"{where[key]}: {key} must be positive")
    if values["thread_count"] < 0:
        raise ConfigError(f"{where['thread_count']}: thread_count cannot be negative")
    if values["n"] < 1:
        raise ConfigError(f"{where['n']}: n must be >= 1")
    if not 0 < values["q"]:
        raise ConfigError(f"{where['q']}: q must be >= 1")
    if values["mode"] not in ("auto", "exhaustive", "sampled"):
        raise ConfigError(f"{where['mode']}: mode must be auto, exhaustive, or sampled")
    if values["cloud_mode"] not in ("orbit", "word"):
        raise ConfigError(f"{where['cloud_mode']}: cloud_mode must be orbit or word")
    if not 0.0 <= values["x"] < 1.0:
        raise ConfigError(f"{where['x']}: x must lie in [0, 1)")
    if values["seed"] < 0 or values["seed"] >= 1 << 64:
        raise ConfigError(f"{where['seed']}: seed must fit in 64 bits")

    options = {
        name: values[name]
        for name, (section, _, _) in KEY_SPECS.items()
        if section == "experiment" and name != "experiment"
    }
    return RunConfig(
        params=params,
        max_words=values["max_words"],
        max_points=values["max_points"],
        thread_count=values["thread_count"],
        experiment=values["experiment"] or None,
        seed=values["seed"],
        output_dir=values["output_dir"],
        options=options,
        warnings=warnings,
    )


def canonical_text(cfg: RunConfig) -> str:
    """Deterministic rendering of the effective configuration.

    Orchestration knobs (seed, thread count, output directory) are left
    out: they never change what an experiment computes, and artifacts
    produced under different thread counts must hash identically.
    """
    p = cfg.params
    if p.delta_fraction:
        kind = f"rational({p.delta_fraction[0]},{p.delta_fraction[1]})"
    else:
        kind = f"irrational({p.delta!r})"
    items: dict[str, object] = {
        "b": p.b,
        "gamma_abs": p.gamma_abs,
        "delta_kind": kind,
        "phi_a0": p.phi.a0,
        "phi_cos": ",".join(repr(c) for c in p.phi.cos_coeffs),
        "phi_sin": ",".join(repr(c) for c in p.phi.sin_coeffs),
        "max_words": cfg.max_words,
        "max_points": cfg.max_points,
        "experiment": cfg.experiment or "",
    }
    for key in sorted(cfg.options):
        val = cfg.options[key]
        if isinstance(val, tuple):
            items[key] = ",".join(repr(v) for v in val)
        else:
            items[key] = val
    return "".join(f"{k} = {items[k]}\n" for k in sorted(items))


def config_sha256(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()
