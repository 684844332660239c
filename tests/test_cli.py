"""Command-line entry point: exit codes, file naming, headers, determinism."""

import pytest

import solenoidlab.entropy as entropy_module
from solenoidlab import cli as cli_module
from solenoidlab.cli import EXPERIMENTS, main
from solenoidlab.config import config_sha256, parse_config

FAST_SYSTEM = """
[system]
b = 2
gamma_abs = 0.5
delta_kind = irrational(sqrt2-1)
[experiment]
n = 5
depth = 8
mode = exhaustive
"""


def run(tmp_path, text, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main([argv[0], "--config", str(cfg), *argv[1:], "--out", str(tmp_path)])


def test_experiment_list_is_fixed():
    assert EXPERIMENTS == (
        "attractor",
        "dim-table",
        "fiber-entropy",
        "porosity",
        "projection-sweep",
        "conservation",
        "condition-h",
        "separation",
        "transversality",
        "rotation",
        "verify-suite",
    )


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["warp-drive"])
    assert "invalid choice" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["fiber-entropy", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_error_exits_two(tmp_path, capsys):
    code = run(tmp_path, "gamma_abs = 2.0\n", ["fiber-entropy"])
    assert code == 2
    assert "solenoidlab:" in capsys.readouterr().err


def test_runner_error_exits_one(tmp_path, capsys):
    # level 1 sits below the two-symbol suffix
    text = FAST_SYSTEM + "suffix = 01\nlevels = 1\n"
    code = run(tmp_path, text, ["separation"])
    assert code == 1
    assert "below the suffix length" in capsys.readouterr().err


def test_fiber_entropy_outputs(tmp_path, capsys):
    code = run(tmp_path, FAST_SYSTEM + "seed = 7\n", ["fiber-entropy"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("fiber-entropy OK ")

    csv = tmp_path / "fiber-entropy-7.csv"
    dump = tmp_path / "fiber-entropy-7.measure"
    assert csv.exists() and dump.exists()
    cfg = parse_config((tmp_path / "run.cfg").read_text())
    cfg.experiment = "fiber-entropy"
    want = f"# solenoidlab fiber-entropy config_sha256={config_sha256(cfg)} seed=7"
    assert csv.read_text().splitlines()[0] == want
    assert dump.read_text().splitlines()[0] == want
    assert csv.read_text().splitlines()[1] == "level,entropy,normalized"


def test_seed_flag_overrides_config(tmp_path):
    code = run(tmp_path, FAST_SYSTEM + "seed = 7\n", ["fiber-entropy", "--seed", "9"])
    assert code == 0
    assert (tmp_path / "fiber-entropy-9.csv").exists()
    assert not (tmp_path / "fiber-entropy-7.csv").exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_seed_flag_must_fit_in_64_bits(tmp_path, capsys, seed):
    code = run(tmp_path, FAST_SYSTEM, ["separation", f"--seed={seed}"])
    assert code == 2
    assert "--seed must fit in 64 bits" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_experiment_mismatch_notes(tmp_path, capsys):
    code = run(tmp_path, FAST_SYSTEM + "experiment = porosity\n", ["fiber-entropy"])
    assert code == 0
    err = capsys.readouterr().err
    assert "config names experiment 'porosity'" in err


def test_duplicate_key_warning_on_stderr(tmp_path, capsys):
    code = run(tmp_path, FAST_SYSTEM + "n = 5\nn = 5\n", ["fiber-entropy"])
    assert code == 0
    assert "duplicate key n" in capsys.readouterr().err


def test_verify_suite_zero_drive_headline(tmp_path, capsys):
    text = "phi_cos =\nphi_a0 = 0.0\nn = 5\ndepth = 8\nmode = exhaustive\n"
    code = run(tmp_path, text, ["verify-suite"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "verify-suite OK alpha=0.000 dim=1.000"
    report = (tmp_path / "verify-suite-0.txt").read_text()
    assert "FAIL" not in report


def test_verify_suite_default_system(tmp_path, capsys):
    code = run(tmp_path, "n = 5\ndepth = 8\nmode = exhaustive\n", ["verify-suite"])
    assert code == 0
    assert capsys.readouterr().out.startswith("verify-suite OK alpha=")


def test_verify_suite_b3_sampled(tmp_path, capsys):
    # at b=3 the 20000-point cloud saturates every level above 2, so the
    # box-count levels must follow b, not the b=2 range 2..7
    text = "b = 3\ngamma_abs = 0.55\nn = 5\nmode = sampled\nsample_count = 4000\nseed = 7\n"
    code = run(tmp_path, text, ["verify-suite"])
    assert code == 0
    assert capsys.readouterr().out.startswith("verify-suite OK ")
    report = (tmp_path / "verify-suite-7.txt").read_text().splitlines()
    assert any(line.startswith("ok   box-slope-range dim=") for line in report)
    assert not any(line.startswith("FAIL") for line in report)


TINY_RUNS = FAST_SYSTEM + """mode = sampled
sample_count = 4000
depth = 12
cloud_count = 2000
density_pixels = 8
gamma_values = 0.5
i_max = 3
porosity_m = 3
nx = 2
ntheta = 3
pairs = 2
q = 3
q_values = 2, 3
pair_budget = 64
probe_depth = 4
levels = 4, 5
sample_depth = 6
z_grid = 4
orbit_length = 1000
ell = 3
k_max = 4
"""

ARTIFACTS = {
    "attractor": {"attractor-0.csv", "attractor-0.density"},
    "dim-table": {"dim-table-0.csv"},
    "fiber-entropy": {"fiber-entropy-0.csv", "fiber-entropy-0.measure"},
    "porosity": {"porosity-0.csv"},
    "projection-sweep": {"projection-sweep-0.csv"},
    "conservation": {"conservation-0.csv", "conservation-q-0.csv"},
    "condition-h": {"condition-h-0.txt"},
    "separation": {"separation-0.sepcert"},
    "transversality": {"transversality-0.transwit"},
    "rotation": {"rotation-0.csv"},
    "verify-suite": {"verify-suite-0.txt"},
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_thread_count_does_not_change_artifacts(tmp_path, capsys, experiment):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(TINY_RUNS)
    cfg = parse_config(TINY_RUNS)
    cfg.experiment = experiment
    header = f"# solenoidlab {experiment} config_sha256={config_sha256(cfg)} seed=0"
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        argv = [experiment, "--config", str(cfg_file), "--threads", threads, "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
    one, two = written
    assert set(one) == ARTIFACTS[experiment]
    for name, body in one.items():
        assert body.decode().splitlines()[0] == header, name
    assert one == two


def test_auto_mode_stays_within_the_exhaustive_budget(tmp_path, capsys):
    # max_words above EXHAUSTIVE_WORD_BUDGET: 2^25 words would be refused, so sample
    text = "b = 2\ndepth = 25\nmax_words = 33554432\nn = 4\nsample_count = 4096\n"
    assert cli_module._fiber_spec(parse_config(text), 0).mode == "sampled"
    at_budget = text.replace("depth = 25", "depth = 24")
    assert cli_module._fiber_spec(parse_config(at_budget), 0).mode == "exhaustive"
    assert run(tmp_path, text, ["fiber-entropy"]) == 0
    assert capsys.readouterr().out.startswith("fiber-entropy OK ")


def test_failing_run_writes_no_files(tmp_path, capsys, monkeypatch):
    # the measure dump fails after the entropy table is made: neither file appears
    def fail(mu):
        raise RuntimeError("dump refused")

    monkeypatch.setattr(cli_module, "dump_measure", fail)
    assert run(tmp_path, FAST_SYSTEM, ["fiber-entropy"]) == 1
    assert "dump refused" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]


def test_threads_flag_cannot_be_negative(tmp_path, capsys, monkeypatch):
    # refused before any run, as a negative thread_count is; 0 means unset
    assert run(tmp_path, FAST_SYSTEM, ["fiber-entropy", "--threads", "-3"]) == 2
    assert "--threads cannot be negative" in capsys.readouterr().err
    assert not (tmp_path / "fiber-entropy-0.csv").exists()
    monkeypatch.setenv("SOLENOID_THREADS", "3")
    cfg = parse_config("thread_count = 2\n")
    assert cli_module._resolve_threads(0, cfg) == 2
    assert cli_module._resolve_threads(0, parse_config("")) == 3


def test_env_threads_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOLENOID_THREADS", "2")
    code = run(tmp_path, FAST_SYSTEM, ["fiber-entropy"])
    assert code == 0
    monkeypatch.setenv("SOLENOID_THREADS", "not-a-number")
    code = run(tmp_path, FAST_SYSTEM, ["fiber-entropy"])
    assert code == 0


def test_porosity_runs_end_to_end(tmp_path, capsys, monkeypatch):
    grouped = []
    group = entropy_module._group_entropies
    monkeypatch.setattr(
        entropy_module, "_group_entropies", lambda *args: grouped.append(1) or group(*args)
    )
    code = run(tmp_path, FAST_SYSTEM + "i_min = 1\ni_max = 3\nporosity_m = 3\n", ["porosity"])
    assert code == 0
    out = capsys.readouterr().out
    assert "porosity OK" in out and "verdict=" in out
    assert (tmp_path / "porosity-0.csv").exists()
    assert len(grouped) == 2  # one sweep of levels 1, 2 serves the csv and the verdict


def test_porosity_runs_on_the_default_config(tmp_path, capsys):
    assert main(["porosity", "--out", str(tmp_path)]) == 0
    assert "porosity OK" in capsys.readouterr().out


def test_porosity_refuses_components_past_n_before_building(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_module, "build_fiber_measure", lambda *a, **k: pytest.fail("built"))
    code = run(tmp_path, FAST_SYSTEM + "i_max = 4\nporosity_m = 3\n", ["porosity"])
    assert code == 1
    err = capsys.readouterr().err
    assert "i_max - 1 + porosity_m = 6" in err and "n = 5" in err
    assert not (tmp_path / "porosity-0.csv").exists()


def test_rotation_runs_end_to_end(tmp_path, capsys):
    text = FAST_SYSTEM + "ell = 3\nk_max = 4\norbit_length = 1000\n"
    code = run(tmp_path, text, ["rotation"])
    assert code == 0
    lines = (tmp_path / "rotation-0.csv").read_text().splitlines()
    assert lines[1] == "k,partial_average,integral,gap"
    assert len(lines) == 6


@pytest.mark.parametrize("budget", [1 << 18, 50], ids=["exhaustive", "sampled"])
def test_condition_h_words_are_digit_strings(tmp_path, capsys, budget):
    text = FAST_SYSTEM + f"probe_depth = 5\npair_budget = {budget}\nseed = 7\n"
    assert run(tmp_path, text, ["condition-h"]) == 0
    report = (tmp_path / "condition-h-7.txt").read_text()
    assert "np.int64(" not in report
    (line,) = [ln for ln in report.splitlines() if ln.startswith("worst_pair: ")]
    left, right = line.split()[1:]
    assert len(left) == len(right) == 5
    assert set(left + right) <= {"0", "1"} and left[0] != right[0]
