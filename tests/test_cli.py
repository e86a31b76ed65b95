import hashlib

import pytest

from covmem.cli import main
from covmem.errors import BadFraction
from covmem.samples import read_samples


def write_config(tmp_path, **overrides):
    values = dict(
        strategy="memento",
        scenario="rare_patterns",
        capacity=300,
        batch_size=16,
        iterations=3,
        samples_per_iteration=600,
        feature_dim=4,
        eval_per_class=30,
    )
    values.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text(
        "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None)
    )
    return path


def test_run_command(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "iteration   0" in captured
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "timings.csv").exists()


def test_gen_then_run_from_file(tmp_path, capsys):
    pool = tmp_path / "pool.ndjson"
    assert main([
        "gen", "--scenario", "rare_patterns", "--out", str(pool),
        "--iterations", "2", "--samples-per-iteration", "500",
        "--seed", "3", "--noise", "0.1",
    ]) == 0
    assert "wrote 1000 samples" in capsys.readouterr().out

    samples = read_samples(pool)
    assert len(samples) == 1000
    assert samples.noise.sum() == 100

    config = write_config(
        tmp_path, strategy="fifo", predictor="histogram",
        scenario=None, input=str(pool), k_pred=3, k_out=3,
        samples_per_iteration=500, iterations=2,
    )
    assert main(["run", "--config", str(config)]) == 0


# sha256 of the file `covmem gen` writes below, recorded before the CLI and
# the harness shared one scenario-stream builder.
GOLDEN_GEN_NOISE = "da60f59783f57be4fda2c88cee7b9c9312a76393bba7e6c5b726cdb32fb0b762"


def test_gen_output_matches_golden_digest(tmp_path, capsys):
    pool = tmp_path / "pool.ndjson"
    assert main([
        "gen", "--scenario", "rare_patterns", "--out", str(pool),
        "--iterations", "2", "--samples-per-iteration", "500",
        "--seed", "3", "--noise", "0.1",
    ]) == 0
    assert hashlib.sha256(pool.read_bytes()).hexdigest() == GOLDEN_GEN_NOISE


@pytest.mark.parametrize("noise", ["-0.5", "nan", "1.5"])
def test_gen_rejects_a_noise_fraction_outside_unit_interval(tmp_path, noise):
    """A fraction it cannot apply fails before a file is written, not as a clean stream."""
    pool = tmp_path / "pool.ndjson"
    with pytest.raises(BadFraction, match="noise fraction"):
        main(["gen", "--scenario", "rare_patterns", "--out", str(pool),
              "--iterations", "2", "--samples-per-iteration", "200", "--noise", noise])
    assert not pool.exists()


def test_sweep_command(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main([
        "sweep", "--config", str(config), "--param", "capacity",
        "--values", "150,300", "--out-dir", str(tmp_path / "sweeps"),
    ]) == 0
    captured = capsys.readouterr().out
    assert "capacity=150" in captured
    assert "capacity=300" in captured
    assert (tmp_path / "sweeps" / "capacity=150" / "report.csv").exists()


def test_stationary_flag(tmp_path, capsys):
    pool = tmp_path / "flat.ndjson"
    main([
        "gen", "--scenario", "rare_patterns", "--out", str(pool),
        "--iterations", "4", "--samples-per-iteration", "2000", "--stationary",
    ])
    samples = read_samples(pool)
    # every iteration carries some of the rare classes when stationary
    for start in range(0, 8000, 2000):
        workloads = set(samples.workload[start:start + 2000].tolist())
        assert workloads == {0, 1, 2}
