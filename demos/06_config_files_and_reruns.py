"""
Config-file runs, on-disk reports, and byte-identical reruns
============================================================

Experiments live in flat key = value config files so a run can be
named, versioned, and repeated.  This script writes a config, executes
it twice through the same entry point the ``covmem run`` command uses,
and diffs the outputs: every report and memory snapshot must match
byte for byte.  Only ``timings.csv`` is excluded, since wall clock is
the one thing a rerun cannot reproduce.
"""
import filecmp
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = """\
# small end-to-end run; keys mirror harness.RunConfig
strategy              = memento
scenario              = rare_patterns
capacity              = 500
batch_size            = 32
iterations            = 4
samples_per_iteration = 1000
feature_dim           = 4
predictor             = centroid
eval_per_class        = 50
seed                  = 11
snapshots             = true
"""

with tempfile.TemporaryDirectory(prefix="covmem-demo-") as tmp:
    workdir = Path(tmp)
    config_path = workdir / "run.cfg"
    config_path.write_text(CONFIG)

    for name in ("first", "second"):
        subprocess.run(
            [sys.executable, "-m", "covmem.cli", "run",
             "--config", str(config_path), "--out-dir", str(workdir / name)],
            check=True, stdout=subprocess.DEVNULL,
        )

    first, second = workdir / "first", workdir / "second"
    names = sorted(p.name for p in first.iterdir() if p.name != "timings.csv")
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)

    print(f"run directory: {first} (removed on exit)")
    for name in names:
        size = (first / name).stat().st_size
        verdict = "identical" if name in match else "DIFFERS"
        print(f"  {name:24s} {size:8d} bytes  {verdict}")
    assert not mismatch and not errors, (mismatch, errors)
    print("\nsame config, same seed, same bytes.")
