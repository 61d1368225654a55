"""Golden report bytes: the SHA-256 of every report file, pinned.

Two manifests cover every variant and every sampler or raster mode.  Both
run at workers=1 and workers=2 and write jsonl, csv and txt (plus svg for the
sampled manifest); each file's digest must equal the one recorded in
``tests/golden_digests.json``.  A change that moves report bytes on purpose
regenerates that file and declares the golden change:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from blockmonte.runner import load_manifest, run_experiment

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

# Trial counts above one block (65,536) make workers=2 split real work.
SAMPLED = """\
[run]
run_id = sampled
formats = jsonl,csv,txt,svg

[sqrt2_fixed]
variant = sqrt2
seed = 1
trials = 1

[sqrt2_phase]
variant = sqrt2
seed = 5
trials = 1
leg_blocks = 37
random_start_phase = true

[pi_uniform_exact]
variant = pi
seed = 11
trials = 140000
radius = 12

[pi_uniform_raster]
variant = pi
seed = 12
trials = 140000
radius = 9
raster_mode = raster

[pi_slime]
variant = pi
seed = 13
trials = 1500
radius = 6
sampler_mode = slime_walk
raster_mode = raster

[pi_slime_drift]
variant = pi
seed = 14
trials = 1500
radius = 6
sampler_mode = slime_walk_drift

[e_size9]
variant = e
seed = 3
trials = 140000

[e_degenerate]
variant = e
seed = 1
trials = 1
permutation_size = 2

[zeta_uniform]
variant = zeta
seed = 21
trials = 140000
m = 3

[zeta_tick]
variant = zeta
seed = 22
trials = 70000
m = 3
sampler_mode = random_tick

[zeta_m4]
variant = zeta
seed = 23
trials = 70000
m = 4
value_bound = 1000

[sec_tan]
variant = sec_tan
seed = 31
trials = 70000

[integral_continuous]
variant = integral
seed = 41
trials = 140000

[integral_rasterized]
variant = integral
seed = 42
trials = 70000
function_spec = 3*sin(x)
a = -2
b = 5
raster_mode = rasterized

[integral_flat]
variant = integral
seed = 43
trials = 100
function_spec = 0*x
"""

REPLAYED = """\
[run]
run_id = replayed
formats = jsonl,csv,txt

[sqrt2_counts]
variant = sqrt2
trials = 1
counts = 57,41

[pi_counts]
variant = pi
trials = 1
counts = 33943,43270
reported_decimals = 5

[e_counts]
variant = e
trials = 1
counts = 647,238

[zeta_counts]
variant = zeta
trials = 1
counts = 70,58
m = 2
"""


def report_digests(workdir: Path, workers: int) -> dict:
    """Run both manifests into ``workdir``; SHA-256 of each report by name."""
    digests = {}
    for name, body in (("sampled", SAMPLED), ("replayed", REPLAYED)):
        out = workdir / name
        path = workdir / f"{name}.ini"
        path.write_text(body, encoding="utf-8")
        manifest = load_manifest(path)
        manifest.output_dir = out
        manifest.workers = workers
        run_experiment(manifest)
        for report in sorted(out.iterdir()):
            digests[report.name] = hashlib.sha256(report.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("workers", [1, 2])
def test_report_bytes_match_golden_digests(tmp_path, workers):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert report_digests(tmp_path, workers) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        json.dump(report_digests(Path(scratch), 1), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
