"""Golden sha256 hashes of ``pemkit simulate`` output.

The hashes were recorded before the tick loop computed occlusion intervals
lazily, scanned the policy's obstacles once per perception frame and kept
one pose cache per actor. Every simulate output is meant to stay
byte-identical across such changes, and across the in-process and forked
runs of a command: on one CPU the cells run in this process, on more they
run on forked workers. The outputs depend only on NumPy's generators and
``math``, so the hashes also pin them across Python and NumPy versions.
"""

import hashlib
from pathlib import Path

from pemkit.cli import EXIT_OK, main

MODEL = Path(__file__).resolve().parents[1] / "conformance" / "model.json"
REPORT_SHA256 = "b2037afe69fae1de0066707fb9fa53bf4ead145c86abc986301b592d66a3d6c9"
# TC3, seed 9: the lead vehicle hides the pedestrian for part of the run.
RUNLOG = Path("model__TC3") / "runs" / "run_000009.jsonl"
RUNLOG_SHA256 = "d272a4ae1667ad35c3a932ae534680a14051014fa8fd7ad9a08eeaef37745512"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_output_matches_golden_hashes(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--scenario", "TC1", "--scenario", "TC2", "--scenario", "TC3",
        "--model", str(MODEL), "--runs", "20", "--seed", "7", "--save-logs", "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    assert sha256(out / "report.json") == REPORT_SHA256
    assert sha256(out / RUNLOG) == RUNLOG_SHA256
