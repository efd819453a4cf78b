"""The bit-identity tool (``tools/fingerprint.py``) still runs against this
tree's API. Its digests are compared between two trees by hand; this pins
only what every run prints: one line per case, a SHA-256 digest and a
case name, with no repeated name."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def test_fingerprint_prints_one_digest_per_case():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 31, proc.stdout
    assert all(re.fullmatch(r"[0-9a-f]{64} \S+", line) for line in lines), proc.stdout
    names = [line.split(" ", 1)[1] for line in lines]
    assert len(set(names)) == len(names), names
