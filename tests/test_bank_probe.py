"""The bank probe (``tools/bank_probe.py``) still runs against this tree's
API. Its timings are read by hand; this pins only the table it prints with
``--header``: a header row, its separator and one row of as many cells."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bank_probe.py"


def cells(line: str) -> list[str]:
    assert line.startswith("| ") and line.endswith(" |"), line
    return line[2:-2].split(" | ")


def test_bank_probe_prints_a_header_and_one_row_of_its_width():
    proc = subprocess.run([sys.executable, str(TOOL), "--chapters", "33", "--header"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    header, rule, row = proc.stdout.splitlines()
    names = cells(header)
    assert names[0] == "chapters" and len(set(names)) == len(names), header
    assert rule == "|" + "---|" * len(names), rule
    values = cells(row)
    assert len(values) == len(names), row
    assert values[0] == "33" and re.fullmatch(r"[\d,]+ of 1,056 \[[\d,]+\]", values[2]), row
    assert all(re.fullmatch(r"[\d.]+ / [\d.]+ ms", v) for v in values[3:-1]), row
