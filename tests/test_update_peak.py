"""A small run of ``tools/update_peak.py``: one desk Copy update in a
fresh process, reported as JSON."""

import json
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "update_peak.py"


def test_desk_copy_update_reports_its_peak_and_cache_bytes():
    out = subprocess.run([sys.executable, str(_PATH), "--task", "Copy", "--profile", "desk"],
                         capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(out.stdout)
    assert (report["task"], report["profile"], report["hidden_size"]) == ("Copy", "desk", 32)
    assert (report["n"], report["k"], report["method"]) == (40, 10, "urex")
    assert report["row_steps"] >= 400  # every one of the 400 rows runs a step
    assert 0 < report["cache_bytes_per_row_step"] <= 1500
    assert report["peak_rss_mb"] > report["cache_mb"] > 0 and report["update_s"] > 0
