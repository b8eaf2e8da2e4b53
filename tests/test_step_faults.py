"""A short run of ``tools/step_faults.py``: what it counts, and that
counting changes no bits."""

import hashlib
import importlib.util
from pathlib import Path

from urex.trainers import PolicyGradientTrainer

_PATH = Path(__file__).resolve().parents[1] / "tools" / "step_faults.py"
_SPEC = importlib.util.spec_from_file_location("step_faults", _PATH)
step_faults = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_faults)


def test_desk_report_counts_every_update_and_leaves_bits_alone():
    step = PolicyGradientTrainer.step
    report = step_faults.measure("desk", 0, 5)
    assert PolicyGradientTrainer.step is step  # the wrapper is removed
    faults = report["faults_per_update"]
    assert report["updates"] == len(faults) == 10  # two trials of five updates
    assert all(isinstance(f, int) and f >= 0 for f in faults)
    # updates 7 to 10 are steady: the first six are warm-up, and the second
    # trainer's first update (the sixth) is among them
    assert step_faults.WARMUP == 6
    steady = sorted(faults[6:])
    assert report["steady_faults_median"] == (steady[1] + steady[2]) / 2
    assert report["step_ms_p50"] > 0.0 and len(report["param_digest"]) == 64
    direct = hashlib.sha256(b"".join(p.tobytes() for p in step_faults.run_desk(0, 5)))
    assert report["param_digest"] == direct.hexdigest()

