"""Smoke test of tools/kernels.py, the kernel microbenchmark."""
import json
import subprocess
import sys
from pathlib import Path

KERNELS = Path(__file__).resolve().parent.parent / "tools" / "kernels.py"


def test_kernels_prints_one_json_line_of_positive_times():
    out = subprocess.run([sys.executable, str(KERNELS), "--repeat", "1", "--number", "1"],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.strip().splitlines()
    assert len(lines) == 1
    times = json.loads(lines[0])
    assert set(times) == {"env_step_b1", "env_step_b500", "policy_sample_b1",
                          "policy_sample_b64", "wm_euler_step_b1", "wm_euler_step_b64",
                          "reward_logit_b512", "make_rf_batch_b64", "rf_loss_fwd_bwd_b64",
                          "adam_step_wm", "train_step_wm_b64", "env_reset_b500",
                          "write_store_b500", "grpo_step_batch_b64"}
    for us, faults in times.values():
        assert isinstance(us, float) and us > 0
        assert isinstance(faults, float) and faults >= 0
