"""The benchmark's result is the last line of its stdout, in strict JSON.

perfbench/run.py ends a run by printing one JSON object, and only the last
line of stdout is read as the result. Two things can leave a run that exits
0 without a readable result: json.dumps writes a non-finite metric as NaN or
Infinity, which is not JSON, and bytes reaching stdout after the result line
(C stdio flushed at exit, say) push it off the last line. test_bench_contract
checks the traced metrics in process; this test runs every workload briefly,
untraced and traced, as the benchmark does: in a child process.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["paper-both", "cdf-apg", "mc-verify"])
def test_last_line_is_a_strict_json_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    result = json.loads(last, parse_constant=reject_constant)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert [name for name, entry in result["metrics"].items()
            if not math.isfinite(entry["value"])] == []
