"""The output contract: every command prints the same bytes on every run.

For each v1 benchmark workload, round 0 of seed 101 runs in a fresh
interpreter through ``bench/worker.py``, under two hash seeds, and the
sha256 of its ops' stdout, in op order, must equal the frozen digest (the
benchmark's ``stdout_sha256_round0``). So tier-1 depends on the v1 workloads
in ``bench/workloads.py`` staying frozen. A change that alters output on
purpose updates these constants in the same change and says why in
CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ROUND0_SHA256 = {
    "seifert-ladder": "9ed009a941b26e57aa0817e8bea35c00fdb2ceb2cdd7086a79cfe7cc32ca64f7",
    "wheel-roundtrip": "7a71d5c37687ec48e38b6f99b391322418f81d4485a86c7dae26964bc358bdd5",
    "surgery-struts": "4545793b2ea10836a2698d10373b2b0fe22d9a968e91aa1711c87a7f680498d2",
}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(ROUND0_SHA256))
def test_round0_stdout_is_frozen(workload, hash_seed, tmp_path):
    spool = tmp_path / "s.jsonl"
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
        "--seed", "101", "--src", str(ROOT / "src"), "--workdir", str(tmp_path),
        "--spool", str(spool), "--rounds", "1",
    ]
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256()
    with open(spool, encoding="utf-8") as fh:
        for line in fh:
            digest.update(json.loads(line)["out"].encode("utf-8"))
    assert digest.hexdigest() == ROUND0_SHA256[workload]
