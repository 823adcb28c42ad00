"""Smoke tests for the ``tools/`` command-line entry points.

Each CLI runs as a subprocess on a tiny point — the goal is catching
import errors, argv drift and crashed pipelines, not re-verifying the
models (unit tests own that).  Keep the points small: the whole module
should stay in the fast tier.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"


def run_tool(*argv, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE"] = "0"  # tools must not need (or pollute) a cache
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=env, timeout=timeout,
        capture_output=True, text=True,
    )


def test_diag_replay_smoke():
    # Pass 1 of this point refuses one probe; the tool must say why.
    proc = run_tool(TOOLS / "diag_replay.py", "hive", "256", "262144", "mini")
    assert proc.returncode == 0, proc.stderr
    assert "refused: signature parts differ: " in proc.stdout
    assert "ReplayStats" in proc.stdout


def test_profile_scan_smoke():
    proc = run_tool(TOOLS / "profile_scan.py", "hive", "--op", "256",
                    "--rows", "2048", "--top", "5")
    assert proc.returncode == 0, proc.stderr
    assert "cycles" in proc.stdout
    assert "cumtime" in proc.stdout  # the cProfile table printed


def test_profile_scan_no_profile_smoke():
    proc = run_tool(TOOLS / "profile_scan.py", "hmc", "--rows", "2048",
                    "--no-profile")
    assert proc.returncode == 0, proc.stderr
    assert "cycles" in proc.stdout


def test_check_kernel_identity_smoke():
    proc = run_tool(TOOLS / "check_kernel_identity.py", "1024")
    assert proc.returncode == 0, proc.stderr
    assert "identical" in proc.stdout.lower()


def test_service_cli_smoke():
    proc = run_tool(TOOLS / "service_cli.py", "--archs", "hive,hmc",
                    "--rows", "256", "--jobs", "2", "--no-cache")
    assert proc.returncode == 0, proc.stderr
    assert "submitted #" in proc.stdout
    assert "[2/2]" in proc.stdout  # both points streamed back
    assert "2 done" in proc.stdout


def test_service_cli_status_only_smoke():
    proc = run_tool(TOOLS / "service_cli.py", "--archs", "hive",
                    "--rows", "256", "--status-only", "--no-cache")
    assert proc.returncode == 0, proc.stderr
    assert "status:" in proc.stdout


def test_service_cli_cancel_after_smoke():
    proc = run_tool(TOOLS / "service_cli.py", "--archs", "hive,hmc,hipe",
                    "--rows", "256", "--jobs", "1", "--no-cache",
                    "--cancel-after", "1")
    assert proc.returncode == 0, proc.stderr
    assert "[1/3]" in proc.stdout
