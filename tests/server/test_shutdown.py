"""Graceful shutdown: SIGTERM/SIGINT drain the daemon and exit 0."""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request

import pytest

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _spawn(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--cache-db", str(tmp_path / "cache.sqlite"), *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        announce = proc.stdout.readline()
        match = re.match(r"serving on (http://\S+)", announce)
        assert match, f"no announce line, got {announce!r}"
        return proc, match.group(1)
    except Exception:
        proc.kill()
        proc.wait()
        raise


def _get(url: str, path: str) -> int:
    with urllib.request.urlopen(f"{url}{path}", timeout=5) as reply:
        reply.read()
        return reply.status


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_drains_and_exits_zero(tmp_path, signum):
    proc, url = _spawn(tmp_path)
    try:
        assert _get(url, "/healthz") == 200
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    assert "draining in-flight requests" in err
    assert re.search(r"served 1 request\(s\)", out)


def test_shutdown_flushes_metrics_snapshot(tmp_path):
    metrics_path = tmp_path / "final-metricz.json"
    proc, url = _spawn(tmp_path, "--metrics-out", str(metrics_path))
    try:
        assert _get(url, "/healthz") == 200
        assert _get(url, "/metricz") == 200
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["schema"] == "repro.server.metricz"
    assert snapshot["metrics"]["counters"]["server.requests.total"] == 2
