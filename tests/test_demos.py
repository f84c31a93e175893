"""Smoke runs of the cheap demos: each must exit 0 against the library in
src/. The slow demos (train_toy_agent, chat_session) are left out."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["history_length_trend.py", "pipeline_end_to_end.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_walkthrough_runs(tmp_path):
    # `chatdqn` and `python3` on PATH run this interpreter on src/, as an
    # installed package would
    bindir = tmp_path / "bin"
    bindir.mkdir()
    for name, args in (("chatdqn", "-m chatdqn"), ("python3", "")):
        shim = bindir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {args} "$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path),
               PATH=f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(
        ["bash", os.path.join(ROOT, "demos", "cli_walkthrough.sh")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert f"workspace: {tmp_path}{os.sep}chatdqn-cli." in proc.stdout
