"""Every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


COLLISIONS_OUT = """\
channel pool: 160 hardware contexts

808 communicators, round-robin-comm: 160 channels used, up to 6 per channel, \
1640 serialized pairs
808 communicators, hash-comm: 160 channels used, up to 7 per channel, \
1707 serialized pairs
56 endpoints, identity: 56 channels, max 1 per channel, 0 serialized pairs

creation-order: 10 collisions involve a parallelism communicator
 purpose-aware: 0 collisions involve a parallelism communicator
(the hypothetical purpose hint reserves clean channels for the communicators \
that actually need them)
"""


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr


def test_collisions_demo_output_is_pinned():
    result = run_demo(ROOT / "demos" / "demo_channel_collisions.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == COLLISIONS_OUT
