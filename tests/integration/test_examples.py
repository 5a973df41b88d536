"""The example scripts still run.

Each one drives Venus operations through ``yield from`` the way an
application would, so a change to how those operations are plumbed can
break them while every library test passes.  Every script in
``examples/`` is listed below.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples")


@pytest.mark.parametrize("name", ["quickstart", "conflict_repair",
                                  "hoard_advice", "mobile_commute",
                                  "weak_link_trickle"])
def test_example_exits_cleanly(name):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name + ".py")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip()
