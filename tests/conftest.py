import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectropy

# One documented seed for every test that needs an arbitrary one, chosen
# globally so no individual assertion is tuned to a lucky draw.
HOUSE_SEED = 0


@pytest.fixture
def rng():
    return np.random.default_rng(HOUSE_SEED)


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def run_python(*args, input=None):
    # the child imports the spectropy this process imported, installed or not
    path = [str(Path(spectropy.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, input=input)
