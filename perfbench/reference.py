"""A fixed reference job that gauges how fast the host runs right now.

The benchmark times this script beside the CLI commands and scales every
timing of a run by how long it took (see ``run.summarize``).  It does
the kinds of work the CLI does, without spectropy: interpreter start and
a numpy import, a pure-Python loop over dict and tuple keys like the
match-length parse, and a ``%.10g`` CSV written and read back like
``synth`` and ``load_matrix``.  It must never change: a change here
rescales every timing of the benchmark.

    python3 perfbench/reference.py
"""

import io

import numpy as np

counts = {}
for i in range(40_000):
    key = ((i * 7919) % 4096, i % 8)
    counts[key] = counts.get(key, 0) + 1

x = np.random.default_rng(1).normal(-100.0, 5.0, size=(1000, 16))
text = io.StringIO()
np.savetxt(text, x, fmt="%.10g", delimiter=",")
y = np.loadtxt(io.StringIO(text.getvalue()), delimiter=",")
if len(counts) != 4096 or not np.allclose(x, y):
    raise SystemExit("reference job computed a wrong result")
