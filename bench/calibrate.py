"""A fixed reference task that measures how fast the machine is right now.

On a shared host the same command runs up to 1.5 times slower for tens of
seconds at a time, while CPU time tracks wall time: the host, not the
program, sets the pace. The benchmark runs this task between commands and
scales each command's time by how long the task took next to it, so the
end-to-end metrics move with the program and much less with the host.

The task mixes the kinds of work the afg commands do: small numpy matrix
products and elementwise maths of encoder size, regex tokenizing and
dictionary counting, and JSON encoding. It never touches afg, so no change
to the program changes the task.
"""

from __future__ import annotations

import json
import re
import statistics
from time import perf_counter_ns

import numpy as np

# The reference time, in ns, that a measured time is scaled to: the task's
# median on the 2-vCPU VM the benchmark was built on. Scaled times read as
# seconds on that machine at its usual speed.
NOMINAL_NS = 3_300_000
REPEATS = 3

_rng = np.random.default_rng(20230529)
_W = _rng.standard_normal((64, 128)) * 0.1
_X = _rng.standard_normal((60, 32))
_BATCH = _rng.standard_normal((64, 64))
_TEXT = " ".join(
    f"Patients in arm {i} showed a {i % 7}.{i % 10}% change (p < 0.0{i % 5 + 1})."
    for i in range(60)
)
_TOKEN = re.compile(r"[a-z]+|\d+(?:\.\d+)?|[^\sa-z\d]", re.IGNORECASE)
_DOC = {"reports": [{"submission_id": f"s{i:04d}", "mark": i % 7,
                     "labels": ["BACKGROUND", "TECHNIQUE", "OBSERVATION"] * 3,
                     "comment": _TEXT[i:i + 80]} for i in range(80)]}


def _task() -> None:
    h = np.zeros((1, 32))
    c = np.zeros((1, 32))
    for x in _X:  # one LSTM direction, step by step
        z = np.concatenate([x[None, :], h], axis=1) @ _W
        i, f, o = (1.0 / (1.0 + np.exp(-z[:, k * 32:(k + 1) * 32])) for k in range(3))
        c = f * c + i * np.tanh(z[:, 96:])
        h = o * np.tanh(c)
    g = np.tanh(_BATCH @ _W[:, :64])
    (_BATCH.T @ (1.0 - g * g)).sum()
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT.lower()):
        counts[token] = counts.get(token, 0) + 1
    json.dumps(_DOC, indent=2)


def reference_ns() -> int:
    """Median time of a few runs of the task, in ns."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        _task()
        times.append(perf_counter_ns() - t0)
    return int(statistics.median(times))
