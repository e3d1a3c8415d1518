"""Fixed reference program that measures how fast the host is right now.

``run.py`` runs it as a child before every other pipeline command. Like a
clozerank command, it starts an interpreter, imports numpy and does
pure-Python work on dicts, strings and JSON; it uses no code of the repo,
so a change to the program cannot move its time. On a shared host the same
pipeline runs up to 50 % slower from one minute to the next, and this
program slows down with it, so the pipeline's wall time over this
program's time stays steady while both drift.
"""

import json

import numpy  # noqa: F401  (its import is part of every command's start-up)

counts, rows = {}, []
for i in range(24000):
    key = f"w{i % 997}"
    counts[key] = counts.get(key, 0) + 1
    rows.append({"k": key, "i": i})
assert json.loads(json.dumps(rows)) == rows
