"""A fixed pure-Python reference loop that measures the host's speed.

The shared host this benchmark was built on changes speed by up to 1.8x
several times a second (a neighbour's load, not this process), far more
than any bound a benchmark can hold.  Every worker runs this loop right
after `import howekit` and after each measured segment, and run.py scales
the segment's time by the loops around it, so that a slow phase of the
host cancels out.  The loop imports nothing from howekit, so a change to
the program cannot move it; its mix (tuples, dicts, small ints, calls and
generator expressions) is the interpreter work that howekit's hot loops
do.
"""

import time


def loop():
    memo = {}
    acc = 0
    for i in range(40000):
        key = (i % 101, i % 7, i % 3)
        got = memo.get(key)
        if got is None:
            got = memo[key] = sum(a * b for a, b in zip(key, (3, 2, 1)))
        acc += got
        shifted = tuple(x - 1 for x in key)
        if shifted in memo:
            acc -= 1
    return acc


def measure():
    """Wall time of one pass of the loop.  One pass is short (0.03 s at
    full speed) so that it sees the host at the same speed as the segment
    next to it."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0
