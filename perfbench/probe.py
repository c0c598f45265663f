"""Speed probe: how fast this host runs a fixed piece of Python, over time.

    python3 perfbench/probe.py EVERY_S

Every EVERY_S seconds it runs one fixed work item and prints one line,
``<perf_counter> <CPU seconds of the item>``, until it is terminated. The
item is timed in the thread's own CPU time, which leaves out time spent
waiting for a core but not a core that runs slowly because of what else the
host runs. It mixes the two kinds of work eastgen's interpreter does:
small-dict and string operations that stay in the first-level cache, and
lookups spread over a dictionary of about 20 MB, which miss the caches.

``run.py`` runs it as a sibling of the measured children, not their parent,
so its memory does not count in their peak RSS.
"""

from __future__ import annotations

import sys
import time

KEYS = [f"key{i}" for i in range(200_000)]
TABLE = {key: i for i, key in enumerate(KEYS)}


def work_item() -> int:
    small: dict = {}
    for i in range(2000):
        key = f"k{i % 97}"
        small[key] = small.get(key, 0) + len(key)
    total = len(small)
    for i in range(4000):
        total += TABLE[KEYS[i * 7919 % len(KEYS)]]
    return total


def main() -> None:
    every = float(sys.argv[1])
    while True:
        time.sleep(every)
        cpu = time.thread_time()
        work_item()
        sys.stdout.write(f"{time.perf_counter()!r} {time.thread_time() - cpu!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    try:
        main()
    except (KeyboardInterrupt, BrokenPipeError):
        pass
