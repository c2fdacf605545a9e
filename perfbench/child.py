"""Work the benchmark runs in a fresh interpreter.

    python3 perfbench/child.py setup <workload> <scale> <seed>
        prints the seconds taken to import repro and build what the
        workload's first iteration needs (its set-up time), with the
        workload's own path at <scale> and the others quick, scaled to
        the reference host speed (see loads.HostClock);
    python3 perfbench/child.py records <scale> <seed> <directory>
        saves the analyze path's input records under <directory>, so that
        simulating them stays out of the measuring process's memory.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    command, *args = argv
    if command == "setup":
        import loads

        workload, scale, seed = args[0], args[1], int(args[2])
        loads.CLOCK.start()
        stopwatch = loads.Stopwatch()
        import repro  # noqa: F401  (the import is part of set-up)

        for path in loads.PATHS:
            if path == workload:
                loads.build(path, scale, seed)
            else:
                loads.build(path, "quick", loads.DEFAULT_SEED)
        print(repr(stopwatch.seconds()))
        loads.CLOCK.stop()
        return 0
    if command == "records":
        import loads

        loads.make_records(args[0], int(args[1]), Path(args[2]))
        return 0
    print(f"unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
