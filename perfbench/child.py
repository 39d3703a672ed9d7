"""Fresh-interpreter helpers the benchmark times from outside.

    python3 perfbench/child.py setup FILE...   import boxipm, parse and validate each file
    python3 perfbench/child.py solve FILE MODE solve one box problem, print its wall time

Both import ``boxipm`` from the checkout's ``src/`` and nowhere else.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_boxipm():
    """Import ``boxipm`` from ``src/`` of this checkout, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import boxipm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import boxipm from {src}: {exc}")
    if Path(boxipm.__file__).resolve().parent != src / "boxipm":
        sys.exit(f"perfbench: boxipm was imported from {boxipm.__file__}, not from {src}")
    return boxipm


def load(boxipm, text):
    pf = boxipm.parse_problem(text)
    return pf.to_boxqp() if pf.kind == "box" else pf.to_standardqp()


def main(argv):
    boxipm = import_boxipm()
    if argv[0] == "setup":
        for path in argv[1:]:
            load(boxipm, Path(path).read_text())
    elif argv[0] == "solve":
        p = load(boxipm, Path(argv[1]).read_text())
        t0 = time.perf_counter()
        report = boxipm.solve(p, mode=argv[2])
        wall = time.perf_counter() - t0
        print(json.dumps({"wall_s": wall, "linear_solves": report.linear_solves}))
    else:
        sys.exit(f"perfbench child: unknown command {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
