"""Time one fresh set-up of a workload.

    python3 bench/probe.py <workload> <work_dir> <seed>

Prints the seconds from just before ``locallearn`` is first imported to the
end of the workload's set-up.  ``run.py`` starts several of these, one
after another, and reports their median as ``setup_s``.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports numpy and locallearn)


def main(argv) -> int:
    workload, work, seed = argv[0], Path(argv[1]), int(argv[2])
    WORKLOADS[workload](workload, work, seed).setup()
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
