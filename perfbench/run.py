"""Benchmark entry point.

    python3 perfbench/run.py --workload link-aci --seed 1 --seconds 20 --trace 0

Prints a human-readable report, an ``environment`` line and, as the last
line, one JSON result.  Exits 0 only when every output check passed; exits
2 without a result when the ``repro`` package cannot be imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

#: Pinned to 1 by :func:`main` before numpy loads, so that this process and
#: each forked pool worker use one BLAS/OpenMP thread and 2 workers do not
#: oversubscribe 2 cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("link-aci", "network-threshold", "campaign")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]
    # The benchmark measures the program's defaults: no result cache,
    # tracer, sanitizer, fault injection or engine/worker override.
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    src = _ROOT / "src"
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import repro from {src}: {error}", file=sys.stderr)
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench import harness

    if args.setup_probe:
        harness.setup_probe(args.workload, args.seed, _ROOT / ".perfbench_work" / "probe")
        return 0
    return harness.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
