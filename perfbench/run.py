"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload forest|cycles|serve --seed N \\
        --seconds S --trace 0|1

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run that measures the
per-layer ones.  Everything runs in this one process, and the program is
driven only through its public API.  See ``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()  # before the imports that set-up time covers

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

SOURCE = Path(__file__).resolve().parent.parent / "src"

#: A run that has not finished by then is killed, with every thread's
#: stack on standard error: a hang becomes a failed run.
HARD_DEADLINE_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("forest", "cycles", "serve"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    faulthandler.dump_traceback_later(HARD_DEADLINE_S, exit=True)
    try:
        sys.path.insert(0, str(SOURCE))
        try:
            import repro
        except ImportError as exc:
            print(f"cannot import the program from {SOURCE}: {exc}", file=sys.stderr)
            return 2
        # An installed copy of the package must not stand in for the checkout's.
        if SOURCE.resolve() not in Path(repro.__file__).resolve().parents:
            print(f"imported {repro.__file__}, not the program in {SOURCE}", file=sys.stderr)
            return 2
        from report import Report

        if args.workload == "serve":
            import serve as workload
        else:
            import solves as workload
        report = Report(args.workload, bool(args.trace), time.perf_counter() - STARTED, workload.UNUSED)
        workload.run(args.workload, args.seed, args.seconds, bool(args.trace), report)
        leftover = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
        if leftover:
            report.problem(f"threads outlived the run: {leftover}")
        return report.finish()
    finally:
        faulthandler.cancel_dump_traceback_later()


if __name__ == "__main__":
    sys.exit(main())
