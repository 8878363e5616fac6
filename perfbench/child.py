"""One fresh interpreter of the benchmark: a set-up probe or a CLI run.

    python3 perfbench/child.py --src SRC --setup CONFIG
        import brokerfee.cli and parse CONFIG, nothing else
    python3 perfbench/child.py --src SRC --result FILE [--trace] -- ARGS...
        run ``brokerfee ARGS...`` in this process and write its exit
        status, peak RSS, library versions and, when traced, the spans
        and counters to FILE as JSON

SRC is the checkout's ``src`` directory; the package must load from there,
never from an installed copy.
"""

import argparse
import json
import os
import resource
import sys


def _import_package(src):
    sys.path.insert(0, src)
    import brokerfee
    import brokerfee.cli
    origin = os.path.realpath(brokerfee.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"brokerfee loaded from {origin}, not from {src}")
    return brokerfee


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()

    brokerfee = _import_package(args.src)
    if args.setup:
        brokerfee.cli.parse_config(args.setup)
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.run_id)
        tracer.install(brokerfee)
    status = brokerfee.cli.main(args.cli_args)

    import numpy
    import scipy
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "status": status,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        record.update(run_id=tracer.run_id, spans=tracer.spans,
                      counters=tracer.counters)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
