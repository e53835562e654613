"""Child-process entry points of the benchmark.

    python3 perfbench/entry.py setup WORKLOAD SEED
        Import oscwit and generate the workload's inputs, then exit: the
        set-up a user pays before any work starts.
    python3 perfbench/entry.py oscwit [--trace SPANS.json] ARGS...
        Run ``oscwit ARGS...`` as the console script does; with ``--trace``
        record spans around oscwit's functions and write them on exit.

``PYTHONPATH`` must put the checkout's ``src`` first, as ``run.py`` does.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        import oscwit.cli  # noqa: F401  (every subcommand imports the whole package)
        import workloads

        workloads.make_inputs(args[0], int(args[1]))
        return 0
    if mode == "oscwit":
        import oscwit.cli

        if args[:1] != ["--trace"]:
            return oscwit.cli.main(args)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return oscwit.cli.main(args[2:])
        finally:
            tracer.uninstall()
            tracer.write(args[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
