"""``python -m repro.experiments`` with the benchmark's layer wrappers.

Usage::

    PYTHONPATH=src python3 perfbench/traced_entry.py TRACE_DIR scenario table3a --fast

Runs the ``repro-experiments`` subcommand exactly as the untraced run
does, with every layer of :mod:`tracer` wrapped, and writes this
process's spans to ``TRACE_DIR/<pid>.json`` on exit.  Sweep-service
workers are started through this same entry, so their spans land in
the same directory.
"""

import sys

from tracer import run_traced

if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1], sys.argv[2:]))
