"""Run one k3cone command under the layer tracer.

Usage: python3 trace_child.py STATE_FILE COMMAND [ARGS...]

The command's report goes to standard output exactly as ``python -m
k3cone.cli`` writes it, and its exit code is passed on.  The trace (spans,
per-layer figures and the time to import ``k3cone.cli``) is written to
STATE_FILE as JSON.  A process killed before it ends writes no trace.
"""

import json
import sys
import time

from layertrace import Tracer

if __name__ == "__main__":
    state_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import k3cone.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = k3cone.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        state = tracer.state()
        state["import_s"] = import_s
        with open(state_file, "w") as fh:
            json.dump(state, fh, separators=(",", ":"))
    sys.exit(code)
