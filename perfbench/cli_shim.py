"""Run one chshlab CLI command with its layers traced.

    python perfbench/cli_shim.py SPAN_FILE ARGS...

Behaves like `python -m chshlab.cli ARGS...` (same output, same exit
code) and also writes the spans of the import and of the command to
SPAN_FILE as a JSON list, for the traced run of the cli_session workload.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    span_file = Path(sys.argv[1])
    t0 = perf_counter()
    import chshlab.cli

    t1 = perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.spans.append(("cli.import", -1, t0, t1, True, None))
    tracer.install()
    try:
        return chshlab.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        span_file.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
