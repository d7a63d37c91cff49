"""One traced op of the cli workload: a fuchskit CLI command under the tracer.

    python -X importtime perfbench/cli_child.py <fuchskit cli arguments>

Prints the command's JSON document on standard output, then one line
``perfbench-trace <json span summary>`` on standard error, and exits with
the command's exit code.  Started by the worker with PYTHONPATH set to the
checkout's src directory.
"""

import json
import sys

import fuchskit.cli

from tracer import Tracer
from workloads import TRACE_MARK


def main() -> int:
    tracer = Tracer()
    tracer.install()
    traced_main = tracer.wrap("cli.main", fuchskit.cli.main)
    tracer.active = True
    try:
        code = traced_main(sys.argv[1:])
    finally:
        tracer.active = False
        tracer.restore()
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
