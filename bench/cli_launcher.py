"""Run the exsquares CLI with the benchmark's span wrappers installed.

    EXSQUARES_BENCH_TRACE=PREFIX python bench/cli_launcher.py ARGS...

behaves as ``python -m exsquares.cli ARGS...`` and, at exit, writes the
spans of this process to PREFIX-<pid>.json.  Forked sweep workers write
their own file the same way.  Only the traced run starts the CLI this
way; untraced runs start ``python -m exsquares.cli`` as a user would.
"""

import os
import sys

from spans import TRACE_ENV, Tracer


def main():
    prefix = os.environ[TRACE_ENV]
    tracer = Tracer()
    import exsquares.cli
    tracer.install()
    tracer.dump_forked_children(prefix)
    try:
        code = exsquares.cli.main(sys.argv[1:])
    finally:
        tracer.dump(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main())
