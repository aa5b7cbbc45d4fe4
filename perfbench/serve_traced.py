"""``repro serve`` with the benchmark's span recorder installed.

Usage: ``python3 perfbench/serve_traced.py --spans OUT.json [serve args]``.
Installs the wrappers of :mod:`tracing` in this process, runs
:func:`repro.service.cli.cmd_serve` with the remaining arguments, and
writes the recorded spans to ``OUT.json`` when serving ends.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    args, serve_argv = parser.parse_known_args(argv)

    import tracing
    from repro.service.cli import cmd_serve

    rec = tracing.SpanRecorder()
    tracing.install(rec)
    try:
        return cmd_serve(serve_argv)
    finally:
        rec.uninstall()
        rec.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
