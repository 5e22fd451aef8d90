"""Run canonmat CLI commands in this process, optionally traced.

    python3 perfbench/launch.py [--trace-dir DIR] -- <canonmat arguments>
    python3 perfbench/launch.py [--trace-dir DIR] --batch FILE

Imports canonmat from the `src/` directory of the checkout this file sits
in, and calls `canonmat.cli.main` exactly as the `canonmat` script does: its
return value becomes the exit status and an uncaught exception ends the
process with a traceback and status 1.

`--batch FILE` runs every argument list of the JSON list in FILE, one after
the other, in this one process, and prints one JSON line: for each command
its exit status, stdout, stderr, wall time and time to its first write to
stdout.  An uncaught exception gives status 1 and its traceback on the
command's stderr, as the script would print it, and the batch goes on.

With `--trace-dir`, spans around canonmat's public functions (see
tracing.py) are kept in memory and written to DIR when this process, or a
pool worker forked from it, ends.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Capture:
    """A stdout for one command that notes the time of its first write."""

    def __init__(self, started: float):
        self.started = started
        self.first = None
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        if self.first is None and text:
            self.first = time.perf_counter() - self.started
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def exit_status(code) -> int:
    """The process status `sys.exit(code)` would give."""
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def run_batch(main, commands: list[list[str]]) -> list[dict]:
    results = []
    for argv in commands:
        err = io.StringIO()
        started = time.perf_counter()
        out = Capture(started)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = exit_status(main(argv, out))
            except SystemExit as exc:
                code = exit_status(exc.code)
            except Exception:
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - started
        results.append({"code": code, "out": "".join(out.parts), "err": err.getvalue(),
                        "wall_s": wall, "first_output_s": out.first})
    return results


def main() -> int:
    args = sys.argv[1:]
    trace_dir = None
    if args[:1] == ["--trace-dir"]:
        trace_dir, args = args[1], args[2:]
    batch = None
    if args[:1] == ["--batch"] and len(args) == 2:
        with open(args[1]) as fh:
            batch = json.load(fh)
    elif args[:1] != ["--"]:
        print("usage: launch.py [--trace-dir DIR] (-- <canonmat arguments> | --batch FILE)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from canonmat import cli

    cli_main = cli.main
    tracer = None
    if trace_dir is not None:
        from tracing import Tracer

        tracer = Tracer(trace_dir).install()
        tracer.follow_forks()

        def cli_main(argv, out=None):
            return tracer.call("cli.main", cli.main, (argv,), {"out": out})

    try:
        if batch is None:
            return cli_main(args[1:])
        results = run_batch(cli_main, batch)
    finally:
        if tracer is not None:
            tracer.dump()
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
