"""Run one hopfcleft CLI command in this process and record its timings.

Usage: launch.py RECORD SPAWN_TIME TRACE -- CLI_ARGS...

RECORD is the JSON file written when the command ends. SPAWN_TIME is the
parent's monotonic clock reading just before it started this process. TRACE
is 1 to install the external tracer before the command runs, 0 otherwise.
The command's exit code and standard streams are left untouched.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def _stamped(callback, stamps):
    """Note the time the command body starts: set-up ends there."""

    def wrapper(*args, **kwargs):
        stamps["body"] = time.monotonic()
        return callback(*args, **kwargs)

    return wrapper


def main(argv):
    record_path, spawn, trace, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py RECORD SPAWN_TIME TRACE -- CLI_ARGS...")
    spawn = float(spawn)
    from hopfcleft import cli

    imported = time.monotonic()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    installed = time.monotonic()
    stamps = {}
    for name, command in cli.main.commands.items():
        callback = command.callback
        if tracer is not None:
            callback = tracer.span(f"cli.{name}", callback)
        command.callback = _stamped(callback, stamps)
    try:
        cli.main(args=args, prog_name="hopfcleft")
    finally:
        record = {"spawn": spawn, "start": T_START, "imported": imported,
                  "body": stamps.get("body"), "end": time.monotonic()}
        if tracer is not None:
            tracer.record("launch.interpreter", spawn, T_START)
            tracer.record("launch.import", T_START, imported)
            tracer.record("trace.install", imported, installed)
            if "body" in stamps:
                tracer.record("launch.dispatch", installed, stamps["body"])
            record["trace"] = tracer.dump()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    main(sys.argv[1:])
