"""Run one ``bttest`` CLI command with the benchmark's span wrappers.

    python bench/launch.py SPANS_OUT ARG...

behaves like ``python -m bttest.cli ARG...`` (same output, same exit code)
and also writes the spans recorded in this process, including the import
of the package, as JSON to SPANS_OUT.
"""

import sys

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    idx = tracer.open("cli.import")
    import bttest.cli

    tracer.close(idx)
    tracing.install(tracer)
    try:
        return bttest.cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
