"""``quest`` with the benchmark's spans around its layer entry points.

    python traced_cli.py SPANS_FILE query --store DIR ...

Times ``import quest.cli``, installs the tracer, runs the command as
``quest`` would, and writes ``{"import_s": ..., "spans": [...]}`` to
SPANS_FILE when the command exits.  Run with ``PYTHONPATH=src``.
"""

import json
import sys
import time

import spans

t0 = time.perf_counter()
import quest.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        quest.cli.main(args=args, prog_name="quest")
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    main()
