"""Child process: time a fresh interpreter's import of blockmonte and a few
CLI calls, optionally with every layer traced.

usage: python probe.py RESULT_JSON TRACE(0|1) ARGV_JSON [ARGV_JSON ...]

Each ARGV_JSON is one ``blockmonte`` command line as a JSON list.  The
result file gets the import and main() wall times, each call's exit code
and standard output, and with TRACE=1 the per-layer sums and spans.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    calls = [json.loads(arg) for arg in sys.argv[3:]]
    started = time.perf_counter()
    import blockmonte.cli

    imported = time.perf_counter()
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    codes, outputs = [], []
    main_started = time.perf_counter()
    for argv in calls:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            try:
                code = blockmonte.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        codes.append(code)
        outputs.append(buffer.getvalue())
    finished = time.perf_counter()
    result = {"import_s": imported - started, "main_s": finished - main_started,
              "codes": codes, "stdout": outputs}
    if tracer is not None:
        tracer.uninstall()
        result["raw"] = layers.raw_sums(tracer.spans)
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
