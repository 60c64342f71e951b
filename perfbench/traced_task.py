"""Replay one quandles CLI command in this fresh interpreter, with spans.

    python perfbench/traced_task.py REPORT_JSON STDOUT_FILE ARG...

Times ``import quandles.cli`` (every CLI process pays it), installs the
spans of ``spans.TASK_TARGETS`` and calls ``quandles.cli.run`` with the
arguments.  Writes the command's stdout to STDOUT_FILE and the spans and
counters to REPORT_JSON, and exits with the command's exit code.
"""

from __future__ import annotations

import io
import json
import sys
import time
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    report, stdout_file, args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import quandles.cli as cli
    import_s = time.perf_counter() - start
    rec = spans.Recorder({"diagram": "pd" if "--diagram" in args else "braid"})
    spans.install(rec, spans.TASK_TARGETS, alloc=True)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(args, stdout=out, stderr=err)
    text = out.getvalue()
    Path(stdout_file).write_text(text)
    Path(report).write_text(json.dumps({
        "exit": code, "import_s": import_s, "stdout_bytes": len(text.encode()),
        "stderr": err.getvalue()[-2000:], **rec.report()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
