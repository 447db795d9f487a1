"""Run one `juntalab` command with tracing on, for the traced cli_replay run.

    python3 perfbench/cli_child.py SPANS_JSON <juntalab arguments...>

Times the import of ``juntalab.cli`` as a span named ``cli.import``, runs
the command with the tracer installed, writes the spans to SPANS_JSON and
exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from juntalab import cli  # noqa: E402

imported = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.spans.append(["cli.import", start, imported, -1, -1, None])
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
