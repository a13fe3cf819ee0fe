"""Run one stackgp CLI command with per-layer spans recorded.

    python3 bench/child.py SPANS.json <stackgp arguments...>

The spans are written to SPANS.json as a JSON list when the command returns;
the exit code is the command's. ``src`` must be on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import spans


def main(argv) -> int:
    spans_path, args = Path(argv[0]), argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import stackgp.cli
    code = stackgp.cli.main(args)
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
