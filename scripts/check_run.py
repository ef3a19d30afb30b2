#!/usr/bin/env python3
"""Check a run directory of scripts/run_pipeline.py.

Exits 1 unless its manifest.json has an entry for each analysis subcommand
(ingest, stats, moran, gwr, fe), every artifact the manifest records still
has its recorded sha256, and its summary.txt, written by `report`, flags no
artifact as missing or changed.

Usage:
    python3 scripts/check_run.py runs/demo/run
"""

import hashlib
import json
import sys
from pathlib import Path

SUBCOMMANDS = ("ingest", "stats", "moran", "gwr", "fe")


def main() -> int:
    run = Path(sys.argv[1])
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    problems = [f"manifest.json has no {name} entry" for name in SUBCOMMANDS
                if name not in manifest]
    problems += [f"{name} ({command}) is missing or does not match its recorded sha256"
                 for command in SUBCOMMANDS if command in manifest
                 for name, digest in manifest[command]["artifacts"].items()
                 if not (run / name).is_file()
                 or hashlib.sha256((run / name).read_bytes()).hexdigest() != digest]
    problems += [f"summary.txt flags {line}" for line in
                 (run / "summary.txt").read_text(encoding="utf-8").splitlines()
                 if line.startswith(("missing artifacts:", "changed artifacts:"))]
    for problem in problems:
        print(f"{run}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
