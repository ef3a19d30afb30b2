#!/usr/bin/env bash
# Compare two output trees of scripts/run_pipeline.py and exit 1 on any
# difference. Every artifact, the record store included, must be
# byte-identical. A manifest is compared with each tree's own path replaced
# by OUT, since it names its run directory.
#
# Usage: scripts/compare_runs.sh DIR_A DIR_B
set -euo pipefail
a=$1
b=$2
diff -r -x manifest.json "$a" "$b"
diff <(cd "$a" && find . -name manifest.json | sort) \
     <(cd "$b" && find . -name manifest.json | sort)
for f in $(cd "$a" && find . -name manifest.json | sort); do
  diff <(sed "s#$a#OUT#g" "$a/$f") <(sed "s#$b#OUT#g" "$b/$f")
done
