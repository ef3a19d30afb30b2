#!/usr/bin/env bash
# Compare two output trees of scripts/run_pipeline.py and exit 1 on any
# difference. Every artifact must be byte-identical. A store is compared as
# its sorted lines, since its line order depends on the ingest threads. A
# manifest is compared with each tree's own path replaced by OUT, since it
# names its run directory.
#
# Usage: scripts/compare_runs.sh DIR_A DIR_B
set -euo pipefail
a=$1
b=$2
diff -r -x manifest.json -x store.psv "$a" "$b"
diff <(cd "$a" && find . -name manifest.json -o -name store.psv | sort) \
     <(cd "$b" && find . -name manifest.json -o -name store.psv | sort)
for f in $(cd "$a" && find . -name store.psv | sort); do
  cmp <(sort "$a/$f") <(sort "$b/$f")
done
for f in $(cd "$a" && find . -name manifest.json | sort); do
  diff <(sed "s#$a#OUT#g" "$a/$f") <(sed "s#$b#OUT#g" "$b/$f")
done
