#!/usr/bin/env bash
# Build and run the repository benchmark; see benchmark/README.md.
#   benchmark/run.sh [--seed S] [--out DIR] [--smoke]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
exec python3 "$(dirname "$0")/run.py" "$@"
