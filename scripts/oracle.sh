#!/usr/bin/env bash
# Refactor oracle: checks that the working tree behaves exactly like <rev>.
#
#   scripts/oracle.sh <rev> [workdir]
#
# Builds <rev> from a `git archive` copy under [workdir] (default
# $TMPDIR/fcc-oracle-<sha>; a worktree would register in this repo's .git)
# and runs both builds on every deterministic surface:
#   1. `experiments all --jobs 1`: json, metrics and stdout, plus a traced
#      quick run of e3d e13 e14;
#   2. e3x e12 e14 at --shards 1, 2, 4 and 8: json, trace, metrics, stdout;
#   3. the event count of every `bench_gate check --runs 1` scenario (wall
#      times and the gate's verdict vary with the host and are ignored);
#   4. the deterministic counters of `perfbench --trace 1` on all workloads
#      (host-time metrics and the repetition-count-dependent totals are
#      dropped).
# Stops at the first difference with exit 1 and names it; exit 0 means no
# export changed. A rerun with the same <rev> reuses the built copy. Takes
# about ten minutes on 2 cores plus the two builds.
set -euo pipefail

rev=${1:?usage: scripts/oracle.sh <rev> [workdir]}
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$rev^{commit}")
work=${2:-${TMPDIR:-/tmp}/fcc-oracle-${sha:0:12}}
# Each side builds into its own tree.
unset CARGO_TARGET_DIR

base=$work/src
if [ ! -f "$work/src.$sha" ]; then
  rm -rf "$base"
  mkdir -p "$base"
  git archive "$sha" | tar -x -C "$base"
  touch "$work/src.$sha"
fi

for src in "$base" "$root"; do
  echo "oracle: building $src" >&2
  (cd "$src"; cargo build --release --quiet -p fcc-bench --bin experiments --bin bench_gate)
done

# run_stage <stage>: runs stage_<stage> in both trees, each writing into
# its own output directory, then compares every file the stage wrote.
run_stage() {
  local stage=$1 side src out
  for side in base change; do
    src=$root
    [ "$side" = base ] && src=$base
    out=$work/$side/$stage
    rm -rf "$out"
    mkdir -p "$out"
    echo "oracle: $stage ($side)" >&2
    (cd "$src"; "stage_$stage" "$out")
  done
  local f
  for f in $(cd "$work/base/$stage" && ls); do
    if ! cmp -s "$work/base/$stage/$f" "$work/change/$stage/$f"; then
      echo "oracle: $stage/$f differs from $rev:" >&2
      diff "$work/base/$stage/$f" "$work/change/$stage/$f" | head -20 >&2 || true
      exit 1
    fi
  done
  echo "oracle: $stage identical" >&2
}

stage_experiments() {
  ./target/release/experiments all --jobs 1 --json "$1/r.json" \
    --metrics "$1/m.json" > "$1/out.txt"
  ./target/release/experiments --quick e3d e13 e14 --trace "$1/t.json" > /dev/null
}

stage_shards() {
  local s
  for s in 1 2 4 8; do
    ./target/release/experiments e3x e12 e14 --quick --shards "$s" --jobs 2 \
      --json "$1/r$s.json" --trace "$1/t$s.json" --metrics "$1/m$s.json" \
      > "$1/out$s.txt"
  done
}

stage_gate() {
  # The gate's exit code reflects wall time against the committed
  # baseline; only the per-scenario event counts are compared.
  ./target/release/bench_gate check --runs 1 --report "$1/report.json" \
    > /dev/null 2>&1 || true
  python3 - "$1/report.json" > "$1/events.txt" <<'EOF'
import json, sys
scenarios = json.load(open(sys.argv[1]))["scenarios"]
if len(scenarios) != 24:
    sys.exit(f"oracle: bench_gate reported {len(scenarios)} scenarios, not 24")
for name, s in scenarios.items():
    print(name, s["events"])
EOF
  rm "$1/report.json"
}

stage_perfbench() {
  # --seconds 10 runs the same minimum of four repetitions as --seconds 1
  # but raises run.py's per-workload time limit (3 x seconds + 60 s) above
  # what a traced serve-diurnal needs on a slow 2-vCPU host.
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1 \
    | tail -n 1 > "$1/result.json"
  python3 - "$1/result.json" > "$1/counters.txt" <<'EOF'
import json, re, sys
result = json.load(open(sys.argv[1]))
if not result["correct"]:
    sys.exit("oracle: perfbench reported a failed invariant")
host_time = re.compile(r"ns_per_event|host_share|\.phase\.|\.telemetry\.")
for name, m in sorted(result["metrics"].items()):
    if not host_time.search(name):
        print(name, repr(m["value"]))
EOF
  rm "$1/result.json"
}

run_stage experiments
run_stage shards
run_stage gate
run_stage perfbench
echo "oracle: no difference from $rev" >&2
