#!/usr/bin/env bash
# Paired A/B over perfbench: build two revisions, run one workload on
# both in alternating pairs, and report each metric's median [q1, q3] per
# side and the pairs the second revision won.
#
#   bash bench/ab.sh REV_A REV_B WORKLOAD PAIRS SECONDS [run.sh args...]
#   bash bench/ab.sh HEAD~1 HEAD trio-mixed 10 20
#   bash bench/ab.sh HEAD~1 HEAD trio-mixed 3 20 --trace 1
#
# Each revision is exported with `git archive` into its own directory
# under $AB_DIR (default: a new temporary directory) and built there by
# perfbench/run.sh, so the working tree and .git are never touched and
# uncommitted changes are not measured.  A side whose directory already
# holds its revision is kept, so a reused $AB_DIR builds incrementally.  Pair p runs seed $AB_SEED + p
# (default AB_SEED=1000) on both sides; odd pairs run A first, even
# pairs B first, so a box that drifts over the session drifts on both.
# Extra arguments go to perfbench/run.sh after --workload, --seed and
# --seconds (--trace 0 unless given).  Every run's JSON line is kept in
# $AB_DIR/runs.txt as "pair side json".
#
# A pair is won by B when its value is better in the direction
# BENCHMARK.json gives for that metric; ties count for neither side, and
# the sign-test p-value is two-sided over the pairs that were not ties.
# Metrics BENCHMARK.json does not list print without wins.  Run nothing
# else meanwhile: the replicas and the driver share the box's CPUs.
set -euo pipefail

if [ $# -lt 5 ]; then
  sed -n '2,8p' "$0" >&2
  exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=$4 seconds=$5
shift 5
extra=("$@")
case " ${extra[*]} " in *" --trace "*) ;; *) extra+=(--trace 0) ;; esac

repo=$(cd "$(dirname "$0")/.." && pwd)
seed0=${AB_SEED:-1000}
dir=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/timebounds-ab.XXXXXX")}
mkdir -p "$dir"

export_rev() { # REV DEST
  local sha
  sha=$(git -C "$repo" rev-parse --verify "$1^{commit}")
  if [ "$(cat "$2/.ab-rev" 2>/dev/null)" != "$sha" ]; then
    rm -rf "$2"
    mkdir -p "$2"
    git -C "$repo" archive "$sha" | tar -x -C "$2"
    echo "$sha" > "$2/.ab-rev"
  fi
  echo "$1 = $sha in $2" >&2
}
export_rev "$rev_a" "$dir/a"
export_rev "$rev_b" "$dir/b"

runs=$dir/runs.txt
: > "$runs"
run_side() { # SIDE PAIR
  local out
  out=$(cd "$dir/$1" && bash perfbench/run.sh --workload "$workload" \
    --seed $((seed0 + $2)) --seconds "$seconds" "${extra[@]}" 2> "$dir/$1.$2.log" |
    tail -1) || true
  case "$out" in
    "{"*) echo "$2 $1 $out" >> "$runs" ;;
    *) echo "$2 $1 {\"correct\": false, \"failed\": -1, \"metrics\": {}}" >> "$runs" ;;
  esac
  echo "pair $2 side $1: $(echo "$out" | cut -c1-60)..." >&2
}
for p in $(seq 1 "$pairs"); do
  if [ $((p % 2)) = 1 ]; then run_side a "$p"; run_side b "$p"
  else run_side b "$p"; run_side a "$p"; fi
done

# "better" per metric, from BENCHMARK.json's name/better pairs.
dirs=$(awk -F'"' '/"name":/ { n = $4 } /"better":/ { print n, $4 }' \
  "$repo/BENCHMARK.json")

echo "$workload: $rev_a (A) against $rev_b (B), $pairs pairs of $seconds s, seeds $((seed0 + 1))-$((seed0 + pairs))"
awk -v dirs="$dirs" '
  function quant(v, n, p,   pos, lo) {
    pos = p * (n - 1); lo = int(pos)
    return lo + 1 < n ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[lo]
  }
  function stats(side, m,   v, n, i, j, x) {
    n = 0
    for (i = 1; i <= npairs; i++)
      if ((i, side, m) in val) v[n++] = val[i, side, m]
    for (i = 1; i < n; i++) {  # insertion sort
      x = v[i]
      for (j = i - 1; j >= 0 && v[j] > x; j--) v[j + 1] = v[j]
      v[j + 1] = x
    }
    if (n == 0) return sprintf("%-28s", "-")
    return sprintf("%-28s", sprintf("%.4g [%.4g, %.4g]", quant(v, n, 0.5),
      quant(v, n, 0.25), quant(v, n, 0.75)))
  }
  function sign_p(w, l,   n, k, i, c, s) {
    n = w + l; k = w < l ? w : l
    if (n == 0) return 1
    c = 1; s = 0
    for (i = 0; i <= k; i++) { s += c; c = c * (n - i) / (i + 1) }
    s = 2 * s / 2 ^ n
    return s > 1 ? 1 : s
  }
  BEGIN {
    split(dirs, d, "\n")
    for (i in d) { split(d[i], nb, " "); better[nb[1]] = nb[2] }
  }
  {
    pair = $1; side = $2
    if (pair > npairs) npairs = pair
    line = $0
    ok[side] += (line ~ /"correct": true/)
    if (match(line, /"failed": -?[0-9]+/)) {
      f = substr(line, RSTART + 10, RLENGTH - 10) + 0
      if (f < 0) broken[side]++; else failed[side] += f
    }
    while (match(line, /"[a-z0-9_.]+": \{"value": [-0-9.e+]+/)) {
      s = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      split(s, q, "\"")
      m = q[2]
      sub(/.*"value": /, "", s)
      if (!(m in seen)) { seen[m] = 1; order[nm++] = m }
      val[pair, side, m] = s + 0
    }
  }
  END {
    printf "%-30s %-28s %-28s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won"
    for (k = 0; k < nm; k++) {
      m = order[k]; w = 0; l = 0; t = 0
      if (m in better) {
        for (i = 1; i <= npairs; i++) {
          if (!((i, "a", m) in val) || !((i, "b", m) in val)) continue
          a = val[i, "a", m]; b = val[i, "b", m]
          if (a == b) t++
          else if ((better[m] == "lower") == (b < a)) w++
          else l++
        }
        won = sprintf("%d/%d (%d lost, %d tied; sign test p = %.3f)", w, w + l + t, l, t, sign_p(w, l))
      } else won = "-"
      printf "%-30s %s %s %s\n", m, stats("a", m), stats("b", m), won
    }
    for (s = 0; s < 2; s++) {
      side = s ? "b" : "a"
      printf "%s: %d of %d runs correct, %d failed ops%s\n", toupper(side), ok[side],
        npairs, failed[side], broken[side] ? sprintf(", %d runs without a result", broken[side]) : ""
    }
  }' "$runs"
