#!/usr/bin/env bash
# pairs.sh: does tree B beat tree A on cpu_us_per_result, by more than the
# box's noise? It runs each tree's own bench/run.sh (which builds the
# benchmark inside that checkout) at tree A's BENCHMARK.json run_seconds
# and applies the rule a claimed gain is held to:
#
#   - at least 10 pairs, after an A-vs-A pass of at least 5;
#   - B is better than A in at least 9 of every 10 pairs, run in
#     alternating order (A first in odd pairs, B first in even ones);
#   - the gap between the medians is larger than the interquartile range
#     of A's runs, and, over A's median, larger than the noise floor.
#
# The A-vs-A pass runs first: tree A against itself, pair by pair. Its
# spread (IQR over median) is the noise floor of the box at the time. A
# set with too few pairs of either kind is written with the verdict "too
# few pairs"; one that misses a win count, the IQR or the floor, with
# "not met". Each line names the rule that judged it in its "rule" field.
# It prints one table row per pair and appends the rows, quartiles and
# verdict of this run as one line of BENCH_<workload>.json at the root of
# the repository holding this script; every earlier line is kept, and a
# line's "run" counts the sets made at its seed. It edits nothing under
# bench/.
#
# Usage: pairs.sh <treeA> <treeB> [--workload W] [--seed N] [--pairs K]
#                 [--aa-pairs K]
#   defaults: campaign_real, 42, 10 pairs, as many A-vs-A pairs.
# Exit status: 0 when the rule holds, 1 when it does not, 2 on a failed run.
set -euo pipefail

usage() { sed -n '2,27p' "$0" >&2; exit 2; }
[ $# -ge 2 ] || usage
a=$(cd "$1" && pwd) b=$(cd "$2" && pwd)
shift 2
workload=campaign_real seed=42 pairs=10 aa=
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --aa-pairs) aa=$2 ;;
    *) usage ;;
  esac
  shift 2
done
aa=${aa:-$pairs}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/BENCH_$workload.json"

metric=cpu_us_per_result
# better is "lower" or "higher", as BENCHMARK.json declares the metric;
# seconds is its run_seconds.
better=$(awk -v m="\"$metric\"" '$0 ~ "\"name\": " m { hit = 1 }
  hit && /"better":/ { gsub(/[",]/, "", $2); print $2; exit }' "$a/BENCHMARK.json")
seconds=$(awk '/"run_seconds":/ { gsub(/[",]/, "", $2); print $2; exit }' "$a/BENCHMARK.json")
[ -n "$better" ] && [ -n "$seconds" ] || { echo "pairs: no $metric or run_seconds in $a/BENCHMARK.json" >&2; exit 2; }

# run prints the metrics object of one run of tree $1.
run() {
  local line
  line=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
  case "$line" in
    '{"correct":true,'*) ;;
    *) echo "pairs: a run of $1 failed: $line" >&2; exit 2 ;;
  esac
  line=${line#*\"metrics\":}
  echo "${line%\}}"
}

# value prints one metric's value from a metrics object.
value() { grep -o "\"$2\":{\"value\":[^,}]*" <<<"$1" | sed 's/.*://'; }

# stats reads numbers, one a line, and prints their median, first and
# third quartiles (linear interpolation between order statistics).
stats() {
  sort -g | awk '{ v[NR] = $1 }
    function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
    END { v[NR + 1] = v[NR]; printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

rows= aavals= avals= bvals= wins=0 aawins=0
printf '%s seed %s, %s (%s is better), %s s a run\n' "$workload" "$seed" "$metric" "$better" "$seconds"
printf '%-6s %-5s %14s %14s %9s  %s\n' pass pair A B B/A-1 first
for ((i = 1; i <= aa + pairs; i++)); do
  pass=AB k=$((i - aa)) second=$b
  if ((i <= aa)); then pass=AA k=$i second=$a; fi
  if ((k % 2)); then
    first=A
    ma=$(run "$a")
    mb=$(run "$second")
  else
    first=B
    mb=$(run "$second")
    ma=$(run "$a")
  fi
  va=$(value "$ma" "$metric") vb=$(value "$mb" "$metric")
  win=$(awk -v a="$va" -v b="$vb" -v better="$better" 'BEGIN { print (better == "lower" ? b < a : b > a) }')
  gap=$(awk -v a="$va" -v b="$vb" 'BEGIN { printf "%+.1f%%", (b / a - 1) * 100 }')
  printf '%-6s %-5s %14s %14s %9s  %s\n' "$pass" "$k" "$va" "$vb" "$gap" "$first"
  rows+="${rows:+,}{\"pass\":\"$pass\",\"pair\":$k,\"first\":\"$first\",\"a\":$ma,\"b\":$mb}"
  if [ "$pass" = AA ]; then
    aavals+="$va"$'\n'"$vb"$'\n' aawins=$((aawins + win))
  else
    avals+="$va"$'\n' bvals+="$vb"$'\n' wins=$((wins + win))
  fi
done

read -r amed aq1 aq3 <<<"$(printf '%s' "$avals" | stats)"
read -r bmed bq1 bq3 <<<"$(printf '%s' "$bvals" | stats)"
floor=null
if ((aa > 0)); then
  read -r fmed fq1 fq3 <<<"$(printf '%s' "$aavals" | stats)"
  floor=$(awk -v m="$fmed" -v q1="$fq1" -v q3="$fq3" 'BEGIN { printf "%.4g", (q3 - q1) / m }')
fi
rule="at least 10 pairs after at least 5 A-vs-A pairs; B better in at least 9 of 10; median gap above A's IQR and, over A's median, above the A-vs-A IQR/median"
verdict=$(awk -v a="$amed" -v b="$bmed" -v q1="$aq1" -v q3="$aq3" -v w="$wins" -v k="$pairs" -v aa="$aa" -v floor="$floor" -v better="$better" '
  BEGIN {
    if (k < 10 || aa < 5) { print "too few pairs"; exit }
    gap = (better == "lower" ? a - b : b - a)
    print (w * 10 >= 9 * k && gap > q3 - q1 && gap / a > floor) ? "met" : "not met"
  }')
printf '\nA median %s (IQR %s..%s), B median %s (IQR %s..%s): %+.1f%%\n' "$amed" "$aq1" "$aq3" "$bmed" "$bq1" "$bq3" \
  "$(awk -v a="$amed" -v b="$bmed" 'BEGIN { print (b / a - 1) * 100 }')"
printf 'B better in %d of %d pairs; A-vs-A: second run better in %d of %d, IQR/median %s (the noise floor)\n' \
  "$wins" "$pairs" "$aawins" "$aa" "$floor"
printf 'claim %s\n' "$verdict"

# A tree is named by its commit, or by its directory when not a checkout.
name() { git -C "$1" describe --always --dirty 2>/dev/null || basename "$1"; }
earlier=
[ -f "$out" ] && earlier=$(grep '^{"seed":' "$out" | sed 's/,$//' || true)
n=$(grep -c "^{\"seed\":$seed," <<<"$earlier" || true)
set="{\"seed\":$seed,\"run\":$((n + 1)),\"metric\":\"$metric\",\"better\":\"$better\",\"seconds\":$seconds,\"tree_a\":\"$(name "$a")\",\"tree_b\":\"$(name "$b")\","
set+="\"a\":{\"median\":$amed,\"q1\":$aq1,\"q3\":$aq3},\"b\":{\"median\":$bmed,\"q1\":$bq1,\"q3\":$bq3},"
set+="\"wins\":$wins,\"pairs\":$pairs,\"aa_pairs\":$aa,\"aa_second_better\":$aawins,\"aa_iqr_over_median\":$floor,"
set+="\"rule\":\"$rule\",\"verdict\":\"$verdict\",\"rows\":[$rows]}"
{
  printf '{"workload":"%s","sets":[\n' "$workload"
  printf '%s\n' "$earlier" "$set" | grep . | sed '$!s/$/,/'
  printf ']}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out"
[ "$verdict" = met ]
