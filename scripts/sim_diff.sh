#!/usr/bin/env bash
# sim_diff.sh <base-ref>: prove a change behaviour-neutral in simulation.
#
# Builds <base-ref> (in a temporary git worktree) and the current working
# tree, both RelWithDebInfo, runs every deterministic simulation surface on
# each, and diffs their stdout and exit codes:
#   - the paper figures F1, F3, F4a, F4b, F5-F8, Table 2 and §5.2;
#   - every bench_ablate_* except the host-timed A1 (parity_kernel) and A11
#     (obs_overhead); A7 (rebuild) is compared up to its exit code too;
#   - the SIM lines of bench_sim_scale --quick (its PERF lines are host time);
#   - every examples/* program (csar_shell with empty input);
#   - a fixed csar_shell session (create, write, scrub, repair, fail, read,
#     wipe, recover, rebuild, scrub) on 6 servers under raid4, raid5 and
#     rs(4,2); its `time` lines print the absolute simulated time and event
#     count, so a drift in the scrub's timing shows;
#   - fault_storm default, --fleet and an rs-heavy --schemes list;
#   - the repository benchmark's (perfbench/) simulated outcome: the
#     `RUN rep1` line of small_hybrid and parity_rmw at seed 1, one second,
#     untraced, with its host-timed setup_s=/run_s= fields stripped.
# Prints SAME/DIFF per surface and exits 1 if any differ. Work files live in
# a temporary directory that is removed on exit.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
base_ref=$1
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
jobs=$(nproc)

cleanup() {
  git -C "$root" worktree remove --force "$work/base-src" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$work/base-src" "$base_ref" >/dev/null

benches=(
  bench_fig1_disk_trend bench_fig3_locking bench_fig4_fullstripe
  bench_fig4_smallwrite bench_fig5_romio bench_fig6_btio_classb
  bench_fig7_btio_classc bench_fig8_apps bench_table2_storage
  bench_sec52_write_buffering
)
for src in "$root"/bench/bench_ablate_*.cpp; do
  name=$(basename "$src" .cpp)
  case $name in
    bench_ablate_parity_kernel | bench_ablate_obs_overhead) ;;  # host-timed
    *) benches+=("$name") ;;
  esac
done
examples=()
for src in "$root"/examples/*.cpp; do examples+=("$(basename "$src" .cpp)"); done

build() {  # build <src-dir> <build-dir>: every bench and example it has
  local targets=() src
  for src in "$1"/bench/bench_*.cpp "$1"/examples/*.cpp; do
    targets+=("$(basename "$src" .cpp)")
  done
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$2" -j"$jobs" --target "${targets[@]}" >/dev/null
}
build_perfbench() {  # build_perfbench <src-dir> <build-dir>, if it has one
  [[ -f "$1/perfbench/CMakeLists.txt" ]] || return 0
  cmake -S "$1/perfbench" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$2" -j"$jobs" >/dev/null
}
echo "building $base_ref and the working tree (RelWithDebInfo)..."
build "$work/base-src" "$work/base"
build "$root" "$work/head"
build_perfbench "$work/base-src" "$work/base/perfbench-build"
build_perfbench "$root" "$work/head/perfbench-build"
perfbench_workloads=(small_hybrid parity_rmw)

# run <side> <label> <binary-relative-to-build> [args...]: stdout + exit code
# into $work/out/<side>/<label>, run from a scratch cwd so stray output files
# never land in the tree. Standard input is $stdin (default: empty). A
# surface missing on one side shows as a DIFF.
run() {
  local side=$1 label=$2 bin=$3
  shift 3
  local out="$work/out/$side/$label"
  mkdir -p "$work/out/$side" "$work/cwd/$side"
  local rc=0
  (cd "$work/cwd/$side" &&
    "$work/$side/$bin" "$@" <"${stdin:-/dev/null}" >"$out" 2>/dev/null) ||
    rc=$?
  echo "exit=$rc" >>"$out"
}

shell_session=$work/shell_session.txt
cat >"$shell_session" <<'SESSION'
create f 16384
write f 0 1048576
write f 70000 5000
scrub f
time
repair f
time
fail 2
read f 0 1048576
wipe 2
recover 2
rebuild f 2
time
scrub f
read f 0 1048576
time
SESSION
shell_schemes=(raid4 raid5 'rs(4,2)')

for side in base head; do
  for b in "${benches[@]}"; do run "$side" "$b" "bench/$b"; done
  run "$side" sim_scale_quick bench/bench_sim_scale --quick \
    --out="$work/cwd/$side/quick.json"
  grep -E '^SIM|^exit=' "$work/out/$side/sim_scale_quick" \
    >"$work/out/$side/sim_scale_quick.sim"
  for e in "${examples[@]}"; do run "$side" "$e" "examples/$e"; done
  for sch in "${shell_schemes[@]}"; do
    stdin=$shell_session run "$side" "csar_shell_session_$sch" \
      examples/csar_shell 6 "$sch"
  done
  run "$side" fault_storm_fleet examples/fault_storm --fleet
  run "$side" fault_storm_rs examples/fault_storm \
    '--schemes=rs(4,2),rs(6,3),raid1,rs(4,2)'
  for w in "${perfbench_workloads[@]}"; do
    run "$side" "perfbench_$w" perfbench-build/perfbench --workload "$w" \
      --seed 1 --seconds 1 --trace 0
    grep -E '^RUN rep1:|^exit=' "$work/out/$side/perfbench_$w" |
      sed -E 's/ setup_s=[^ ]* run_s=[^ ]*//' \
        >"$work/out/$side/perfbench_$w.run"
  done
done
surfaces=("${benches[@]}" sim_scale_quick.sim "${examples[@]}"
          fault_storm_fleet fault_storm_rs)
for sch in "${shell_schemes[@]}"; do surfaces+=("csar_shell_session_$sch"); done
for w in "${perfbench_workloads[@]}"; do surfaces+=("perfbench_$w.run"); done

status=0
for s in "${surfaces[@]}"; do
  if cmp -s "$work/out/base/$s" "$work/out/head/$s"; then
    echo "SAME  $s"
  else
    echo "DIFF  $s"
    diff "$work/out/base/$s" "$work/out/head/$s" | head -n 20 || true
    status=1
  fi
done
exit $status
