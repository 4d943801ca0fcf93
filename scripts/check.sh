#!/usr/bin/env bash
# Tier-1 verification: build + full test suite, once normally and once each
# under AddressSanitizer and UndefinedBehaviorSanitizer
# (DSPROF_SANITIZE=address / undefined), serve_test, obs_test and
# analyze_test once under ThreadSanitizer (DSPROF_SANITIZE=thread: the
# dsprofd session threads, the obs shards and the Analysis reduction lock),
# plus these static/dynamic gates:
#   - the stress gate: the tests that write files or pin the simulator
#     (ExperimentCorruption/AlignedCorruption/StoreRoundTrip, Memory, Cache,
#     SimDigest) run three times over at ctest -j$(nproc), so a race between
#     tests running side by side, or a simulator change that is not bit-exact,
#     cannot pass by luck;
#   - clang-tidy over src/sa/, src/opt/, src/collect/, src/machine/,
#     src/obs/, src/serve/, src/experiment/ and src/analyze/ (skipped with a
#     notice when clang-tidy is not installed — the reference container does
#     not ship it); src/sa/, src/opt/, src/collect/, src/machine/ and
#     src/serve/ additionally run with WarningsAsErrors on;
#   - `s3verify all`, which lints every built-in compiled image and exits
#     nonzero on any error-severity diagnostic, plus the attribution-coverage
#     floor: every hwcprof built-in image must have >= 90% of its reachable
#     memory ops statically attributable;
#   - the cli-docs gate: docs/CLI.md flag tables must match each binary's
#     live --help output in both directions;
#   - the wire-docs gate: docs/WIRE.md must document every frame type
#     src/serve/wire.hpp declares (and nothing it does not), carry the same
#     protocol version as kWireVersion, and list a history row for every
#     version up to it — in both directions, so neither file drifts;
#   - the dsprofd smoke gate: spawn the daemon on a temp Unix socket, stream a
#     live MCF collect run into it with dsprof_send, and require the streamed
#     snapshot to be byte-identical to `er_print <saved-dir> -J` over the same
#     events (the serve subsystem's central invariant, end to end over real
#     processes and a real socket);
#   - the fleet smoke gate: spawn the daemon on a TCP loopback port, stream
#     three concurrent collect sessions into it, and require the merged
#     fleet view to be byte-identical to offline multi-dir
#     `er_print dir1 dir2 dir3 -J` over the three saved directories (the
#     cross-session extension of the same invariant);
#   - the er_opt smoke gate: run the closed feedback loop on the builtin
#     mcf-small workload and require a positive end-to-end speedup plus a
#     positive, sampling-significant User-CPU delta (the optimizer must
#     actually improve the program it claims to improve);
#   - the mpx smoke gate: list_counters --json must advertise the PIC
#     constraints, and the er_opt loop profiled through a 4-counter
#     time-multiplexed spec must still find a positive speedup
#     (bench/multiplex holds the +/-5% renormalization-accuracy bar).
# Usage:
#
#   scripts/check.sh            # every build pass + all gates + benches
#   scripts/check.sh --fast     # normal pass + gates only
#   scripts/check.sh --asan     # ASan pass only
#   scripts/check.sh --bench    # benchmark sweep only (BENCH_*.json)
#
# The UBSan and TSan passes run only in the full sweep; by hand they are
#   cmake -B build-ubsan -S . -DDSPROF_SANITIZE=undefined && cmake --build build-ubsan
#   ctest --test-dir build-ubsan -j$(nproc)
#   cmake -B build-tsan -S . -DDSPROF_SANITIZE=thread
#   cmake --build build-tsan --target serve_test obs_test analyze_test
#   build-tsan/tests/serve_test && build-tsan/tests/obs_test && build-tsan/tests/analyze_test
#
# Exits nonzero on the first failing step.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
mode="${1:-all}"

run_pass() {
  local name="$1" dir="$2"
  shift 2
  echo "== ${name}: configure + build (${dir}) =="
  cmake -B "${dir}" -S "${repo}" "$@"
  cmake --build "${dir}" -j "${jobs}"
  echo "== ${name}: ctest =="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

# ThreadSanitizer pass over the multi-threaded subsystems: the dsprofd
# sessions (reader + reducer threads, merged snapshots across sessions), the
# obs shards, and Analysis readers racing on the lazy reduction
# (analyze_test's ConcurrentReaders tests). The rest of the tree is
# single-threaded or covered by the reduction's bit-identity tests, and TSan
# makes the simulator-heavy tests too slow to run whole.
run_tsan() {
  local dir="$1"
  echo "== tsan: configure + build serve_test, obs_test, analyze_test (${dir}) =="
  cmake -B "${dir}" -S "${repo}" -DDSPROF_SANITIZE=thread
  cmake --build "${dir}" -j "${jobs}" --target serve_test obs_test analyze_test
  echo "== tsan: serve_test, obs_test, analyze_test =="
  "${dir}/tests/serve_test"
  "${dir}/tests/obs_test"
  "${dir}/tests/analyze_test"
}

# Stress gate: repeat the file-writing and simulator-pinning tests at full
# parallelism. ctest runs each TEST as its own process, so tests sharing a
# path race only when scheduled side by side; three rounds at -j$(nproc)
# make that schedule near certain.
run_stress() {
  local dir="$1"
  echo "== stress: file-writing and simulator-digest tests, 3 rounds at -j${jobs} =="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" --repeat until-fail:3 \
    -R 'Experiment|Aligned|Store|Memory|Cache|SimDigest'
}

# clang-tidy over the static-analysis, layout-optimizer, collect, machine,
# obs, serve, experiment and analyze subsystems (the code on the zero-copy
# fast path and the profiling hot paths, held to the strictest bar). Graceful
# skip when the tool is absent; any emitted "error:" diagnostic fails the
# script. src/sa/, src/opt/, src/collect/, src/machine/ and src/serve/ — the
# static analyses, the feedback optimizer, the multiplexing collector/CPU
# pair, and the fleet daemon — run with WarningsAsErrors on; the broader tree
# keeps warnings advisory so it can adopt the profile incrementally (ROADMAP).
run_tidy() {
  local dir="$1"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "== tidy: clang-tidy not installed; skipping (install it or use -DDSPROF_TIDY=ON) =="
    return 0
  fi
  echo "== tidy: clang-tidy over src/sa/, src/opt/, src/collect/, src/machine/," \
       "src/serve/ (warnings-as-errors), src/obs/, src/experiment/, src/analyze/ =="
  cmake -B "${dir}" -S "${repo}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p "${dir}" --quiet --warnings-as-errors='*' \
    "${repo}"/src/sa/*.cpp "${repo}"/src/opt/*.cpp \
    "${repo}"/src/collect/*.cpp "${repo}"/src/machine/*.cpp "${repo}"/src/serve/*.cpp
  clang-tidy -p "${dir}" --quiet "${repo}"/src/obs/*.cpp \
    "${repo}"/src/experiment/*.cpp "${repo}"/src/analyze/*.cpp
}

# Static verification of every built-in compiled image (CFG + hwcprof lint +
# backtrack-table build); s3verify exits nonzero on error diagnostics. Then
# the attribution-coverage floor: every hwcprof image must have >= 90% of its
# reachable memory ops classified statically attributable (the dataflow
# coverage proof — a drop below means codegen started emitting patterns the
# profiler cannot attribute).
run_s3verify() {
  local dir="$1"
  echo "== s3verify: lint all built-in images =="
  cmake --build "${dir}" -j "${jobs}" --target s3verify
  "${dir}/examples/s3verify" all
  echo "== s3verify: attribution-coverage floor (>= 90% on hwcprof images) =="
  local line name frac ok=1
  while IFS= read -r line; do
    grep -q '"hwcprof":true' <<<"${line}" || continue
    name="$(grep -oE '"name":"[^"]+"' <<<"${line}" | head -1 | cut -d'"' -f4)"
    frac="$(grep -oE '"fraction":[0-9.eE+-]+' <<<"${line}" | head -1 | cut -d: -f2)"
    if [[ -z "${frac}" ]]; then
      echo "s3verify coverage FAILED: ${name:-?}: no coverage fraction in JSON"; ok=0
      continue
    fi
    if awk -v f="${frac}" 'BEGIN { exit (f + 0 >= 0.90) ? 0 : 1 }'; then
      echo "s3verify coverage: ${name} ${frac} attributable"
    else
      echo "s3verify coverage FAILED: ${name} fraction ${frac} < 0.90"; ok=0
    fi
  done < <("${dir}/examples/s3verify" --json all)
  [[ ${ok} -eq 1 ]] || return 1
}

# Benchmark sweep: every bench/ target supports --json <path> (bench_json.hpp
# contract) and is collected as BENCH_<name>.json at the repo root;
# bench/obs_overhead doubles as the self-observability acceptance gate (< 3%
# enabled-instrumentation overhead on the reduce and ingest hot paths) and
# writes BENCH_obs.json. Benches with built-in acceptance bars (pipeline,
# backtrack, ingest floor, obs) fail the script through their exit codes.
run_bench() {
  local dir="$1"
  local plain=(fig1_total_metrics fig2_function_list fig3_annotated_source
    fig4_annotated_disasm fig5_hot_pcs fig6_data_objects fig7_node_expansion
    opt_speedups overhead_hwcprof effectiveness ablation_padding ablation_skid
    prefetch_feedback address_views instance_view pipeline_throughput
    backtrack_table ingest_throughput fleet_load dataflow multiplex)
  echo "== bench: run every bench target, collect BENCH_*.json =="
  cmake --build "${dir}" -j "${jobs}" --target "${plain[@]}" bench_er_opt obs_overhead micro_sim
  local b log
  log="$(mktemp)"
  for b in "${plain[@]}"; do
    echo "-- bench: ${b} --"
    "${dir}/bench/${b}" --json "${repo}/BENCH_${b}.json" >"${log}" 2>&1 \
      || { echo "bench ${b} FAILED"; cat "${log}"; rm -f "${log}"; return 1; }
    tail -1 "${log}"
  done
  # er_opt's bench binary is built as target bench_er_opt (the name er_opt
  # belongs to the example); it carries its own acceptance bars — auto plan
  # within 2% of the hand-tuned churn fix, significant mcf-small improvement.
  echo "-- bench: er_opt --"
  "${dir}/bench/er_opt" --json "${repo}/BENCH_er_opt.json" >"${log}" 2>&1 \
    || { echo "bench er_opt FAILED"; cat "${log}"; rm -f "${log}"; return 1; }
  tail -1 "${log}"
  echo "-- bench: obs_overhead --"
  "${dir}/bench/obs_overhead" --json "${repo}/BENCH_obs.json" >"${log}" 2>&1 \
    || { echo "bench obs_overhead FAILED"; cat "${log}"; rm -f "${log}"; return 1; }
  tail -1 "${log}"
  echo "-- bench: micro_sim --"
  "${dir}/bench/micro_sim" --json "${repo}/BENCH_micro_sim.json" >"${log}" 2>&1 \
    || { echo "bench micro_sim FAILED"; cat "${log}"; rm -f "${log}"; return 1; }
  rm -f "${log}"
  echo "bench: $(ls "${repo}"/BENCH_*.json | wc -l) BENCH_*.json files collected"
}

# docs/CLI.md drift gate: every flag a binary advertises in --help must be
# documented in that binary's section of docs/CLI.md, and every flag the
# section documents must exist in --help. Help flag lines are formatted
# "  --flag ..." by convention; doc flags are the backticked table rows.
run_cli_docs() {
  local dir="$1"
  echo "== cli-docs: docs/CLI.md vs live --help =="
  cmake --build "${dir}" -j "${jobs}" --target er_print er_opt s3verify dsprofd \
    dsprof_send list_counters
  local bin section flag ok=1
  for bin in er_print er_opt s3verify dsprofd dsprof_send list_counters; do
    section="$(awk "/^## ${bin}\$/{f=1;next} /^## /{f=0} f" "${repo}/docs/CLI.md")"
    [[ -n "${section}" ]] || { echo "cli-docs: no '## ${bin}' section in docs/CLI.md"; ok=0; continue; }
    while read -r flag; do
      grep -qF "\`${flag}" <<<"${section}" \
        || { echo "cli-docs: ${bin}: ${flag} in --help but not in docs/CLI.md"; ok=0; }
    done < <("${dir}/examples/${bin}" --help 2>&1 \
               | grep -oE '^ +-{1,2}[A-Za-z][A-Za-z0-9_-]*' | tr -d ' ' | sort -u)
    while read -r flag; do
      "${dir}/examples/${bin}" --help 2>&1 | grep -qE "^ +${flag}([ ,<]|\$)" \
        || { echo "cli-docs: ${bin}: ${flag} documented but absent from --help"; ok=0; }
    done < <(grep -oE '^\| `-{1,2}[A-Za-z][A-Za-z0-9_-]*' <<<"${section}" \
               | sed 's/^| `//' | sort -u)
  done
  [[ ${ok} -eq 1 ]] || return 1
  echo "cli-docs: flag lists match --help for all six binaries"
}

# docs/WIRE.md drift gate: the wire-protocol reference must agree with
# src/serve/wire.hpp in both directions. Frame tags: every FrameType the
# enum declares must have a row in WIRE.md's frame table, and every frame
# the table documents must exist in the enum. Versions: the "current
# protocol version is **N**" sentence must match kWireVersion, the history
# table must carry a row for every version v1..vN, and no row beyond vN.
run_wire_docs() {
  echo "== wire-docs: docs/WIRE.md vs src/serve/wire.hpp =="
  local hpp="${repo}/src/serve/wire.hpp" doc="${repo}/docs/WIRE.md" ok=1
  local enum_names doc_names name
  enum_names="$(awk '/^enum class FrameType/{f=1;next} f && /^};/{exit} f' "${hpp}" \
                  | grep -oE '^  [A-Za-z]+' | tr -d ' ' | sort -u)"
  doc_names="$(grep -oE '^\| `[A-Za-z]+` \|' "${doc}" | grep -oE '[A-Za-z]+' | sort -u)"
  [[ -n "${enum_names}" ]] || { echo "wire-docs: no FrameType enum found in wire.hpp"; return 1; }
  [[ -n "${doc_names}" ]] || { echo "wire-docs: no frame table rows found in WIRE.md"; return 1; }
  while read -r name; do
    grep -qx "${name}" <<<"${doc_names}" \
      || { echo "wire-docs: frame '${name}' in wire.hpp but not in WIRE.md's frame table"; ok=0; }
  done <<<"${enum_names}"
  while read -r name; do
    grep -qx "${name}" <<<"${enum_names}" \
      || { echo "wire-docs: frame '${name}' documented in WIRE.md but absent from wire.hpp"; ok=0; }
  done <<<"${doc_names}"

  local ver doc_ver hist_max i
  ver="$(grep -oE 'kWireVersion = [0-9]+' "${hpp}" | grep -oE '[0-9]+')"
  doc_ver="$(grep -oE 'current protocol version is \*\*[0-9]+\*\*' "${doc}" | grep -oE '[0-9]+')"
  if [[ -z "${ver}" || -z "${doc_ver}" || "${ver}" != "${doc_ver}" ]]; then
    echo "wire-docs: version mismatch (wire.hpp kWireVersion=${ver:-?}, WIRE.md says ${doc_ver:-?})"
    ok=0
  fi
  for ((i = 1; i <= ${ver:-0}; i++)); do
    grep -q "^| v${i} |" "${doc}" \
      || { echo "wire-docs: WIRE.md history table lacks a row for v${i}"; ok=0; }
  done
  hist_max="$(grep -oE '^\| v[0-9]+ \|' "${doc}" | grep -oE '[0-9]+' | sort -n | tail -1)"
  if [[ -n "${hist_max}" && -n "${ver}" && "${hist_max}" -gt "${ver}" ]]; then
    echo "wire-docs: WIRE.md history documents v${hist_max} beyond kWireVersion=${ver}"
    ok=0
  fi
  grep -q 'kSnapshotMergedFlag' "${doc}" \
    || { echo "wire-docs: WIRE.md does not document kSnapshotMergedFlag"; ok=0; }
  [[ ${ok} -eq 1 ]] || return 1
  echo "wire-docs: WIRE.md matches wire.hpp ($(wc -l <<<"${enum_names}") frames, version ${ver})"
}

# Fleet smoke gate: the cross-session extension of the central invariant,
# end to end over real processes and a real TCP socket. A daemon on an
# ephemeral loopback port (discovered from its readiness line) takes three
# concurrent collect sessions under the Block policy (nothing may drop);
# afterwards a monitoring client's merged fleet view must be byte-identical
# to offline multi-dir `er_print exp1 exp2 exp3 -J` over the directories
# the same three sessions saved.
run_fleet_smoke() {
  local dir="$1"
  echo "== fleet smoke: merged TCP fleet view vs offline multi-dir er_print -J =="
  cmake --build "${dir}" -j "${jobs}" --target dsprofd dsprof_send er_print
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  "${dir}/examples/dsprofd" --listen tcp://127.0.0.1:0 --policy block \
    >"${tmp}/daemon.log" 2>&1 &
  local daemon_pid=$!
  local uri=""
  for _ in $(seq 1 100); do
    uri="$(grep -oE 'tcp://[0-9.]+:[0-9]+' "${tmp}/daemon.log" | head -1 || true)"
    [[ -n "${uri}" ]] && break
    sleep 0.05
  done
  [[ -n "${uri}" ]] || { echo "fleet smoke FAILED: no readiness line from dsprofd"
                         cat "${tmp}/daemon.log"; kill "${daemon_pid}" 2>/dev/null; return 1; }

  local i send_pids=()
  for i in 1 2 3; do
    "${dir}/examples/dsprof_send" --connect "${uri}" --workload mcf-small \
      --save "${tmp}/exp${i}" >"${tmp}/send${i}.log" 2>&1 &
    send_pids+=($!)
  done
  local failed=0
  for i in 1 2 3; do
    wait "${send_pids[$((i - 1))]}" \
      || { echo "fleet smoke FAILED: dsprof_send session ${i} exited nonzero"
           cat "${tmp}/send${i}.log"; failed=1; }
  done
  [[ ${failed} -eq 0 ]] || { kill "${daemon_pid}" 2>/dev/null; return 1; }

  "${dir}/examples/dsprof_send" --connect "${uri}" --merged \
    --report "${tmp}/merged.json" >"${tmp}/merged.log" 2>&1 \
    || { echo "fleet smoke FAILED: merged fetch exited nonzero"
         cat "${tmp}/merged.log"; kill "${daemon_pid}" 2>/dev/null; return 1; }

  # Graceful stop: the daemon checks its own accounting invariant on the way
  # out and exits nonzero if it broke.
  kill "${daemon_pid}"
  wait "${daemon_pid}" \
    || { echo "fleet smoke FAILED: dsprofd exited nonzero (accounting broke)"
         cat "${tmp}/daemon.log"; return 1; }

  "${dir}/examples/er_print" "${tmp}/exp1" "${tmp}/exp2" "${tmp}/exp3" -J \
    >"${tmp}/offline.json"
  if ! diff -q "${tmp}/merged.json" "${tmp}/offline.json" >/dev/null; then
    echo "fleet smoke FAILED: merged fleet view differs from offline multi-dir report"
    diff "${tmp}/merged.json" "${tmp}/offline.json" | head -20
    return 1
  fi
  echo "fleet smoke: merged view of 3 TCP sessions is byte-identical to er_print exp1 exp2 exp3 -J"
}

# Multiplexing smoke gate: more than two counters must time-slice end to end.
# list_counters --json has to advertise the per-counter PIC constraints the
# set partitioner honors, and the er_opt closed loop profiled through a
# 4-counter multiplexed spec (three sets on this machine) must still finish
# and find a positive end-to-end speedup — the renormalized profile has to be
# good enough to steer the optimizer. bench/multiplex holds the tighter
# +/-5% accuracy bar in the bench sweep.
run_mpx_smoke() {
  local dir="$1"
  echo "== mpx smoke: 4-counter multiplexed profile must drive the er_opt loop =="
  cmake --build "${dir}" -j "${jobs}" --target er_opt list_counters
  local counters out speedup
  counters="$("${dir}/examples/list_counters" --json)" \
    || { echo "mpx smoke FAILED: list_counters --json exited nonzero"; return 1; }
  for field in '"pic_mask":' '"multiplexable":' '"skid_min":'; do
    grep -qF "${field}" <<<"${counters}" \
      || { echo "mpx smoke FAILED: list_counters --json lacks ${field}"; return 1; }
  done
  out="$("${dir}/examples/er_opt" --run --workload mcf-small \
           --hw "cycles,100003,+ecstall,on,+ecrm,on,+dtlbm,on" -J)" \
    || { echo "mpx smoke FAILED: er_opt loop over multiplexed profile exited nonzero"; return 1; }
  speedup="$(grep -oE '"speedup_pct":-?[0-9.]+' <<<"${out}" | head -1 | cut -d: -f2)"
  if [[ -z "${speedup}" ]] || ! awk -v s="${speedup}" 'BEGIN { exit (s + 0 > 0) ? 0 : 1 }'; then
    echo "mpx smoke FAILED: speedup_pct '${speedup:-missing}' not positive"
    echo "${out}" | tail -1
    return 1
  fi
  echo "mpx smoke: multiplexed 4-counter loop speedup ${speedup}%"
}

# er_opt smoke gate: the closed feedback loop on the builtin mcf-small
# workload must produce a positive end-to-end speedup AND a positive,
# sampling-significant User-CPU delta. This is the optimizer's contract — a
# plan that does not move the total metric is a regression even if every
# stage "worked".
run_er_opt_smoke() {
  local dir="$1"
  echo "== er_opt smoke: closed loop on mcf-small must significantly improve ucpu =="
  cmake --build "${dir}" -j "${jobs}" --target er_opt
  local out ucpu speedup
  out="$("${dir}/examples/er_opt" --run --workload mcf-small -J)" \
    || { echo "er_opt smoke FAILED: loop exited nonzero"; return 1; }
  speedup="$(grep -oE '"speedup_pct":-?[0-9.]+' <<<"${out}" | head -1 | cut -d: -f2)"
  ucpu="$(grep -oE '\{"metric":"ucpu"[^}]*\}' <<<"${out}" | head -1)"
  if [[ -z "${speedup}" || -z "${ucpu}" ]]; then
    echo "er_opt smoke FAILED: no speedup_pct / ucpu delta in -J output"
    echo "${out}" | tail -1
    return 1
  fi
  if ! awk -v s="${speedup}" 'BEGIN { exit (s + 0 > 0) ? 0 : 1 }'; then
    echo "er_opt smoke FAILED: speedup_pct ${speedup} not positive"
    return 1
  fi
  if ! grep -qE '"delta_pct":[0-9.]+.*"significant":true' <<<"${ucpu}"; then
    echo "er_opt smoke FAILED: ucpu delta not positive+significant: ${ucpu}"
    return 1
  fi
  echo "er_opt smoke: mcf-small speedup ${speedup}%, ucpu delta significant"
}

# End-to-end dsprofd smoke gate over a real Unix-domain socket: the streamed
# snapshot of a live collect run must be byte-identical to the offline
# er_print -J report of the experiment directory the same run saved, and the
# two obs self-profiles must agree on event counts.
run_dsprofd_smoke() {
  local dir="$1"
  echo "== dsprofd smoke: streamed snapshot vs offline er_print -J =="
  cmake --build "${dir}" -j "${jobs}" --target dsprofd dsprof_send er_print
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local sock="${tmp}/dsprofd.sock"

  "${dir}/examples/dsprofd" --socket "${sock}" --once >"${tmp}/daemon.log" 2>&1 &
  local daemon_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "${sock}" ]] && break
    sleep 0.05
  done
  [[ -S "${sock}" ]] || { echo "dsprofd did not come up"; cat "${tmp}/daemon.log"; return 1; }

  "${dir}/examples/dsprof_send" --socket "${sock}" --workload mcf-small \
    --save "${tmp}/exp" --report "${tmp}/online.json" >"${tmp}/send.log" 2>&1 \
    || { echo "dsprof_send failed"; cat "${tmp}/send.log"; return 1; }
  wait "${daemon_pid}" \
    || { echo "dsprofd exited nonzero (accounting broke)"; cat "${tmp}/daemon.log"; return 1; }

  "${dir}/examples/er_print" "${tmp}/exp" -J >"${tmp}/offline.json"
  if ! diff -q "${tmp}/online.json" "${tmp}/offline.json" >/dev/null; then
    echo "dsprofd smoke FAILED: streamed snapshot differs from offline report"
    diff "${tmp}/online.json" "${tmp}/offline.json" | head -20
    return 1
  fi
  echo "dsprofd smoke: streamed snapshot is byte-identical to er_print -J"

  # Obs cross-check: the daemon's self-profile (Stats frame, in daemon.log)
  # and an offline er_print -O -J over the saved directory must agree on
  # event counts — offline folds every saved event, the daemon folded all it
  # did not drop, so offline == daemon_folded + daemon_dropped.
  local pick='grep -oE "\"reduce.events.folded\":[0-9]+" | head -1 | cut -d: -f2'
  local daemon_folded daemon_dropped offline_folded
  daemon_folded="$(eval "${pick}" <"${tmp}/daemon.log")"
  # Counters appear in a snapshot once registered; a drop-free run may not
  # have touched serve.events.dropped at all — treat absent as zero. The
  # grep legitimately matches nothing then, so shield it from pipefail.
  daemon_dropped="$(grep -oE '"serve.events.dropped":[0-9]+' "${tmp}/daemon.log" | head -1 | cut -d: -f2 || true)"
  daemon_dropped="${daemon_dropped:-0}"
  offline_folded="$("${dir}/examples/er_print" "${tmp}/exp" -O -J | eval "${pick}")"
  if [[ -z "${daemon_folded}" || -z "${offline_folded}" || \
        "${offline_folded}" -ne $((daemon_folded + daemon_dropped)) ]]; then
    echo "dsprofd smoke FAILED: obs self-profiles disagree" \
         "(offline folded=${offline_folded:-?}, daemon folded=${daemon_folded:-?} dropped=${daemon_dropped:-?})"
    return 1
  fi
  echo "dsprofd smoke: obs self-profiles agree (folded ${offline_folded} = ${daemon_folded} + ${daemon_dropped} dropped)"
}

case "${mode}" in
  --fast|fast)
    run_pass "normal" "${repo}/build"
    run_stress "${repo}/build"
    run_tidy "${repo}/build"
    run_s3verify "${repo}/build"
    run_cli_docs "${repo}/build"
    run_wire_docs
    run_dsprofd_smoke "${repo}/build"
    run_fleet_smoke "${repo}/build"
    run_er_opt_smoke "${repo}/build"
    run_mpx_smoke "${repo}/build"
    ;;
  --asan|asan)
    run_pass "asan" "${repo}/build-asan" -DDSPROF_SANITIZE=address
    ;;
  --bench|bench)
    cmake -B "${repo}/build" -S "${repo}" >/dev/null
    run_bench "${repo}/build"
    ;;
  all|--all)
    run_pass "normal" "${repo}/build"
    run_stress "${repo}/build"
    run_tidy "${repo}/build"
    run_s3verify "${repo}/build"
    run_cli_docs "${repo}/build"
    run_wire_docs
    run_dsprofd_smoke "${repo}/build"
    run_fleet_smoke "${repo}/build"
    run_er_opt_smoke "${repo}/build"
    run_mpx_smoke "${repo}/build"
    run_bench "${repo}/build"
    run_pass "asan" "${repo}/build-asan" -DDSPROF_SANITIZE=address
    run_pass "ubsan" "${repo}/build-ubsan" -DDSPROF_SANITIZE=undefined
    run_tsan "${repo}/build-tsan"
    ;;
  *)
    echo "usage: $0 [--fast|--asan|--bench]" >&2
    exit 2
    ;;
esac

echo "== check.sh: all requested passes green =="
