#!/usr/bin/env bash
# Tier-1 verification: configure + build + ctest, then smoke runs of the
# quickstart example (registry + pipeline on both backends), small scenario
# sweeps (slot scheduler + determinism cross-check, including the
# intra-slot 'parallel' backend), the streaming traffic engine
# (pusch_serve, slot x intra-slot workers and --list), the fading channel
# profiles and HARQ loop (TDL serve + bench_scenario_mix), the sharded serving
# engine (placement + overload policies, CLI name, unknown-flag,
# zero-count and backend slot-domain validation, bench_capacity), the e2e
# example's flag validation and four-backend cross-check, a
# markdown link check over README + docs/, a bench_all --quick pass
# whose JSON reports are
# validated and diffed against the committed baseline
# (bench/baselines/quick.json, deterministic metrics only), and a
# PP_COUNT_ALLOCS build of the serving benches that gates the
# zero-steady-state-allocation workspace contract.  Suitable as a CI entry
# point; exits non-zero on any failure.
#
# CHECK_TSAN=1 additionally builds the concurrency tests (slot scheduler,
# grid sweeps, traffic source, shared lazy tables, parallel + fixed
# backends and their golden-receiver oracle suite, the sharded-sim
# differential/fuzz suites, and the HARQ-loop / cross-backend
# scenario-parity suites) under ThreadSanitizer in a separate build tree
# and runs them.
#
# CHECK_UBSAN=1 additionally builds the fixed-point arithmetic, kernel,
# sim-vs-host Q15 value-chain corner (test_q15_chain) and fixed-backend
# tests under UndefinedBehaviorSanitizer (the Q15 layer's saturation
# corners are exactly where signed-overflow UB would hide).
#
# CHECK_ASAN=1 additionally builds the simulator edge cases (L1 allocator
# and address map, which hold a pointer to their cluster config), both
# intra-slot host backends with their golden-receiver oracle suite, the
# slot workspaces, the sim-vs-host Q15 value-chain corners and the
# pipeline parity suite under AddressSanitizer and runs them.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -j "$JOBS"

echo "--- markdown link check: README.md + docs/ ---"
# Every relative [text](path) link must resolve against the linking file's
# own directory - GitHub's rendering rule (anchors and external
# http(s)/mailto links are skipped).
link_errors=0
for md in README.md docs/*.md; do
  dir="$(dirname "$md")"
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [[ -z "$target" ]] && continue
    if [[ ! -e "$dir/$target" ]]; then
      echo "broken link in $md: $link"
      link_errors=$((link_errors + 1))
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done
if [[ "$link_errors" -gt 0 ]]; then
  echo "markdown link check failed: $link_errors broken link(s)"
  exit 1
fi
echo "all markdown links resolve"

echo "--- smoke: examples/quickstart ---"
"$BUILD_DIR"/examples/quickstart

echo "--- smoke: 2-worker scenario sweep (small grid, all four backends) ---"
"$BUILD_DIR"/examples/pusch_sweep --workers 2 --fft 16,64 --snr 10,20,30
"$BUILD_DIR"/examples/pusch_sweep --workers 2 --backend sim --fft 64 --snr 20
"$BUILD_DIR"/examples/pusch_sweep --workers 1 --backend parallel --intra 2 \
    --fft 16,64 --snr 10,20,30
"$BUILD_DIR"/examples/pusch_sweep --workers 1 --backend fixed --intra 2 \
    --fft 16,64 --snr 10,20,30
"$BUILD_DIR"/bench/bench_throughput_sweep --slots 1 --snr-points 2
"$BUILD_DIR"/bench/bench_parallel_scaling --workers 1,2 --fft 256 --ffts 8 \
    --rows 256 --batches 128
"$BUILD_DIR"/bench/bench_fixed_host --fft 256 --symb 4

echo "--- smoke: streaming traffic engine (pusch_serve + --list) ---"
# Slot workers composed with intra-slot workers on the host models, the
# sim backend's deterministic deadline accounting on one and on two
# concurrent simulated machines, and the registry catalog listing.
"$BUILD_DIR"/examples/pusch_serve --slots 16 --workers 2 --intra 2
"$BUILD_DIR"/examples/pusch_serve --backend sim --slots 6 --clock-ghz 0.02
"$BUILD_DIR"/examples/pusch_serve --backend sim --workers 2 --slots 6 \
    --clock-ghz 0.02
"$BUILD_DIR"/examples/pusch_serve --list > /dev/null
"$BUILD_DIR"/examples/pusch_sweep --list > /dev/null
"$BUILD_DIR"/examples/pusch_uplink_e2e --list > /dev/null

echo "--- smoke: fading channel profiles + HARQ retransmission loop ---"
# TDL fading with Doppler and the closed HARQ loop on the streaming
# engine, plus the scenario-mix bench's own worker-invariance re-check.
"$BUILD_DIR"/examples/pusch_serve --slots 16 --workers 2 --channel tdl-a \
    --doppler 16 --max-harq 3 --harq-ber 0.005
"$BUILD_DIR"/examples/pusch_sweep --workers 2 --channel tdl-c --doppler 8 \
    --fft 64 --snr 20,30
"$BUILD_DIR"/bench/bench_scenario_mix --slots 24 > /dev/null

echo "--- smoke: sharded serving engine + capacity search ---"
# Sharded serve with load-aware placement and the degrade controller, a
# bounded-queue drop run, and a short capacity search.
"$BUILD_DIR"/examples/pusch_serve --slots 24 --cells 4 --shards 2 \
    --placement load-aware --overload degrade --load 1.5 --workers 2
"$BUILD_DIR"/examples/pusch_serve --slots 24 --cells 4 --shards 2 \
    --overload queue --queue-limit 2 --clock-ghz 0.0001
"$BUILD_DIR"/bench/bench_capacity --slots 96 --iters 8 > /dev/null
# Unknown names for the serving flags must exit 2 with the registered list
# (the --list convention), zero counts and values outside the backend's
# slot domain (FFT size, UE count - at most the beam count - and SNR) must
# exit 2 naming the valid range, and unknown or retired flags must exit 2
# naming the flag - not abort, crash or silently run.
for bad in "pusch_serve --placement random" "pusch_serve --overload shed" \
           "pusch_serve --shards 0" "pusch_serve --channel rician" \
           "pusch_serve --cells 0" "pusch_serve --ue 0" \
           "pusch_serve --rx 0" "pusch_serve --beams 0" \
           "pusch_sweep --backend fixed --ue 0" \
           "pusch_sweep --backend sim --ue 0" "pusch_sweep --rx 0" \
           "pusch_sweep --beams 0" \
           "pusch_serve --fft 1000" "pusch_serve --fft 0" \
           "pusch_serve --fft 48" "pusch_serve --backend fixed --fft 32" \
           "pusch_serve --backend sim --fft 32" \
           "pusch_serve --backend fixed --ue 9 --rx 4" \
           "pusch_serve --backend sim --ue 5 --rx 4 --beams 4" \
           "pusch_serve --snr nan" \
           "pusch_sweep --fft 1000" "pusch_sweep --fft 0" \
           "pusch_sweep --fft 48" "pusch_sweep --backend fixed --fft 32" \
           "pusch_sweep --backend sim --fft 32" \
           "pusch_sweep --backend fixed --ue 9 --rx 4" \
           "pusch_sweep --backend sim --ue 5 --rx 4 --beams 4" \
           "pusch_sweep --snr nan" "pusch_sweep --snr 0:1e9:0.001" \
           "pusch_sweep --snr 1e20:1e20:1" \
           "pusch_serve --pipelined" "pusch_sweep --sim-shards 2" \
           "pusch_serve --wrokers 2" "pusch_serve --ue 8 --beams 4" \
           "pusch_sweep --ue 8 --beams 4"; do
  if "$BUILD_DIR"/examples/$bad --slots 1 > /dev/null 2>&1; then
    echo "accepted invalid flag: $bad"
    exit 1
  else
    status=$?
    if [[ "$status" -ne 2 ]]; then
      echo "exited $status (want 2): $bad"
      exit 1
    fi
  fi
done

# pusch_uplink_e2e reads no --slots, so its cases get their own loop: with
# reject_unknown an appended --slots would make every case exit 2 for the
# wrong reason.  Mistyped flags, QAM orders outside 4/16/64/256, a
# --chol-batch that does not divide the data symbols, negative or zero
# counts and UE counts outside a selected backend's slot domain (sim solves
# at most 4 layers; no backend serves more UEs than its 8 beams) exit 2.
for bad in "--backnd sim" "--qam 32" "--chol-batch 3" "--chol-batch 0" \
           "--backend reference --ue 9" "--ue -3" "--ue 0" "--seed -1" \
           "--backend all --ue 8"; do
  if "$BUILD_DIR"/examples/pusch_uplink_e2e $bad > /dev/null 2>&1; then
    echo "accepted invalid flag: pusch_uplink_e2e $bad"
    exit 1
  else
    status=$?
    if [[ "$status" -ne 2 ]]; then
      echo "exited $status (want 2): pusch_uplink_e2e $bad"
      exit 1
    fi
  fi
done

echo "--- smoke: four-backend e2e cross-check + 8-layer fixed MIMO ---"
# All four backends on one slot with equal payloads, then 8 UE layers
# through the fixed backend's per-sub-carrier factorization at 3 workers
# (uneven sub-carrier and item slices).
"$BUILD_DIR"/examples/pusch_uplink_e2e --backend all > /dev/null
"$BUILD_DIR"/examples/pusch_serve --backend fixed --ue 8 --beams 8 --intra 3 \
    --slots 4 > /dev/null

echo "--- bench_all --quick: machine-readable reports + baseline diff ---"
# Every bench's --json output and the merged summary must parse as real
# JSON, and the deterministic metrics must match the committed baseline
# (bench_compare.py only gates deterministic metrics, so this is
# host-independent; regenerate the baseline when a PR intentionally moves
# cycle counts - docs/BENCHMARKS.md).
scripts/bench_all.sh --quick --build-dir "$BUILD_DIR"
if command -v python3 >/dev/null 2>&1; then
  for f in "$BUILD_DIR"/bench-reports/BENCH_*.json; do
    python3 -m json.tool "$f" > /dev/null || {
      echo "invalid JSON report: $f"
      exit 1
    }
  done
  echo "all emitted reports parse as JSON"
  python3 scripts/bench_compare.py bench/baselines/quick.json \
      "$BUILD_DIR/bench-reports/BENCH_summary.json"
else
  echo "python3 not found - skipped JSON validation + baseline diff"
fi

echo "--- zero-steady-state-allocation gate (PP_COUNT_ALLOCS build) ---"
# Separate build tree with the counting operator new: the serving benches'
# steady-state sections exit non-zero if any slot after warm-up touches the
# heap (the workspace contract, docs/DETERMINISM.md section 10).
ALLOC_DIR="${BUILD_DIR}-allocs"
cmake -B "$ALLOC_DIR" -S . -DPP_COUNT_ALLOCS=ON -DBUILD_TESTING=OFF
cmake --build "$ALLOC_DIR" -j "$JOBS" \
  --target bench_serve_latency bench_fixed_host
"$ALLOC_DIR"/bench/bench_serve_latency --slots 12 > /dev/null
"$ALLOC_DIR"/bench/bench_serve_latency --slots 12 --backend parallel \
    > /dev/null
"$ALLOC_DIR"/bench/bench_fixed_host --fft 256 --symb 4 > /dev/null
echo "steady-state serving loop allocates nothing after warm-up"

if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
  echo "--- opt-in: ThreadSanitizer build of the concurrency tests ---"
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target test_sweep test_thread_safety test_rng test_backend_parallel \
             test_backend_fixed test_scheduler test_traffic test_admission \
             test_placement test_sim_differential test_sim_fuzz test_harq \
             test_harq_fuzz test_scenario_parity test_workspace \
             test_host_oracle
  ctest --test-dir "$TSAN_DIR" --output-on-failure --no-tests=error \
    -j "$JOBS" \
    -R 'Sweep|ThreadSafety|Rng|ThreadPool|ParallelBackend|FixedBackend|FixedQ15|Scheduler|Traffic|Admission|Placement|SimDifferential|SimFuzz|Harq|ScenarioParity|Workspace|HostOracle'
fi

if [[ "${CHECK_UBSAN:-0}" == "1" ]]; then
  echo "--- opt-in: UndefinedBehaviorSanitizer build of the Q15/kernel tests ---"
  UBSAN_DIR="${BUILD_DIR}-ubsan"
  cmake -B "$UBSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build "$UBSAN_DIR" -j "$JOBS" \
    --target test_fixed_point test_fft test_mmm test_cholesky test_che_ne \
             test_gram test_q15_chain test_backend_fixed
  ctest --test-dir "$UBSAN_DIR" --output-on-failure --no-tests=error \
    -j "$JOBS" \
    -R 'Q15|Cq15|Isqrt|Rng|Fft|Mmm|Chol|Trisolve|Che|Ne|Gram|Q15Chain|FixedBackend'
fi

if [[ "${CHECK_ASAN:-0}" == "1" ]]; then
  echo "--- opt-in: AddressSanitizer build of the lifetime/workspace tests ---"
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer"
  cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target test_sim_edge test_backend_fixed test_backend_parallel \
             test_host_oracle test_workspace test_q15_chain test_pipeline
  ctest --test-dir "$ASAN_DIR" --output-on-failure --no-tests=error \
    -j "$JOBS" \
    -R 'SimEdge|FixedBackend|FixedQ15|ParallelBackend|ThreadPool|HostOracle|Workspace|Q15Chain|BackendCrossCheck|Pipeline'
fi

echo "check.sh: all green"
