#ifndef COMPTX_PERFBENCH_WORKLOADS_H_
#define COMPTX_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads (end-to-end, over TCP against comptx_serve
// child processes) and the traced per-layer replay.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Events per APPEND whenever the benchmark fills sessions outside the
/// measured phase: the warm-up prefixes and the crash leg.
constexpr size_t kFillBatch = 256;

/// The crash leg: after the measured phase every session is closed, fresh
/// sessions are filled with this prefix of their streams (17 batches of
/// 256, so each restores the snapshot the daemon writes at its default
/// 4096-event cadence plus a WAL suffix), and the daemon is SIGKILLed and
/// restarted once.  Restoring a snapshot replays the session's whole
/// accumulated trace, at a cost that grows faster than linearly with its
/// length (see perfbench/README.md), so the leg has a fixed size rather
/// than whatever the measured phase happened to reach.
constexpr size_t kCrashEvents = 17 * kFillBatch;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;
  std::string work_dir;  // run directory for data dirs and logs
  /// Smoke-test hook: flips the expected verdict of this session so the
  /// correctness gate must fire.  -1 = off.
  int flip_session = -1;
};

/// One request the end-to-end leg sent, in send order: events
/// [begin, end) of stream `stream`, or a verdict read of it.
struct Op {
  uint32_t stream = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
  bool query = false;
};

/// Everything the traced replay needs to push the same batches through
/// the layers in-process.
struct ReplayInput {
  std::vector<std::vector<TraceEvent>> streams;
  std::vector<Op> ops;
};

struct EndToEnd {
  RunResult result;
  ReplayInput replay;                   // filled only when tracing
  std::map<std::string, double> stats;  // STATS counter deltas
  double append_p50_us = 0;
  double appends = 0;  // APPEND requests in the measured phase
};

/// Names of the workloads RunEndToEnd accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end: repeated set-up, the measured phase,
/// the verdict/oracle gate, one SIGKILL + restart.  Fills the
/// end-to-end metrics into result.metrics.
EndToEnd RunEndToEnd(const RunConfig& config);

/// The traced run's per-layer numbers: replays `input` single-threaded
/// through the layers' public calls with a timer around each, for at most
/// `budget_seconds`, under `dir`.  Adds the STATS-derived counters and the
/// service residual from `e2e`.
void ReplayLayers(const EndToEnd& e2e, const std::string& dir,
                  double budget_seconds, RunResult& out);

}  // namespace perfbench

#endif  // COMPTX_PERFBENCH_WORKLOADS_H_
