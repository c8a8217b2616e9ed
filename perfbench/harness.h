#ifndef COMPTX_PERFBENCH_HARNESS_H_
#define COMPTX_PERFBENCH_HARNESS_H_

// Shared pieces of the comptx benchmark: exact percentiles over raw
// samples, comptx_serve process control (launch, SIGKILL, graceful stop,
// /proc accounting), the generated event streams, and the batch Comp-C
// oracle every run checks its verdicts against.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "service/client.h"
#include "util/status_or.h"
#include "workload/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using comptx::Status;
using comptx::StatusOr;
using comptx::workload::TraceEvent;

double SecondsSince(Clock::time_point start);
double MicrosSince(Clock::time_point start);

/// Raw per-request samples; percentiles are exact (nearest rank over the
/// sorted samples), never read off a bucketed histogram.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }

  /// The p-quantile (0 < p < 1) by nearest rank, or nullopt when fewer
  /// than `min_beyond` samples lie above it — a tail read off a handful
  /// of samples is noise, so it is not reported at all.
  std::optional<double> Percentile(double p, size_t min_beyond = 10) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Median of a small vector (used for repeated set-up timings).
double Median(std::vector<double> values);

/// One named result with its unit, in print order.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Outcome of one run: correctness accounting plus the metrics.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;
  /// Context lines printed before the result (sample counts, the layer
  /// sum, the recovery time).
  std::vector<std::string> details;

  void Fail(const std::string& why);
  void Detail(const std::string& line) { details.push_back(line); }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// ---- comptx_serve processes ------------------------------------------

/// One comptx_serve child.  Only deployment settings are passed: loopback
/// listen address with an ephemeral port, a data dir, and fsync=always.
struct ServerProc {
  pid_t pid = -1;
  int port = 0;
  int stdout_fd = -1;  // read end of the child's stdout (port line)
  std::string data_dir;
  std::vector<std::string> argv;

  comptx::service::Endpoint endpoint() const;
  std::string CommandLine() const;
};

/// Starts comptx_serve on `data_dir` and waits for its "listening on"
/// line (which the daemon prints after startup recovery completes).
/// stderr goes to `log_path`.
StatusOr<ServerProc> LaunchServer(const std::string& serve_binary,
                                  const std::string& data_dir,
                                  const std::string& log_path);

/// SIGKILL + reap; no drain.
void KillServer(ServerProc& proc);

/// SHUTDOWN over the wire, then reap (SIGKILL after a timeout).
Status StopServer(ServerProc& proc);

/// VmHWM of a live process, in MiB.
double PeakRssMb(pid_t pid);

/// utime + stime of a live process, in microseconds.
double CpuMicros(pid_t pid);

/// Dials `proc` with the binary v2 protocol.
StatusOr<comptx::service::ServiceClient> Dial(const ServerProc& proc);

/// STATS body parsed into key -> value (non-numeric values dropped).
std::map<std::string, double> ScrapeStats(
    comptx::service::ServiceClient& client);

/// Filesystem type name of `path` ("ext2/ext3/ext4", "tmpfs", ...).
std::string FilesystemType(const std::string& path);

// ---- generated streams -------------------------------------------------

/// A layered-DAG execution stream (the comptx_load generator shape:
/// depth 3, 2 branches, fanout 2, conflict 0.15, intra-weak 0.2) of at
/// least `quota` events, cut at `quota`, with cumulative commit_through
/// watermarks every `commit_window` roots placed at the earliest point
/// no later event touches the sealed roots.
std::vector<TraceEvent> LayeredDagStream(size_t quota, uint64_t seed,
                                         size_t commit_window);

/// The E15 streaming-window chain: per root i, root + leaf, and for
/// i > 0 conflict and weak_out from the previous leaf; every `window`
/// roots a commit_through trailing the newest root by `window`.  The
/// shape is fixed; `seed` only salts the transaction names.
std::vector<TraceEvent> ChainStream(size_t roots, uint32_t window,
                                    uint64_t seed);

/// Batch ground truth for one session: replays the first `count` of
/// `events` into a fresh composite system (an event the system refuses
/// counts as rejected, exactly as the certifier counts it) and runs batch
/// CheckCompC.
struct Expected {
  bool certifiable = false;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
};
StatusOr<Expected> OfflineVerdict(const std::vector<TraceEvent>& events,
                                  size_t count);

}  // namespace perfbench

#endif  // COMPTX_PERFBENCH_HARNESS_H_
