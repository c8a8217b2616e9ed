// perfbench_load: runs one benchmark workload against comptx_serve and
// prints its result.  perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads and metrics.
//
// Usage: perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                       --serve PATH --work-dir DIR [--flip-session I]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end with --trace 0, per-layer with --trace 1).  Lines
// before it are context (server command line, sample counts, the layer
// sum).  Exit 0 when the run completed, even if the correctness gate
// failed (the JSON says so); 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;  // NOLINT

int Usage() {
  std::cerr << "usage: perfbench_load --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve PATH --work-dir DIR "
               "[--flip-session I]\n";
  return 2;
}

std::string JsonNumber(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--serve") {
      config.serve_binary = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--flip-session") {
      config.flip_session = std::atoi(value.c_str());
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == config.workload;
  }
  // events_per_s is a median over whole 1-second slices.
  if (!have_workload || !known || config.seconds < 1 ||
      config.serve_binary.empty() || config.work_dir.empty()) {
    return Usage();
  }
  std::filesystem::create_directories(config.work_dir);

  EndToEnd e2e = RunEndToEnd(config);
  RunResult result = std::move(e2e.result);
  if (config.trace) {
    // The traced run prints the per-layer metrics; the end-to-end leg it
    // ran first (for the residual and the counters) is shown as context.
    std::string line = "end-to-end leg:";
    for (const auto& [name, metric] : result.metrics) {
      line += " " + name + "=" + JsonNumber(metric.value);
    }
    result.Detail(line);
    result.metrics.clear();
    ReplayLayers(e2e, config.work_dir + "/replay", config.seconds, result);
  }

  for (const std::string& line : result.details) std::cout << line << "\n";
  std::cout << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << JsonNumber(metric.value) << ", \"unit\": \"" << metric.unit
              << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
