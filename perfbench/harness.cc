#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/composite_system.h"
#include "core/correctness.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "workload/workload_spec.h"

namespace perfbench {

using comptx::StrCat;
using comptx::workload::TraceEventKind;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

std::optional<double> Samples::Percentile(double p, size_t min_beyond) const {
  if (values_.empty()) return std::nullopt;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const size_t n = values_.size();
  // Nearest rank: the smallest value with at least p*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  return values_[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void RunResult::Fail(const std::string& why) {
  ++failed;
  details.push_back("FAILED " + why);
}

// ---- comptx_serve processes ------------------------------------------

comptx::service::Endpoint ServerProc::endpoint() const {
  comptx::service::Endpoint e;
  e.host = "127.0.0.1";
  e.port = port;
  return e;
}

std::string ServerProc::CommandLine() const {
  std::string out;
  for (const std::string& arg : argv) {
    if (!out.empty()) out += ' ';
    out += arg;
  }
  return out;
}

StatusOr<ServerProc> LaunchServer(const std::string& serve_binary,
                                  const std::string& data_dir,
                                  const std::string& log_path) {
  ServerProc proc;
  proc.data_dir = data_dir;
  proc.argv = {serve_binary, "--host",     "127.0.0.1", "--port",
               "0",          "--data-dir", data_dir,    "--fsync",
               "always"};
  std::vector<char*> argv;
  for (std::string& arg : proc.argv) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::Internal("pipe failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    // The daemon dies with this process, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  proc.pid = pid;
  proc.stdout_fd = pipe_fds[0];

  // The first stdout line is "listening on HOST:PORT"; it appears only
  // after the daemon finished startup recovery.
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t got = ::read(proc.stdout_fd, &c, 1);
    if (got == 1) {
      if (c == '\n') break;
      line += c;
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else {
      KillServer(proc);
      return Status::Internal(
          StrCat("comptx_serve exited before listening (see ", log_path,
                 ")"));
    }
  }
  const size_t colon = line.rfind(':');
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    KillServer(proc);
    return Status::Internal(StrCat("unexpected server banner: ", line));
  }
  proc.port = std::atoi(line.c_str() + colon + 1);
  return proc;
}

namespace {

void Reap(ServerProc& proc, std::chrono::milliseconds grace) {
  const auto deadline = Clock::now() + grace;
  while (true) {
    const pid_t done = ::waitpid(proc.pid, nullptr, WNOHANG);
    if (done == proc.pid || (done < 0 && errno == ECHILD)) break;
    if (Clock::now() >= deadline) {
      ::kill(proc.pid, SIGKILL);
      ::waitpid(proc.pid, nullptr, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (proc.stdout_fd >= 0) ::close(proc.stdout_fd);
  proc.stdout_fd = -1;
  proc.pid = -1;
}

}  // namespace

void KillServer(ServerProc& proc) {
  if (proc.pid <= 0) return;
  ::kill(proc.pid, SIGKILL);
  Reap(proc, std::chrono::seconds(10));
}

Status StopServer(ServerProc& proc) {
  if (proc.pid <= 0) return Status::OK();
  Status status = Status::OK();
  auto client = Dial(proc);
  if (client.ok()) {
    status = client->Shutdown();
  } else {
    status = client.status();
    ::kill(proc.pid, SIGTERM);
  }
  Reap(proc, std::chrono::seconds(30));
  return status;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in(StrCat("/proc/", pid, "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double CpuMicros(pid_t pid) {
  std::ifstream in(StrCat("/proc/", pid, "/stat"));
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

StatusOr<comptx::service::ServiceClient> Dial(const ServerProc& proc) {
  return comptx::service::ServiceClient::Dial(
      proc.endpoint(), comptx::service::WireProtocol::kV2);
}

std::map<std::string, double> ScrapeStats(
    comptx::service::ServiceClient& client) {
  std::map<std::string, double> out;
  auto body = client.Stats();
  if (!body.ok()) return out;
  std::istringstream in(*body);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key, value;
    if (!(fields >> key >> value)) continue;
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && *end == '\0') out[key] = number;
  }
  return out;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/ext3/ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: return StrCat("0x", std::hex, fs.f_type);
  }
}

// ---- generated streams -------------------------------------------------

namespace {

/// Inserts cumulative commit_through watermarks: after every `window`
/// roots, one sealing them, placed after the last event that touches any
/// of their subtrees (sealing earlier would make the certifier reject
/// those events).
std::vector<TraceEvent> InterleaveWatermarks(std::vector<TraceEvent> events,
                                             size_t window) {
  if (window == 0) return events;
  std::vector<size_t> node_root;   // node index -> root ordinal
  std::vector<size_t> last_touch;  // root ordinal -> last event index
  const auto touch = [&](uint32_t node, size_t i) {
    if (node < node_root.size()) last_touch[node_root[node]] = i;
  };
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    switch (e.kind) {
      case TraceEventKind::kRoot:
        node_root.push_back(last_touch.size());
        last_touch.push_back(i);
        break;
      case TraceEventKind::kSub:
      case TraceEventKind::kLeaf:
        if (e.parent < node_root.size()) {
          node_root.push_back(node_root[e.parent]);
          last_touch[node_root.back()] = i;
        }
        break;
      case TraceEventKind::kIntraWeak:
      case TraceEventKind::kIntraStrong:
        touch(e.parent, i);
        touch(e.a, i);
        touch(e.b, i);
        break;
      case TraceEventKind::kConflict:
      case TraceEventKind::kWeakOutput:
      case TraceEventKind::kStrongOutput:
      case TraceEventKind::kWeakInput:
      case TraceEventKind::kStrongInput:
        touch(e.a, i);
        touch(e.b, i);
        break;
      case TraceEventKind::kCommit:
        touch(e.parent, i);
        break;
      case TraceEventKind::kTag:
        touch(e.parent, i);
        break;
      default:
        break;
    }
  }
  std::vector<std::pair<size_t, uint32_t>> inserts;  // (after index, k)
  size_t horizon = 0;
  for (size_t k = window; k <= last_touch.size(); k += window) {
    for (size_t r = k - window; r < k; ++r) {
      horizon = std::max(horizon, last_touch[r]);
    }
    inserts.emplace_back(horizon, static_cast<uint32_t>(k));
  }
  std::vector<TraceEvent> out;
  out.reserve(events.size() + inserts.size());
  size_t next = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    out.push_back(std::move(events[i]));
    while (next < inserts.size() && inserts[next].first == i) {
      TraceEvent mark;
      mark.kind = TraceEventKind::kCommitThrough;
      mark.a = inserts[next].second;
      out.push_back(mark);
      ++next;
    }
  }
  return out;
}

}  // namespace

std::vector<TraceEvent> LayeredDagStream(size_t quota, uint64_t seed,
                                         size_t commit_window) {
  comptx::workload::WorkloadSpec spec;
  spec.topology.kind = comptx::workload::TopologyKind::kLayeredDag;
  spec.topology.depth = 3;
  spec.topology.branches = 2;
  spec.topology.fanout = 2;
  spec.execution.conflict_prob = 0.15;
  spec.execution.intra_weak_prob = 0.2;
  // The root count is grown until the stream covers the quota; a prefix
  // of a valid execution is a valid stream.
  uint32_t roots = 16;
  for (;;) {
    spec.topology.roots = roots;
    auto cs = comptx::workload::GenerateSystem(spec, seed);
    COMPTX_CHECK(cs.ok()) << cs.status().ToString();
    auto text = comptx::workload::SaveTrace(*cs);
    COMPTX_CHECK(text.ok()) << text.status().ToString();
    auto events = comptx::workload::ParseTraceEvents(*text);
    COMPTX_CHECK(events.ok()) << events.status().ToString();
    if (events->size() >= quota || roots >= (1u << 16)) {
      if (events->size() > quota) events->resize(quota);
      return InterleaveWatermarks(std::move(events).value(), commit_window);
    }
    // Scale straight to the quota instead of doubling blindly.
    const double per_root =
        static_cast<double>(events->size()) / static_cast<double>(roots);
    roots = std::max<uint32_t>(
        roots * 2, static_cast<uint32_t>(1.1 * static_cast<double>(quota) /
                                         std::max(per_root, 1.0)) +
                       1);
  }
}

std::vector<TraceEvent> ChainStream(size_t roots, uint32_t window,
                                    uint64_t seed) {
  std::vector<TraceEvent> out;
  out.reserve(roots * 4 + roots / std::max<uint32_t>(window, 1) + 1);
  TraceEvent e;
  e.kind = TraceEventKind::kSchedule;
  e.name = "S";
  out.push_back(e);
  uint32_t next_id = 0;
  uint32_t prev_leaf = comptx::kInvalidIndex;
  for (size_t r = 0; r < roots; ++r) {
    e = {};
    e.kind = TraceEventKind::kRoot;
    e.schedule = 0;
    e.name = StrCat("T", seed, "_", r);
    out.push_back(e);
    const uint32_t root = next_id++;
    e = {};
    e.kind = TraceEventKind::kLeaf;
    e.parent = root;
    e.name = StrCat("x", seed, "_", r);
    out.push_back(e);
    const uint32_t leaf = next_id++;
    if (prev_leaf != comptx::kInvalidIndex) {
      e = {};
      e.kind = TraceEventKind::kConflict;
      e.a = prev_leaf;
      e.b = leaf;
      out.push_back(e);
      e.kind = TraceEventKind::kWeakOutput;
      out.push_back(e);
    }
    prev_leaf = leaf;
    const size_t made = r + 1;
    if (window != 0 && made % window == 0 && made > window) {
      e = {};
      e.kind = TraceEventKind::kCommitThrough;
      e.a = static_cast<uint32_t>(made - window);
      out.push_back(e);
    }
  }
  return out;
}

StatusOr<Expected> OfflineVerdict(const std::vector<TraceEvent>& events,
                                  size_t count) {
  comptx::CompositeSystem cs;
  Expected out;
  for (size_t i = 0; i < count && i < events.size(); ++i) {
    if (comptx::workload::ApplyTraceEvent(cs, events[i]).ok()) {
      ++out.accepted;
    } else {
      ++out.rejected;
    }
  }
  comptx::ReductionOptions options;
  options.validate = false;  // a cut stream is a legitimate prefix
  options.keep_fronts = false;
  COMPTX_ASSIGN_OR_RETURN(comptx::CompCResult result,
                          comptx::CheckCompC(cs, options));
  out.certifiable = result.correct;
  return out;
}

}  // namespace perfbench
