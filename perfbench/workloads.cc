#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <thread>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace perfbench {

namespace fs = std::filesystem;
using comptx::StrCat;
using comptx::service::ServiceClient;
using comptx::service::SessionVerdict;

namespace {

/// setup_s is the median of this many timed set-ups: the first half
/// before the measured phase (the last of them serves it), the rest after
/// the crash leg, so the median spans the run as the other metrics do
/// rather than only its first seconds.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;

/// Runs `work(i)` for i in [0, n) on up to four threads.
template <typename Fn>
void ParallelFor(size_t n, Fn work) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::min<size_t>(4, n); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) work(i);
    });
  }
  for (auto& thread : threads) thread.join();
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

/// The verdict the gate compares: the Comp-C answer and the accepted /
/// rejected counts (what the batch oracle also decides).
bool SameVerdict(const SessionVerdict& a, const SessionVerdict& b) {
  return a.certifiable == b.certifiable &&
         a.events_accepted == b.events_accepted &&
         a.events_rejected == b.events_rejected;
}

std::string DescribeVerdict(const SessionVerdict& v) {
  return StrCat(v.certifiable ? "certifiable" : "not-certifiable",
                " accepted=", v.events_accepted,
                " rejected=", v.events_rejected,
                " commit_watermark=", v.commit_watermark);
}

/// `after - before`, key by key: STATS counters over the measured phase
/// (the set-up's warm-up traffic is not part of it).
std::map<std::string, double> Delta(
    std::map<std::string, double> after,
    const std::map<std::string, double>& before) {
  for (auto& [key, value] : after) {
    const auto it = before.find(key);
    if (it != before.end()) value -= it->second;
  }
  return after;
}

/// Samples of one measured phase (per connection, then merged).
struct Latencies {
  Samples append_us;
  Samples query_us;
  /// Events acked in each 1-second slice of the phase.  An APPEND's
  /// events are spread over the time its connection spent since its
  /// previous APPEND, in proportion to each slice's share of it, so a
  /// slice's count is not quantised to whole 256-event batches.
  std::vector<double> slice_events;

  /// Credits `events` acked at `to`, `from` being the previous ack on the
  /// connection (both in seconds since the phase started).
  void Credit(double from, double to, double events) {
    if (to <= from) from = std::nextafter(to, 0.0);
    for (double t = from; t < to;) {
      const double edge = std::min(to, std::floor(t) + 1);
      const auto i = static_cast<size_t>(t);
      if (i >= slice_events.size()) slice_events.resize(i + 1);
      slice_events[i] += events * (edge - t) / (to - from);
      t = edge;
    }
  }
};

/// Fills the median latencies shared by every workload, and prints the
/// sample counts plus every tail percentile that has at least 10 samples
/// beyond it.  (The tails are context, not metrics: run to run they swing
/// far more than the benchmark's bounds allow; see README.md.)  A median
/// without enough samples fails the run rather than printing a made-up
/// number.
void ReportLatencies(const Latencies& lat, RunResult& out,
                     double& append_p50_us) {
  const auto append_p50 = lat.append_us.Percentile(0.50);
  const auto query_p50 = lat.query_us.Percentile(0.50);
  if (!append_p50) {
    out.Fail(StrCat("too few APPEND samples (", lat.append_us.count(), ")"));
  }
  if (!query_p50) {
    out.Fail(StrCat("too few QUERY samples (", lat.query_us.count(), ")"));
  }
  append_p50_us = append_p50.value_or(0);
  out.Set("append_p50_us", append_p50.value_or(0), "us");
  out.Set("query_p50_us", query_p50.value_or(0), "us");
  std::string line = StrCat("samples: append=", lat.append_us.count(),
                            " query=", lat.query_us.count());
  for (const double p : {0.90, 0.99}) {
    const int pct = static_cast<int>(p * 100);
    if (auto v = lat.append_us.Percentile(p)) {
      line += StrCat(" append_p", pct, "_us=", *v);
    }
    if (auto v = lat.query_us.Percentile(p)) {
      line += StrCat(" query_p", pct, "_us=", *v);
    }
  }
  out.Detail(line);
}

// ---- workloads -----------------------------------------------------------

/// The fixed shape of a workload.
struct Shape {
  size_t sessions = 1;
  size_t connections = 2;
  /// > 0: every turn draws its session from Zipf(theta); 0: connection c
  /// owns sessions c, c + connections, ... and cycles through them.
  double zipf_theta = 0;
  size_t batch = 1;  // events per APPEND
  /// The appending connection QUERYs its session after every APPEND.
  bool query_after_append = false;
  /// A separate connection reads verdicts round-robin (closed loop with a
  /// short pause), so reads are measured under the write load.
  bool poller = false;
  /// Sessions the crash leg fills and recovers (0 = one per slot).
  size_t crash_sessions = 0;
};

/// Every session lives for one pass over its slot's stream: once the
/// stream is acked, the connection CLOSEs the session (its final verdict,
/// checked against the oracle) and OPENs a fresh one for the slot.  Fixed
/// stream lengths keep generation, the oracle and the crash leg the same
/// size however fast the server gets.
constexpr size_t kWireStreamEvents = 4096;
// long_window: a 3000-root chain (~12k events, 47 windows of 64 roots),
// of which set-up acks and certifies the first 12 batches per session.
constexpr size_t kLongWindowRoots = 3000;
constexpr size_t kLongWindowWarmupEvents = 12 * kFillBatch;

/// One session slot: its stream and the session currently serving it.
struct Slot {
  std::vector<TraceEvent> events;
  std::mutex mu;  // serializes the slot's requests (under Zipf, two
                  // connections may pick the same slot)
  size_t warmup = 0;  // events acked during set-up
  uint64_t id = 0;
  size_t cursor = 0;  // events acked in the current session
  uint64_t measured_events = 0;        // acked during the measured phase
  std::vector<SessionVerdict> closed;  // CLOSE verdicts of full passes
  SessionVerdict final;                // the current session's last QUERY
};
using Slots = std::vector<std::unique_ptr<Slot>>;

/// Shapes and streams of the workloads.
Shape MakeShape(const RunConfig& config, Slots& slots) {
  const bool wire = config.workload == "wire_b1";
  Shape shape;
  if (wire) {
    shape.sessions = 64;
    shape.zipf_theta = 0.8;
    shape.batch = 1;
    shape.poller = true;
  } else {  // long_window
    shape.sessions = 4;
    shape.batch = 256;
    // Every APPEND is followed by a QUERY of that session: the drain
    // barrier then times the certifier ingesting the batch, and no
    // backlog builds up whose depth would swing with scheduling noise.
    shape.query_after_append = true;
    // One chain session already takes seconds to restore (see the crash
    // leg).
    shape.crash_sessions = 1;
  }
  slots.clear();
  for (size_t i = 0; i < shape.sessions; ++i) {
    slots.push_back(std::make_unique<Slot>());
  }
  ParallelFor(shape.sessions, [&](size_t i) {
    const uint64_t seed = config.seed * 1000 + i;
    slots[i]->events =
        wire ? LayeredDagStream(kWireStreamEvents, seed, 8)
             : ChainStream(kLongWindowRoots, 64, seed);
  });
  if (!wire) {
    for (auto& slot : slots) slot->warmup = kLongWindowWarmupEvents;
    return shape;
  }
  // Zipf leaves cold sessions nearly idle, so the state the server holds
  // would grow through the run with whatever throughput it reached.
  // Starting every session at a random point of its lifetime, as in a
  // long-running steady state, keeps it level.  The points are stratified
  // (slot i of n starts in the (p(i))-th n-th of its stream, p a random
  // permutation), so the warm-up's total size, and with it setup_s, does
  // not swing with the seed.
  comptx::Rng rng(config.seed);
  std::vector<size_t> stratum(slots.size());
  for (size_t i = 0; i < stratum.size(); ++i) stratum[i] = i;
  rng.Shuffle(stratum);
  for (size_t i = 0; i < slots.size(); ++i) {
    const size_t size = slots[i]->events.size();
    slots[i]->warmup =
        (stratum[i] * size + rng.UniformInt(size)) / slots.size();
  }
  return shape;
}

/// APPENDs events [cursor, cursor + count) of `slot` in `batch`-sized
/// requests over `client`.
Status AppendPrefix(ServiceClient& client, Slot& slot, size_t count,
                    size_t batch, RunResult& out) {
  const size_t stop = std::min(slot.events.size(), slot.cursor + count);
  while (slot.cursor < stop) {
    const size_t end = std::min(stop, slot.cursor + batch);
    std::vector<TraceEvent> events(slot.events.begin() + slot.cursor,
                                   slot.events.begin() + end);
    ++out.attempted;
    COMPTX_RETURN_IF_ERROR(client.Append(slot.id, events).status());
    slot.cursor = end;
  }
  return Status::OK();
}

/// Opens one session per slot and acks the first `prefix(slot)` events
/// of each in `batch`-sized APPENDs.
template <typename PrefixFn>
Status OpenAndFill(const ServerProc& proc, Slots& slots, PrefixFn prefix,
                   size_t batch, RunResult& out) {
  COMPTX_ASSIGN_OR_RETURN(ServiceClient client, Dial(proc));
  for (auto& slot : slots) {
    ++out.attempted;
    COMPTX_ASSIGN_OR_RETURN(slot->id, client.Open());
    slot->cursor = 0;
  }
  for (auto& slot : slots) {
    COMPTX_RETURN_IF_ERROR(
        AppendPrefix(client, *slot, prefix(*slot), batch, out));
  }
  return Status::OK();
}

/// QUERYs every slot's current session into slot.final.
Status QueryAll(ServiceClient& client, Slots& slots, RunResult& out) {
  for (auto& slot : slots) {
    ++out.attempted;
    COMPTX_ASSIGN_OR_RETURN(slot->final, client.Query(slot->id));
  }
  return Status::OK();
}

/// SIGKILLs `proc`, restarts it on the same data dir and waits until
/// every slot's session answers QUERY; checks each against its pre-kill
/// verdict and that no acked event was lost.  Returns the time from the
/// restart until every session answered.
double CrashAndRecover(const RunConfig& config, ServerProc& proc,
                       Slots& slots, RunResult& out) {
  KillServer(proc);
  const auto start = Clock::now();
  auto restarted = LaunchServer(config.serve_binary, proc.data_dir,
                                config.work_dir + "/server.log");
  if (!restarted.ok()) {
    out.Fail(StrCat("restart: ", restarted.status().ToString()));
    return 0;
  }
  proc = *restarted;
  auto client = Dial(proc);
  if (!client.ok()) {
    out.Fail(StrCat("dial after restart: ", client.status().ToString()));
    return 0;
  }
  std::vector<SessionVerdict> recovered(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    ++out.attempted;
    auto verdict = client->Query(slots[i]->id);
    if (!verdict.ok()) {
      out.Fail(StrCat("session ", slots[i]->id, " did not resume: ",
                      verdict.status().ToString()));
      continue;
    }
    recovered[i] = *verdict;
  }
  const double seconds = SecondsSince(start);
  size_t watermark_resets = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = *slots[i];
    const uint64_t held =
        recovered[i].events_accepted + recovered[i].events_rejected;
    if (held < slot.cursor) {
      out.Fail(StrCat("session ", slot.id, " lost acked events: acked ",
                      slot.cursor, ", recovered ", held));
    } else if (!SameVerdict(recovered[i], slot.final)) {
      out.Fail(StrCat("session ", slot.id, " resumed as ",
                      DescribeVerdict(recovered[i]), ", before the kill ",
                      DescribeVerdict(slot.final)));
    } else if (recovered[i].commit_watermark !=
               slot.final.commit_watermark) {
      ++watermark_resets;
    }
  }
  if (watermark_resets != 0) {
    // Not part of the verdict, but visible: a session restored from a
    // snapshot reports commit_watermark 0 until its next commit_through.
    out.Detail(StrCat("note: ", watermark_resets, " of ", slots.size(),
                      " sessions resumed with a different commit_watermark"));
  }
  return seconds;
}

/// The batch oracle gate: every CLOSE verdict of a full pass against the
/// whole stream, and every slot's last verdict against the prefix it was
/// sent.  Runs two oracles at a time (batch closures are memory-hungry).
void CheckVerdicts(const RunConfig& config, const Slots& slots,
                   RunResult& out) {
  std::vector<std::vector<std::string>> problems(slots.size());
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t i = next++; i < slots.size(); i = next++) {
      const Slot& slot = *slots[i];
      const auto check = [&](size_t count, const SessionVerdict& got) {
        auto expected = OfflineVerdict(slot.events, count);
        if (!expected.ok()) {
          problems[i].push_back(expected.status().ToString());
          return;
        }
        if (static_cast<int>(i) == config.flip_session) {
          expected->certifiable = !expected->certifiable;
        }
        if (expected->certifiable != got.certifiable ||
            expected->accepted != got.events_accepted ||
            expected->rejected != got.events_rejected) {
          problems[i].push_back(StrCat(
              "verdict mismatch on slot ", i, " (", count, " events): oracle ",
              expected->certifiable ? "certifiable" : "not-certifiable",
              " accepted=", expected->accepted,
              " rejected=", expected->rejected, ", server ",
              DescribeVerdict(got)));
        }
      };
      if (!slot.closed.empty()) {
        // Every pass streams the same events, so one oracle run covers
        // all of them; each CLOSE verdict is compared.
        for (const SessionVerdict& verdict : slot.closed) {
          if (&verdict == &slot.closed.front()) {
            check(slot.events.size(), verdict);
          } else if (!SameVerdict(verdict, slot.closed.front())) {
            problems[i].push_back(StrCat("slot ", i,
                                         " passes disagree: ",
                                         DescribeVerdict(verdict)));
          }
        }
      }
      check(slot.cursor, slot.final);
    }
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  for (size_t i = 0; i < slots.size(); ++i) {
    out.attempted += 1 + (slots[i]->closed.empty() ? 0 : 1);
    for (const std::string& p : problems[i]) out.Fail(p);
  }
}

/// One timed set-up on an emptied data dir: launch, open every slot's
/// session and ack its warm-up prefix, then QUERY every session (the drain
/// barrier, so no warm-up work spills into what follows).  Leaves the
/// server running in `proc`.
StatusOr<double> TimedSetUp(const RunConfig& config, Slots& slots,
                            ServerProc& proc, RunResult& out) {
  const std::string data_dir = config.work_dir + "/data";
  ResetDir(data_dir);
  const auto start = Clock::now();
  COMPTX_ASSIGN_OR_RETURN(
      proc, LaunchServer(config.serve_binary, data_dir,
                         config.work_dir + "/server.log"));
  Status filled =
      OpenAndFill(proc, slots, [](const Slot& slot) { return slot.warmup; },
                  kFillBatch, out);
  if (filled.ok()) {
    auto client = Dial(proc);
    filled = client.ok() ? QueryAll(*client, slots, out) : client.status();
  }
  if (!filled.ok()) {
    KillServer(proc);
    return filled;
  }
  return SecondsSince(start);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"wire_b1", "long_window"};
  return names;
}

EndToEnd RunEndToEnd(const RunConfig& config) {
  EndToEnd e2e;
  RunResult& out = e2e.result;
  Slots slots;
  const Shape shape = MakeShape(config, slots);

  std::vector<double> setup_s;
  ServerProc proc;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    if (rep > 0) {
      const Status stopped = StopServer(proc);
      if (!stopped.ok()) out.Fail(StrCat("stop: ", stopped.ToString()));
    }
    auto seconds = TimedSetUp(config, slots, proc, out);
    if (!seconds.ok()) {
      out.Fail(StrCat("set-up: ", seconds.status().ToString()));
      return e2e;
    }
    setup_s.push_back(*seconds);
  }
  // Final after the crash leg; set now so a run that fails on the way
  // still reports every metric.
  out.Set("setup_s", Median(setup_s), "s");
  out.Detail(StrCat("server: ", proc.CommandLine()));
  out.Detail(StrCat("data_dir_fs: ", FilesystemType(proc.data_dir)));
  if (config.trace) {
    for (size_t i = 0; i < slots.size(); ++i) {
      for (size_t at = 0; at < slots[i]->cursor; at += kFillBatch) {
        e2e.replay.ops.push_back(
            Op{static_cast<uint32_t>(i), static_cast<uint32_t>(at),
               static_cast<uint32_t>(
                   std::min(slots[i]->cursor, at + kFillBatch)),
               false});
      }
    }
  }

  // ---- measured phase -------------------------------------------------
  std::mutex log_mu;  // guards e2e.replay.ops, the traced run's op log
  std::atomic<uint64_t> attempted{0};
  std::mutex errors_mu;
  std::vector<std::string> errors;
  const auto fail = [&](const char* what, const Status& status) {
    std::lock_guard<std::mutex> lock(errors_mu);
    errors.push_back(StrCat(what, ": ", status.ToString()));
  };
  std::atomic<bool> stop{false};
  std::vector<Latencies> per_thread(shape.connections + 1);
  const auto log_op = [&](size_t slot, size_t begin, size_t end,
                          bool query) {
    if (!config.trace) return;
    std::lock_guard<std::mutex> lock(log_mu);
    e2e.replay.ops.push_back(Op{static_cast<uint32_t>(slot),
                                static_cast<uint32_t>(begin),
                                static_cast<uint32_t>(end), query});
  };
  std::map<std::string, double> stats_before;
  if (auto client = Dial(proc); client.ok()) {
    stats_before = ScrapeStats(*client);
  }
  const double cpu_start = CpuMicros(proc.pid);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));

  // One closed-loop connection: pick a slot, APPEND its next batch, and
  // QUERY / rotate it as the shape says.
  const auto appender = [&](size_t conn) {
    Latencies& lat = per_thread[conn];
    auto client = Dial(proc);
    if (!client.ok()) {
      fail("dial", client.status());
      return;
    }
    comptx::Rng rng(config.seed * 7919 + conn);
    comptx::ZipfGenerator zipf(shape.sessions, shape.zipf_theta);
    size_t owned = conn;  // round-robin cursor over owned slots
    double last_ack = 0;  // seconds since start of the previous APPEND ack
    while (Clock::now() < deadline) {
      size_t index = owned;
      if (shape.zipf_theta > 0) {
        index = zipf.Sample(rng);
      } else {
        owned += shape.connections;
        if (owned >= shape.sessions) owned = conn;
      }
      Slot& slot = *slots[index];
      // A slot the other connection is using is redrawn rather than
      // waited for, so both connections stay busy.
      std::unique_lock<std::mutex> lock(slot.mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      if (slot.cursor >= slot.events.size()) {
        attempted += 2;
        auto closed = client->Close(slot.id);
        auto opened = client->Open();
        if (!closed.ok() || !opened.ok()) {
          fail("rotate", closed.ok() ? opened.status() : closed.status());
          continue;
        }
        slot.closed.push_back(*closed);
        slot.id = *opened;
        slot.cursor = 0;
      }
      const size_t end =
          std::min(slot.events.size(), slot.cursor + shape.batch);
      std::vector<TraceEvent> batch(slot.events.begin() + slot.cursor,
                                    slot.events.begin() + end);
      ++attempted;
      const auto t0 = Clock::now();
      auto queued = client->Append(slot.id, batch);
      if (!queued.ok()) {
        fail("APPEND", queued.status());
        continue;
      }
      lat.append_us.Add(MicrosSince(t0));
      const double acked_at = SecondsSince(start);
      lat.Credit(last_ack, acked_at, static_cast<double>(end - slot.cursor));
      last_ack = acked_at;
      log_op(index, slot.cursor, end, false);
      slot.measured_events += end - slot.cursor;
      slot.cursor = end;
      if (shape.query_after_append) {
        ++attempted;
        const auto q0 = Clock::now();
        auto verdict = client->Query(slot.id);
        if (!verdict.ok()) {
          fail("QUERY", verdict.status());
          continue;
        }
        lat.query_us.Add(MicrosSince(q0));
        log_op(index, 0, 0, true);
      }
    }
  };
  const auto poller = [&] {
    Latencies& lat = per_thread[shape.connections];
    auto client = Dial(proc);
    if (!client.ok()) {
      fail("dial", client.status());
      return;
    }
    for (size_t i = 0; !stop.load(); i = (i + 1) % shape.sessions) {
      // Holding the slot keeps an appender from rotating its session
      // under the QUERY; a busy slot is skipped.
      std::unique_lock<std::mutex> lock(slots[i]->mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      ++attempted;
      const auto q0 = Clock::now();
      auto verdict = client->Query(slots[i]->id);
      if (!verdict.ok()) {
        fail("poller QUERY", verdict.status());
        continue;
      }
      lat.query_us.Add(MicrosSince(q0));
      log_op(i, 0, 0, true);
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < shape.connections; ++c) {
    threads.emplace_back(appender, c);
  }
  std::thread poll_thread;
  if (shape.poller) poll_thread = std::thread(poller);
  for (auto& t : threads) t.join();
  stop = true;
  if (poll_thread.joinable()) poll_thread.join();

  // Drain barrier: once every slot answered QUERY, each acked event is
  // certified, so the throughput counts certified events.
  auto control = Dial(proc);
  if (!control.ok()) {
    out.Fail(StrCat("control dial: ", control.status().ToString()));
    KillServer(proc);
    return e2e;
  }
  if (Status s = QueryAll(*control, slots, out); !s.ok()) {
    out.Fail(StrCat("final QUERY: ", s.ToString()));
  }
  const double measured_s = SecondsSince(start);
  const double cpu_us = CpuMicros(proc.pid) - cpu_start;
  const double rss_mb = PeakRssMb(proc.pid);
  e2e.stats = Delta(ScrapeStats(*control), stats_before);

  double events = 0;
  for (const auto& slot : slots) {
    events += static_cast<double>(slot->measured_events);
  }
  // events_per_s is the median over the phase's whole 1-second slices of
  // the events acked in each (certification keeps pace: long_window
  // QUERYs after every APPEND, and the drain QUERY above returns within
  // milliseconds on wire_b1), so load from outside the benchmark that
  // slows a few seconds of the run does not move it.
  Latencies lat;
  lat.slice_events.assign(static_cast<size_t>(config.seconds), 0);
  for (const Latencies& l : per_thread) {
    lat.append_us.Append(l.append_us);
    lat.query_us.Append(l.query_us);
    for (size_t i = 0;
         i < std::min(l.slice_events.size(), lat.slice_events.size()); ++i) {
      lat.slice_events[i] += l.slice_events[i];
    }
  }
  e2e.appends = static_cast<double>(lat.append_us.count());
  out.attempted += attempted.load();
  for (const std::string& error : errors) out.Fail(error);
  out.Set("events_per_s", Median(lat.slice_events), "1/s");
  out.Detail(StrCat("events: ", events, " in ", measured_s,
                    " s including the drain (mean ", events / measured_s,
                    "/s)"));
  out.Set("server_cpu_us_per_event", cpu_us / std::max(events, 1.0), "us");
  out.Set("server_peak_rss_mb", rss_mb, "MiB");
  ReportLatencies(lat, out, e2e.append_p50_us);
  CheckVerdicts(config, slots, out);

  // ---- crash + recovery -------------------------------------------------
  // A fixed-size crash leg: close the measured sessions, fill fresh ones
  // with the same prefix of their streams, check them, then SIGKILL and
  // restart the daemon once.
  for (auto& slot : slots) {
    ++out.attempted;
    if (auto closed = control->Close(slot->id); !closed.ok()) {
      out.Fail(StrCat("CLOSE: ", closed.status().ToString()));
    }
    slot->closed.clear();
  }
  const size_t crash_count =
      shape.crash_sessions == 0 ? slots.size() : shape.crash_sessions;
  Slots idle(std::make_move_iterator(slots.begin() + crash_count),
             std::make_move_iterator(slots.end()));
  slots.resize(crash_count);
  if (Status s = OpenAndFill(
          proc, slots, [](const Slot&) { return kCrashEvents; }, kFillBatch,
          out);
      !s.ok()) {
    out.Fail(StrCat("crash-leg fill: ", s.ToString()));
  }
  if (Status s = QueryAll(*control, slots, out); !s.ok()) {
    out.Fail(StrCat("pre-kill QUERY: ", s.ToString()));
  }
  CheckVerdicts(config, slots, out);
  // Context, not a metric: one restart is too few samples to score (see
  // README.md).
  out.Detail(StrCat("recovery_s: ",
                    CrashAndRecover(config, proc, slots, out)));
  for (auto& slot : idle) slots.push_back(std::move(slot));
  const Status stopped = StopServer(proc);
  if (!stopped.ok()) out.Fail(StrCat("shutdown: ", stopped.ToString()));

  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    auto seconds = TimedSetUp(config, slots, proc, out);
    if (!seconds.ok()) {
      out.Fail(StrCat("set-up: ", seconds.status().ToString()));
      break;
    }
    setup_s.push_back(*seconds);
    const Status stopped = StopServer(proc);
    if (!stopped.ok()) out.Fail(StrCat("stop: ", stopped.ToString()));
  }
  out.Set("setup_s", Median(setup_s), "s");
  std::string setups = "setups (s):";
  for (const double t : setup_s) setups += StrCat(" ", t);
  out.Detail(setups);

  if (config.trace) {
    for (auto& slot : slots) {
      e2e.replay.streams.push_back(std::move(slot->events));
    }
  }
  return e2e;
}


}  // namespace perfbench
