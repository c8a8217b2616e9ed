// The traced run: the end-to-end leg's own batches, replayed in-process and
// single-threaded through each served layer's public calls, with a timer
// around every call.  Spans live in memory (one Samples per call site) and
// are summarised when the replay ends.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "distributed/remap.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "online/certifier.h"
#include "service/protocol.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using comptx::StrCat;
using comptx::workload::TraceEventKind;

namespace {

double Ratio(const std::map<std::string, double>& stats, const char* num,
             const char* den) {
  const auto n = stats.find(num);
  const auto d = stats.find(den);
  if (n == stats.end() || d == stats.end() || d->second == 0) return 0;
  return n->second / d->second;
}

double Stat(const std::map<std::string, double>& stats, const char* key) {
  const auto it = stats.find(key);
  return it == stats.end() ? 0 : it->second;
}

/// Per-stream layer state: the WAL face, the certifier, the remapper.
struct Lane {
  std::shared_ptr<comptx::durability::SessionLog> log;
  std::unique_ptr<comptx::online::Certifier> certifier;
  std::unique_ptr<comptx::distributed::SessionRemapper> remapper;
  uint64_t id = 0;
  uint64_t events = 0;
  size_t live_max = 0;
};

}  // namespace

void ReplayLayers(const EndToEnd& e2e, const std::string& dir,
                  double budget_seconds, RunResult& out) {
  const ReplayInput& in = e2e.replay;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  comptx::durability::Counters counters;
  comptx::durability::Options options;
  options.dir = dir;
  options.fsync = comptx::durability::FsyncPolicy::kAlways;
  auto manager = comptx::durability::Manager::Start(options, &counters);
  if (!manager.ok()) {
    out.Fail(StrCat("durability manager: ", manager.status().ToString()));
    return;
  }

  std::vector<Lane> lanes(in.streams.size());
  for (size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].id = i + 1;
    auto log = (*manager)->CreateLog(lanes[i].id, "");
    if (!log.ok()) {
      out.Fail(StrCat("CreateLog: ", log.status().ToString()));
      return;
    }
    lanes[i].log = *log;
    lanes[i].certifier = std::make_unique<comptx::online::Certifier>();
    lanes[i].remapper =
        std::make_unique<comptx::distributed::SessionRemapper>();
  }

  Samples decode_us, log_append_us, sync_us, snapshot_us, snapshot_bytes;
  Samples ingest_us_per_event, verdict_us;
  double remap_us = 0, remap_events = 0;
  comptx::service::FrameParser parser;
  const auto start = Clock::now();
  size_t replayed = 0;
  for (const Op& op : in.ops) {
    if (SecondsSince(start) > budget_seconds) break;
    ++replayed;
    Lane& lane = lanes[op.stream];
    if (!op.query && op.begin == 0 && lane.events != 0) {
      // A rotated session starts its stream again in a fresh session.
      lane.id += lanes.size();
      auto log = (*manager)->CreateLog(lane.id, "");
      if (!log.ok()) {
        out.Fail(StrCat("CreateLog: ", log.status().ToString()));
        return;
      }
      lane.log = *log;
      lane.certifier = std::make_unique<comptx::online::Certifier>();
      lane.remapper =
          std::make_unique<comptx::distributed::SessionRemapper>();
      lane.events = 0;
    }
    if (op.query) {
      const auto t0 = Clock::now();
      const auto verdict = lane.certifier->Verdict();
      verdict_us.Add(MicrosSince(t0));
      (void)verdict;
      continue;
    }
    const auto& stream = in.streams[op.stream];
    comptx::service::Request request;
    request.kind = comptx::service::CommandKind::kAppend;
    request.session = lane.id;
    request.events.assign(stream.begin() + op.begin,
                          stream.begin() + op.end);
    const std::string wire = comptx::service::EncodeRequestFrame(
        comptx::service::WireProtocol::kV2, request);

    // service: frame extraction + request decode.
    auto t0 = Clock::now();
    parser.Feed(wire.data(), wire.size());
    comptx::service::WireFrame frame;
    auto next = parser.Next(frame);
    auto decoded = next.ok() && *next
                       ? comptx::service::DecodeRequestFrame(frame)
                       : StatusOr<comptx::service::Request>(
                             Status::Internal("frame did not complete"));
    decode_us.Add(MicrosSince(t0));
    if (!decoded.ok()) {
      out.Fail(StrCat("decode: ", decoded.status().ToString()));
      return;
    }
    const auto& events = decoded->events;

    // durability: WAL append, then the ack barrier (fsync=always).
    t0 = Clock::now();
    Status status = lane.log->LogAppend(events);
    log_append_us.Add(MicrosSince(t0));
    if (status.ok()) {
      t0 = Clock::now();
      status = lane.log->SyncForAck();
      sync_us.Add(MicrosSince(t0));
    }
    if (!status.ok()) {
      out.Fail(StrCat("WAL: ", status.ToString()));
      return;
    }

    // online: certifier ingest of the batch.
    t0 = Clock::now();
    lane.certifier->IngestBatch(events);
    ingest_us_per_event.Add(MicrosSince(t0) /
                            static_cast<double>(events.size()));
    lane.events += events.size();
    lane.log->OnIngested(events.size());
    lane.live_max =
        std::max(lane.live_max, lane.certifier->Stats().live_nodes);
    if (lane.log->SnapshotDue()) {
      t0 = Clock::now();
      status = lane.log->WriteSnapshot(*lane.certifier);
      snapshot_us.Add(MicrosSince(t0));
      snapshot_bytes.Add(static_cast<double>(fs::file_size(
          comptx::durability::SnapshotPath(dir, lane.id), ec)));
    }

    // distributed: the parent-side remap of the same batch as if it
    // arrived over an upstream edge (streams never carry commits).
    std::vector<TraceEvent> forwarded;
    for (const TraceEvent& e : events) {
      if (e.kind != TraceEventKind::kCommit &&
          e.kind != TraceEventKind::kCommitThrough) {
        forwarded.push_back(e);
      }
    }
    t0 = Clock::now();
    (void)lane.remapper->RemapBatch(op.stream + 1, forwarded);
    remap_us += MicrosSince(t0);
    remap_events += static_cast<double>(forwarded.size());
  }

  // Every lane gets at least one snapshot timing (a short replay may not
  // reach the cadence).
  for (Lane& lane : lanes) {
    if (lane.events == 0) continue;
    const auto t0 = Clock::now();
    const Status status = lane.log->WriteSnapshot(*lane.certifier);
    snapshot_us.Add(MicrosSince(t0));
    snapshot_bytes.Add(static_cast<double>(fs::file_size(
        comptx::durability::SnapshotPath(dir, lane.id), ec)));
    if (!status.ok()) out.Fail(StrCat("snapshot: ", status.ToString()));
  }

  // durability: what recovery costs per logged event, on the crash leg's
  // fixed prefix (kCrashEvents in kFillBatch-sized records, snapshots at
  // the daemon's default cadence) of up to two streams.  Restore cost
  // grows faster than linearly with a session's length, so the replayed
  // lanes (whatever length the budget left them) are not used.
  double recover_us = 0, recovered_events = 0;
  for (size_t i = 0; i < std::min<size_t>(2, in.streams.size()); ++i) {
    const uint64_t id = 1000000 + i;
    auto log = (*manager)->CreateLog(id, "");
    if (!log.ok()) {
      out.Fail(StrCat("CreateLog: ", log.status().ToString()));
      break;
    }
    comptx::online::Certifier certifier;
    const auto& stream = in.streams[i];
    const size_t count = std::min(kCrashEvents, stream.size());
    for (size_t at = 0; at < count; at += kFillBatch) {
      const std::vector<TraceEvent> batch(
          stream.begin() + at,
          stream.begin() + std::min(count, at + kFillBatch));
      Status status = (*log)->LogAppend(batch);
      if (status.ok()) status = (*log)->SyncForAck();
      certifier.IngestBatch(batch);
      (*log)->OnIngested(batch.size());
      if (status.ok() && (*log)->SnapshotDue()) {
        status = (*log)->WriteSnapshot(certifier);
      }
      if (!status.ok()) {
        out.Fail(StrCat("crash-leg log: ", status.ToString()));
        break;
      }
    }
    const auto t0 = Clock::now();
    auto state = comptx::durability::ReadSessionDurableState(dir, id);
    if (!state.ok()) {
      out.Fail(StrCat("read state: ", state.status().ToString()));
      continue;
    }
    auto rebuilt = comptx::durability::RebuildCertifier(
        *state, comptx::online::CertifierOptions{});
    recover_us += MicrosSince(t0);
    recovered_events += static_cast<double>(count);
    if (!rebuilt.ok()) {
      out.Fail(StrCat("rebuild: ", rebuilt.status().ToString()));
    } else if ((*rebuilt)->Verdict().certifiable !=
               certifier.Verdict().certifiable) {
      out.Fail("rebuilt certifier disagrees with the one it was logged from");
    }
  }

  comptx::online::CertifierStats totals;
  size_t live_max = 0;
  for (const Lane& lane : lanes) {
    const auto stats = lane.certifier->Stats();
    totals.pruned_nodes += stats.pruned_nodes;
    totals.prune_passes += stats.prune_passes;
    totals.events_rejected += stats.events_rejected;
    live_max = std::max(live_max, lane.live_max);
  }
  lanes.clear();
  manager->reset();
  fs::remove_all(dir, ec);

  const auto median = [](const Samples& s) {
    return s.Percentile(0.5, 0).value_or(0);
  };
  const double decode = median(decode_us);
  const double log_append = median(log_append_us);
  const double sync = median(sync_us);
  out.Set("service.decode_us", decode, "us");
  out.Set("durability.log_append_us", log_append, "us");
  out.Set("durability.sync_us", sync, "us");
  // The residual: what the wire, the hand-offs and the reply cost beyond
  // the layer calls on the APPEND ack path (ingest runs after the ack).
  const double overhead = e2e.append_p50_us - decode - log_append - sync;
  out.Set("service.overhead_us", overhead, "us");
  out.Detail(StrCat("layer sum: append_p50_us ", e2e.append_p50_us, " = ",
                    "service.decode_us ", decode,
                    " + durability.log_append_us ", log_append,
                    " + durability.sync_us ", sync,
                    " + service.overhead_us ", overhead));
  out.Set("durability.snapshot_us", median(snapshot_us), "us");
  out.Set("durability.snapshot_bytes", median(snapshot_bytes), "bytes");
  out.Set("durability.recover_us_per_event",
          recover_us / std::max(recovered_events, 1.0), "us");
  out.Set("online.ingest_us_per_event", median(ingest_us_per_event), "us");
  out.Set("online.verdict_us", median(verdict_us), "us");
  out.Set("online.live_nodes_max", static_cast<double>(live_max), "count");
  out.Set("online.pruned_nodes", static_cast<double>(totals.pruned_nodes),
          "count");
  out.Set("online.prune_passes", static_cast<double>(totals.prune_passes),
          "count");
  out.Set("online.rejected_events",
          static_cast<double>(totals.events_rejected), "count");
  out.Set("distributed.remap_us_per_event",
          remap_us / std::max(remap_events, 1.0), "us");

  // STATS counters over the untraced leg's measured phase.
  const auto& stats = e2e.stats;
  out.Set("service.backpressure_waits_per_1k_appends",
          1000 * Stat(stats, "backpressure_waits") /
              std::max(e2e.appends, 1.0),
          "count");
  out.Set("durability.events_per_fsync",
          Ratio(stats, "wal_append_events", "fsyncs"), "count");
  out.Set("durability.wal_bytes_per_event",
          Ratio(stats, "wal_bytes", "wal_append_events"), "bytes");
  out.Detail(StrCat("replayed ops: ", replayed, " of ", in.ops.size(),
                    " in ", SecondsSince(start), " s"));
}

}  // namespace perfbench
