#include "online/state_io.h"

#include <utility>

#include "util/status.h"
#include "workload/trace.h"

namespace comptx::online {

StatusOr<CertifierState> CaptureCertifierState(const Certifier& certifier) {
  CertifierState state;
  COMPTX_ASSIGN_OR_RETURN(state.trace, workload::SaveTrace(certifier.system()));
  for (const NodeId root : certifier.SealedRoots()) {
    state.sealed.push_back(root.index());
  }
  const CertifierStats stats = certifier.Stats();
  state.accepted = stats.events_accepted;
  state.rejected = stats.events_rejected;
  state.commit_watermark = stats.commit_watermark;
  state.certifiable = certifier.Certifiable();
  return state;
}

StatusOr<std::unique_ptr<Certifier>> RestoreCertifierState(
    const CertifierState& state, const CertifierOptions& options) {
  COMPTX_ASSIGN_OR_RETURN(auto events, workload::ParseTraceEvents(state.trace));
  auto certifier = std::make_unique<Certifier>(options);
  // SaveTrace uses creation-order indices, so replaying its events through
  // Ingest reproduces the identical id assignment; every event must be
  // accepted (the trace is the accepted history, seals come below).
  for (size_t i = 0; i < events.size(); ++i) {
    const Status status = certifier->Ingest(events[i]);
    if (!status.ok()) {
      return Status::Internal("state replay rejected event " +
                              std::to_string(i) + ": " + status.ToString());
    }
  }
  for (const uint32_t root : state.sealed) {
    const Status status = certifier->Commit(NodeId(root));
    if (!status.ok()) {
      return Status::Internal("state replay cannot re-seal root " +
                              std::to_string(root) + ": " + status.ToString());
    }
  }
  if (options.auto_prune) certifier->Prune();
  // Commit() above routed through Ingest and bumped the accepted counter,
  // and re-sealing by root leaves the watermark at 0; overwrite all three
  // last so the restored session reports the original stream's values.
  certifier->RestoreCounters(state.accepted, state.rejected,
                             state.commit_watermark);
  if (certifier->Certifiable() != state.certifiable) {
    return Status::Internal(
        "restored verdict disagrees with captured verdict (state image "
        "corrupt or replay-equivalence broken)");
  }
  return certifier;
}

}  // namespace comptx::online
