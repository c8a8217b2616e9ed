#ifndef COMPTX_ONLINE_STATE_IO_H_
#define COMPTX_ONLINE_STATE_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "online/certifier.h"
#include "util/status_or.h"

namespace comptx::online {

/// A serializable image of a Certifier session, the unit the durability
/// layer snapshots to disk (DESIGN.md §11.3).  It is *not* a dump of the
/// engine's derived structures: it captures exactly the ingested facts —
/// the accumulated composite system as a trace, plus which roots were
/// sealed — and relies on the certifier's replay-equivalence property
/// ("all derived state is a monotone function of the ingested facts") to
/// rebuild everything else.  That keeps the format independent of every
/// engine internal and makes restores verifiable against the batch
/// oracle.
struct CertifierState {
  std::string trace;               // SaveTrace() of the accumulated system
  std::vector<uint32_t> sealed;    // sealed root indices, in seal order
  uint64_t accepted = 0;           // stream counters at capture time
  uint64_t rejected = 0;
  uint64_t commit_watermark = 0;   // highest commit_through at capture time
  bool certifiable = true;         // verdict at capture time (restore check)
};

/// Captures `certifier`'s state.  The caller must hold the session's
/// single-writer role (no concurrent Ingest), the same contract as
/// system().
StatusOr<CertifierState> CaptureCertifierState(const Certifier& certifier);

/// Rebuilds a certifier from a captured state: replays the trace events,
/// re-seals the recorded roots, prunes (when `options.auto_prune`), and
/// restores the stream counters and the commit watermark.  Fails with
/// kInternal when the replay rejects an event or the rebuilt verdict
/// disagrees with the recorded one — either means the state image is
/// corrupt or the replay-equivalence property was broken, and a
/// recovering server must not serve such a session silently.
StatusOr<std::unique_ptr<Certifier>> RestoreCertifierState(
    const CertifierState& state, const CertifierOptions& options);

}  // namespace comptx::online

#endif  // COMPTX_ONLINE_STATE_IO_H_
