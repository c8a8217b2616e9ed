#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace comptx::durability {

namespace {

// ---------------------------------------------------------------------------
// Little-endian primitive codec.  The WAL is a disk format, so widths and
// byte order are pinned rather than inherited from the host (even though
// every supported host is little-endian today).

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Bounds-checked cursor over a decoded payload.  Every Get* reports
// exhaustion through `ok`; decode functions check it once at the end so a
// short payload is one error path, not eight.
struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  uint8_t GetU8() {
    if (pos + 1 > size) {
      ok = false;
      return 0;
    }
    return data[pos++];
  }
  uint32_t GetU32() {
    if (pos + 4 > size) {
      ok = false;
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  uint64_t GetU64() {
    if (pos + 8 > size) {
      ok = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
  std::string GetBytes(size_t n) {
    if (pos + n > size || n > size) {
      ok = false;
      return std::string();
    }
    std::string v(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return v;
  }
};

void PutEvent(std::string& out, const workload::TraceEvent& event) {
  PutU8(out, static_cast<uint8_t>(event.kind));
  PutU32(out, event.schedule);
  PutU32(out, event.parent);
  PutU32(out, event.a);
  PutU32(out, event.b);
  PutU32(out, static_cast<uint32_t>(event.name.size()));
  out.append(event.name);
}

bool GetEvent(Cursor& cur, workload::TraceEvent& event) {
  const uint8_t kind = cur.GetU8();
  event.schedule = cur.GetU32();
  event.parent = cur.GetU32();
  event.a = cur.GetU32();
  event.b = cur.GetU32();
  const uint32_t name_len = cur.GetU32();
  event.name = cur.GetBytes(name_len);
  if (!cur.ok) return false;
  if (kind > static_cast<uint8_t>(workload::TraceEventKind::kTag)) {
    return false;
  }
  event.kind = static_cast<workload::TraceEventKind>(kind);
  return true;
}

bool DecodePayload(const uint8_t* data, size_t size, WalRecord& record,
                   std::string& error) {
  Cursor cur{data, size};
  const uint8_t type = cur.GetU8();
  record.seq = cur.GetU64();
  if (!cur.ok || type < static_cast<uint8_t>(WalRecordType::kOpen) ||
      type > static_cast<uint8_t>(WalRecordType::kStreamCursor)) {
    error = "unknown record type";
    return false;
  }
  record.type = static_cast<WalRecordType>(type);
  switch (record.type) {
    case WalRecordType::kOpen: {
      const uint32_t len = cur.GetU32();
      record.options = cur.GetBytes(len);
      break;
    }
    case WalRecordType::kAppend: {
      const uint32_t count = cur.GetU32();
      if (!cur.ok || count > kMaxWalPayloadBytes / 21) {
        error = "implausible event count";
        return false;
      }
      record.events.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!GetEvent(cur, record.events[i])) {
          error = "undecodable event";
          return false;
        }
      }
      break;
    }
    case WalRecordType::kSeal: {
      record.accepted = cur.GetU64();
      record.rejected = cur.GetU64();
      record.certifiable = cur.GetU8() != 0;
      break;
    }
    case WalRecordType::kCommitWatermark: {
      record.commit_through = cur.GetU64();
      break;
    }
    case WalRecordType::kStreamCursor: {
      record.edge = cur.GetU64();
      record.cursor_seq = cur.GetU64();
      const uint32_t len = cur.GetU32();
      record.mapping = cur.GetBytes(len);
      break;
    }
    case WalRecordType::kEvict:
    case WalRecordType::kResume:
    case WalRecordType::kClose:
      break;
  }
  if (!cur.ok) {
    error = "short payload";
    return false;
  }
  if (cur.pos != size) {
    error = "trailing bytes in payload";
    return false;
  }
  return true;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

// Fsyncs the directory containing `path` so a just-renamed file's
// directory entry is durable (the tmp+rename atomic-publish idiom).
Status SyncParentDir(const std::string& path) {
  std::string dir = ".";
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  if (dir.empty()) dir = "/";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open dir", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync dir", dir);
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  // Table generated once from the reflected polynomial 0xEDB88320.
  static const uint32_t* const kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

StatusOr<FsyncPolicy> ParseFsyncPolicy(const std::string& text) {
  if (text == "none") return FsyncPolicy::kNone;
  if (text == "interval") return FsyncPolicy::kInterval;
  if (text == "always") return FsyncPolicy::kAlways;
  return Status::InvalidArgument("unknown fsync policy '" + text +
                                 "' (want always|interval|none)");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "?";
}

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kOpen:
      return "OPEN";
    case WalRecordType::kAppend:
      return "APPEND";
    case WalRecordType::kSeal:
      return "SEAL";
    case WalRecordType::kEvict:
      return "EVICT";
    case WalRecordType::kResume:
      return "RESUME";
    case WalRecordType::kClose:
      return "CLOSE";
    case WalRecordType::kCommitWatermark:
      return "COMMIT";
    case WalRecordType::kStreamCursor:
      return "CURSOR";
  }
  return "?";
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload;
  PutU8(payload, static_cast<uint8_t>(record.type));
  PutU64(payload, record.seq);
  switch (record.type) {
    case WalRecordType::kOpen:
      PutU32(payload, static_cast<uint32_t>(record.options.size()));
      payload.append(record.options);
      break;
    case WalRecordType::kAppend:
      PutU32(payload, static_cast<uint32_t>(record.events.size()));
      for (const auto& event : record.events) PutEvent(payload, event);
      break;
    case WalRecordType::kSeal:
      PutU64(payload, record.accepted);
      PutU64(payload, record.rejected);
      PutU8(payload, record.certifiable ? 1 : 0);
      break;
    case WalRecordType::kCommitWatermark:
      PutU64(payload, record.commit_through);
      break;
    case WalRecordType::kStreamCursor:
      PutU64(payload, record.edge);
      PutU64(payload, record.cursor_seq);
      PutU32(payload, static_cast<uint32_t>(record.mapping.size()));
      payload.append(record.mapping);
      break;
    case WalRecordType::kEvict:
    case WalRecordType::kResume:
    case WalRecordType::kClose:
      break;
  }
  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  PutU32(frame, Crc32(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

StatusOr<WalReadResult> ReadWalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  if (content.size() < sizeof(kWalMagic) ||
      std::memcmp(content.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a comptx WAL (bad magic)");
  }

  WalReadResult result;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(content.data());
  size_t pos = sizeof(kWalMagic);
  result.valid_bytes = pos;
  while (pos < content.size()) {
    const auto fail = [&](const std::string& why) {
      result.clean = false;
      result.damage = "lsn " + std::to_string(result.records.size()) +
                      " at offset " + std::to_string(pos) + ": " + why;
    };
    if (pos + 8 > content.size()) {
      fail("torn frame header");
      break;
    }
    Cursor header{data + pos, 8};
    const uint32_t len = header.GetU32();
    const uint32_t crc = header.GetU32();
    if (len < 9 || len > kMaxWalPayloadBytes) {
      fail("frame length " + std::to_string(len) + " out of range");
      break;
    }
    if (pos + 8 + len > content.size()) {
      fail("torn frame payload");
      break;
    }
    if (Crc32(data + pos + 8, len) != crc) {
      fail("crc mismatch");
      break;
    }
    WalRecord record;
    std::string error;
    if (!DecodePayload(data + pos + 8, len, record, error)) {
      fail(error);
      break;
    }
    result.records.push_back(std::move(record));
    pos += 8 + len;
    result.valid_bytes = pos;
  }
  result.truncation_lsn = result.records.size();
  return result;
}

Status RepairWalFile(const std::string& path, const WalReadResult& result) {
  if (result.clean) return Status::OK();
  if (::truncate(path.c_str(), static_cast<off_t>(result.valid_bytes)) != 0) {
    return ErrnoStatus("truncate", path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// WalWriter

WalWriter::WalWriter(std::string path, int fd, FsyncPolicy policy,
                     Counters* counters, uint64_t next_lsn)
    : path_(std::move(path)),
      policy_(policy),
      counters_(counters),
      fd_(fd),
      next_lsn_(next_lsn) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                       FsyncPolicy policy,
                                                       Counters* counters) {
  const int fd = ::open(path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  std::unique_ptr<WalWriter> writer(
      new WalWriter(path, fd, policy, counters, 0));
  COMPTX_RETURN_IF_ERROR(writer->WriteFully(kWalMagic, sizeof(kWalMagic)));
  if (counters != nullptr) {
    counters->wal_bytes.fetch_add(sizeof(kWalMagic),
                                  std::memory_order_relaxed);
  }
  return writer;
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::OpenExisting(
    const std::string& path, FsyncPolicy policy, Counters* counters,
    const WalReadResult& scan) {
  if (!scan.clean) {
    return Status::FailedPrecondition(
        "refusing to append to a torn WAL (repair first): " + scan.damage);
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, fd, policy, counters, scan.records.size()));
}

Status WalWriter::WriteFully(const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t left = size;
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path_);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WalWriter::FailLocked(Status error) {
  if (failed_.ok()) {
    failed_ = std::move(error);
    COMPTX_LOG(Error) << "WAL " << path_
                      << " is failed; refusing every later append and sync: "
                      << failed_;
  }
  return failed_;
}

StatusOr<uint64_t> WalWriter::Append(const WalRecord& record) {
  const std::string frame = EncodeWalRecord(record);
  std::lock_guard<std::mutex> lock(mu_);
  if (!failed_.ok()) return failed_;
  // A failed write may have left a torn frame; anything appended behind
  // it would be unreachable on recovery, so the first error is final.
  if (Status written = WriteFully(frame.data(), frame.size()); !written.ok()) {
    return FailLocked(std::move(written));
  }
  ++appended_;
  if (counters_ != nullptr) {
    counters_->wal_bytes.fetch_add(frame.size(), std::memory_order_relaxed);
    if (record.type == WalRecordType::kAppend) {
      counters_->wal_appends.fetch_add(1, std::memory_order_relaxed);
      counters_->wal_append_events.fetch_add(record.events.size(),
                                             std::memory_order_relaxed);
    }
  }
  return next_lsn_.fetch_add(1, std::memory_order_relaxed);
}

Status WalWriter::SyncForAck() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!failed_.ok()) return failed_;
  if (policy_ != FsyncPolicy::kAlways) return Status::OK();
  return SyncLocked(lock);
}

Status WalWriter::SyncNow() {
  std::unique_lock<std::mutex> lock(mu_);
  return SyncLocked(lock);
}

Status WalWriter::SyncLocked(std::unique_lock<std::mutex>& lock) {
  // Group commit: the target is the append watermark at entry.  Whoever
  // finds no sync in flight becomes the leader and fsyncs everything
  // appended so far; late arrivals whose appends are already covered
  // return without touching the disk.
  const uint64_t target = appended_;
  while (durable_ < target) {
    // A failed fsync may already have dropped the dirty pages, so a
    // retry that returns 0 proves nothing: the first error is final.
    if (!failed_.ok()) return failed_;
    if (sync_in_progress_) {
      cv_.wait(lock);
      continue;
    }
    sync_in_progress_ = true;
    const uint64_t covered = appended_;
    // Capture the fd before dropping the lock: CompactThrough swaps fd_,
    // and it waits for sync_in_progress_ to clear, so this descriptor
    // stays open for the whole fsync.
    const int fd = fd_;
    lock.unlock();
    const Status synced =
        ::fsync(fd) == 0 ? Status::OK() : ErrnoStatus("fsync", path_);
    lock.lock();
    sync_in_progress_ = false;
    if (!synced.ok()) FailLocked(synced);
    if (synced.ok() && covered > durable_) durable_ = covered;
    if (counters_ != nullptr) {
      counters_->fsyncs.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }
  return failed_;
}

Status WalWriter::CompactThrough(uint64_t watermark, const WalRecord& open,
                                 const WalRecord& seal) {
  std::unique_lock<std::mutex> lock(mu_);
  // A group-commit leader may be mid-fsync on fd_ with mu_ released;
  // wait it out so closing/swapping fd_ below never races the fsync.
  while (sync_in_progress_) cv_.wait(lock);
  if (!failed_.ok()) return failed_;
  // Re-scan our own file (every frame was written unbuffered, and the
  // lock holds appends off, so the scan is complete and clean).
  COMPTX_ASSIGN_OR_RETURN(WalReadResult scan, ReadWalFile(path_));
  if (!scan.clean) {
    return Status::Internal("own WAL scans dirty during compaction: " +
                            scan.damage);
  }
  std::vector<WalRecord> records;
  records.push_back(open);
  for (auto& record : scan.records) {
    if (record.type == WalRecordType::kCommitWatermark) {
      // A commit watermark occupies exactly one event seq slot; keep it
      // only while the snapshot does not cover it.
      if (record.seq > watermark) records.push_back(std::move(record));
      continue;
    }
    if (record.type == WalRecordType::kStreamCursor) {
      // Cursor records carry incremental remap deltas: recovering an
      // edge's translation tables folds every delta, so compaction must
      // never drop one (they are a few dozen bytes each).
      records.push_back(std::move(record));
      continue;
    }
    if (record.type != WalRecordType::kAppend || record.events.empty()) {
      continue;
    }
    if (record.seq + record.events.size() - 1 > watermark) {
      records.push_back(std::move(record));
    }
  }
  records.push_back(seal);
  // +2 for the frames just added: dropped counts frames of the old file
  // that the new file no longer carries.
  const uint64_t dropped = scan.records.size() + 2 - records.size();

  std::string content(kWalMagic, sizeof(kWalMagic));
  for (const auto& record : records) content += EncodeWalRecord(record);

  const std::string tmp = path_ + ".tmp";
  const int tmp_fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (tmp_fd < 0) return ErrnoStatus("open", tmp);
  size_t left = content.size();
  const char* p = content.data();
  while (left > 0) {
    const ssize_t n = ::write(tmp_fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(tmp_fd);
      ::unlink(tmp.c_str());
      return ErrnoStatus("write", tmp);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (::fsync(tmp_fd) != 0) {
    ::close(tmp_fd);
    ::unlink(tmp.c_str());
    return ErrnoStatus("fsync", tmp);
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::close(tmp_fd);
    ::unlink(tmp.c_str());
    return ErrnoStatus("rename", tmp);
  }
  COMPTX_RETURN_IF_ERROR(SyncParentDir(path_));
  // The old fd now points at the unlinked inode; appends must go to the
  // rewritten file.
  ::close(fd_);
  fd_ = tmp_fd;  // same inode as the renamed file: keep appending to it
  if (counters_ != nullptr) {
    counters_->fsyncs.fetch_add(1, std::memory_order_relaxed);
    counters_->wal_bytes.fetch_add(content.size(), std::memory_order_relaxed);
    counters_->records_truncated.fetch_add(dropped, std::memory_order_relaxed);
  }
  // Everything in the new file is already durable; wake any SyncLocked
  // waiter whose target the compaction just covered.
  ++appended_;
  durable_ = appended_;
  next_lsn_.store(records.size(), std::memory_order_relaxed);
  cv_.notify_all();
  return Status::OK();
}

}  // namespace comptx::durability
