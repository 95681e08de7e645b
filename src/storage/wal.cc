#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "fault/fault.h"
#include "storage/fsio.h"

namespace aedb::storage {

namespace {

/// FNV-1a 32-bit.
uint32_t Fnv1a(Slice data) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 16777619u;
  }
  return h;
}

void AppendFramed(Bytes* out, const LogRecord& rec) {
  Bytes body;
  rec.SerializeTo(&body);
  AppendFramedBlob(out, body);
}

constexpr size_t kFrameOverhead = 8;  // u32 length + u32 checksum

}  // namespace

uint32_t FrameChecksum(Slice body) { return Fnv1a(body); }

void AppendFramedBlob(Bytes* out, Slice body) {
  PutU32(out, static_cast<uint32_t>(body.size()));
  PutU32(out, Fnv1a(body));
  out->insert(out->end(), body.data(), body.data() + body.size());
}

FramedBlobs ParseFramedBlobs(Slice image) {
  FramedBlobs out;
  size_t off = 0;
  while (off + kFrameOverhead <= image.size()) {
    size_t cursor = off;
    auto len_res = GetU32(image, &cursor);
    auto sum_res = GetU32(image, &cursor);
    if (!len_res.ok() || !sum_res.ok()) break;
    if (cursor + *len_res > image.size()) break;  // truncated body: torn tail
    Slice body(image.data() + cursor, *len_res);
    if (Fnv1a(body) != *sum_res) break;
    out.blobs.push_back(body.ToBytes());
    off = cursor + *len_res;
    out.bytes_consumed = off;
  }
  out.torn_tail = out.bytes_consumed != image.size();
  return out;
}

void LogRecord::SerializeTo(Bytes* out) const {
  PutU64(out, lsn);
  PutU64(out, txn_id);
  out->push_back(static_cast<uint8_t>(type));
  PutU32(out, object_id);
  PutU64(out, rid.Encode());
  PutLengthPrefixed(out, payload1);
}

Result<LogRecord> LogRecord::Deserialize(Slice in, size_t* offset) {
  LogRecord rec;
  AEDB_ASSIGN_OR_RETURN(rec.lsn, GetU64(in, offset));
  AEDB_ASSIGN_OR_RETURN(rec.txn_id, GetU64(in, offset));
  if (*offset >= in.size()) return Status::Corruption("truncated log record");
  rec.type = static_cast<LogRecordType>(in[(*offset)++]);
  if (rec.type < LogRecordType::kBegin ||
      rec.type > LogRecordType::kPrepare) {
    return Status::Corruption("unknown log record type");
  }
  AEDB_ASSIGN_OR_RETURN(rec.object_id, GetU32(in, offset));
  uint64_t rid_enc;
  AEDB_ASSIGN_OR_RETURN(rid_enc, GetU64(in, offset));
  rec.rid = Rid::Decode(rid_enc);
  AEDB_ASSIGN_OR_RETURN(rec.payload1, GetLengthPrefixed(in, offset));
  return rec;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

bool Wal::file_backed() const {
  std::lock_guard<std::mutex> lock(mu_);
  // A poisoned log is still file-backed — it just cannot write right now.
  return fd_ >= 0 || poisoned_;
}

Status Wal::WriteToFileLocked(const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd_, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      // Whatever prefix reached the file is a torn frame; reopen-time parsing
      // drops it. The in-memory mirror stays at the last intact frame.
      return Status::Internal(std::string("wal write: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<WalLoadResult> Wal::AttachFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) return Status::FailedPrecondition("wal already file-backed");
  const bool existed = fsio::FileExists(path);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal("open " + path + ": " + std::strerror(errno));
  }
  if (!existed) {
    // The file's existence is directory metadata: without this fsync a crash
    // can forget the (empty) log file even though later appends hit its fd.
    Status st = fsio::SyncDir(fsio::DirName(path));
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
  }
  Bytes contents;
  {
    auto read = fsio::ReadFileBytes(path);
    if (!read.ok()) {
      ::close(fd);
      return read.status();
    }
    contents = std::move(read).value();
  }
  WalLoadResult parsed = ParseImage(contents);
  if (parsed.bytes_consumed < contents.size()) {
    // Physically drop the torn tail — the real-log analog of zeroing past
    // end-of-log — so a later crash cannot resurrect half a frame.
    torn_dropped_ += contents.size() - parsed.bytes_consumed;
    if (::ftruncate(fd, static_cast<off_t>(parsed.bytes_consumed)) != 0) {
      Status st = Status::Internal(std::string("ftruncate ") + path + ": " +
                                   std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (::fsync(fd) != 0) {
      Status st = Status::Internal(std::string("fsync ") + path + ": " +
                                   std::strerror(errno));
      ::close(fd);
      return st;
    }
    ++fsyncs_;
    fsio::CountFsync();
  }
  records_ = parsed.records;
  next_lsn_ = std::max(
      next_lsn_, records_.empty() ? uint64_t{1} : records_.back().lsn + 1);
  image_.assign(contents.data(), contents.data() + parsed.bytes_consumed);
  fd_ = fd;
  path_ = path;
  return parsed;
}

Result<uint64_t> Wal::Append(LogRecord record) {
  AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("wal/append"));
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::Internal("wal poisoned (lost append fd or failed fsync) at " + path_);
  }
  record.lsn = next_lsn_++;
  uint64_t lsn = record.lsn;

  Bytes frame;
  AppendFramed(&frame, record);

  fault::FaultSpec torn;
  if (AEDB_FAULT_FIRED("wal/torn_append", &torn)) {
    // Crash mid-write: only a prefix of the frame reaches the image, the
    // record never becomes part of the log proper.
    size_t keep = torn.arg != 0 && torn.arg < frame.size() ? torn.arg
                                                           : frame.size() / 2;
    image_.insert(image_.end(), frame.begin(), frame.begin() + keep);
    // The append already "fails" (that is the fault); a file-write error on
    // top only changes how much of the torn tail reaches disk, but record it
    // so disk/mirror divergence stays observable.
    if (fd_ >= 0 && !WriteToFileLocked(frame.data(), keep).ok()) ++file_errors_;
    return torn.status.ok() ? Status::Internal("torn log write") : torn.status;
  }

  if (fd_ >= 0) {
    AEDB_RETURN_IF_ERROR(WriteToFileLocked(frame.data(), frame.size()));
  }
  image_.insert(image_.end(), frame.begin(), frame.end());
  records_.push_back(std::move(record));
  return lsn;
}

Status Wal::Sync() {
  AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("wal/sync"));
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::Internal("wal poisoned (lost append fd or failed fsync) at " + path_);
  }
  if (fd_ < 0) return Status::OK();
  if (::fsync(fd_) != 0) {
    // The kernel reports a writeback error once, then clears it: a retried
    // fsync on this (or a fresh) fd can "succeed" without the lost writes
    // being durable. Poison the log so every later barrier fails until an
    // atomic rewrite (e.g. checkpoint truncation) re-lands the whole image.
    poisoned_ = true;
    ++file_errors_;
    return Status::Internal(std::string("wal fsync: ") + std::strerror(errno));
  }
  ++fsyncs_;
  fsio::CountFsync();
  return Status::OK();
}

Status Wal::SyncUpTo(uint64_t lsn) {
  // Per-caller fault check, before joining any cohort: a committer whose
  // sync "fails" here must not be made durable by a neighboring leader's
  // fsync — that would ack a commit the fault said did not reach disk.
  AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("wal/sync"));
  std::unique_lock<std::mutex> lock(mu_);
  ++sync_requests_;
  for (;;) {
    if (poisoned_) {
      return Status::Internal("wal poisoned (lost append fd or failed fsync) at " + path_);
    }
    if (fd_ < 0) return Status::OK();  // in-memory: trivially durable
    if (synced_lsn_ >= lsn) return Status::OK();  // a leader covered us
    if (sync_in_progress_) {
      // Follow: the running (or next) leader's barrier will cover our lsn,
      // because our record was appended before this call.
      sync_cv_.wait(lock);
      continue;
    }
    sync_in_progress_ = true;
    if (group_commit_window_us_ > 0) {
      // Linger with mu_ released so more committers can append + enqueue.
      uint64_t window = group_commit_window_us_;
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(window));
      lock.lock();
    }
    // Everything appended so far rides this barrier.
    uint64_t covered = next_lsn_ - 1;
    // fsync outside mu_ — this is what lets followers append their commit
    // records while the leader syncs, forming the next cohort. The dup
    // guards against the append fd being replaced concurrently (rewrites
    // only run quiesced, but an fd number must never be reused under us).
    int fd = ::dup(fd_);
    lock.unlock();
    int rc = fd >= 0 ? ::fsync(fd) : -1;
    int err = errno;
    if (fd >= 0) ::close(fd);
    lock.lock();
    sync_in_progress_ = false;
    if (rc != 0) {
      // Do NOT let a follower elect itself leader and retry: the kernel
      // clears the writeback error after reporting it once, so the retried
      // fsync could return success without the failed writes being durable —
      // acking commits that never reached disk. Poison the log instead:
      // every queued and future barrier fails until an atomic rewrite (e.g.
      // checkpoint truncation) re-lands the whole image on a fresh inode.
      poisoned_ = true;
      ++file_errors_;
      sync_cv_.notify_all();
      return Status::Internal(std::string("wal fsync: ") + std::strerror(err));
    }
    sync_cv_.notify_all();
    synced_lsn_ = std::max(synced_lsn_, covered);
    ++fsyncs_;
    ++group_commit_batches_;
    fsio::CountFsync();
    // Loop re-checks: our lsn is ≤ covered (appended before the call).
  }
}

Status Wal::SyncAppended() {
  uint64_t tail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tail = next_lsn_ - 1;
    if (!poisoned_ && (fd_ < 0 || synced_lsn_ >= tail)) return Status::OK();
  }
  return SyncUpTo(tail);
}

void Wal::set_group_commit_window_us(uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  group_commit_window_us_ = us;
}

uint64_t Wal::group_commit_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_commit_batches_;
}

uint64_t Wal::sync_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_requests_;
}

std::vector<LogRecord> Wal::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

void Wal::EnsureNextLsn(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  next_lsn_ = std::max(next_lsn_, lsn);
}

Bytes Wal::RawBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return image_;
}

WalLoadResult Wal::ParseImage(Slice image) {
  WalLoadResult out;
  size_t off = 0;
  while (off + kFrameOverhead <= image.size()) {
    size_t cursor = off;
    uint32_t len = 0, checksum = 0;
    auto len_res = GetU32(image, &cursor);
    auto sum_res = GetU32(image, &cursor);
    if (!len_res.ok() || !sum_res.ok()) break;
    len = *len_res;
    checksum = *sum_res;
    if (cursor + len > image.size()) break;  // truncated body: torn tail
    Slice body(image.data() + cursor, len);
    if (Fnv1a(body) != checksum) break;  // bits of the frame missing/mangled
    size_t body_off = 0;
    auto rec = LogRecord::Deserialize(body, &body_off);
    if (!rec.ok() || body_off != len) break;
    out.records.push_back(std::move(*rec));
    off = cursor + len;
    out.bytes_consumed = off;
    out.frame_ends.push_back(off);
  }
  out.torn_tail = out.bytes_consumed != image.size();
  return out;
}

WalLoadResult Wal::LoadImage(Slice image) {
  WalLoadResult parsed = ParseImage(image);
  std::lock_guard<std::mutex> lock(mu_);
  records_ = parsed.records;
  next_lsn_ = records_.empty() ? 1 : records_.back().lsn + 1;
  // next_lsn_ may have moved backwards; a stale fsync watermark would let
  // SyncUpTo treat brand-new records at reused LSNs as already durable.
  synced_lsn_ = 0;
  // The durable image keeps only the intact prefix: recovery discards a torn
  // tail for good, exactly like a real log manager zeroing past end-of-log.
  if (parsed.bytes_consumed < image.size()) {
    torn_dropped_ += image.size() - parsed.bytes_consumed;
  }
  image_.assign(image.data(), image.data() + parsed.bytes_consumed);
  // A failed rewrite is recorded in file_errors_ (and may poison the log);
  // this API has no status channel, so the gauge is the observable.
  if (fd_ >= 0 || poisoned_) (void)RewriteFileLocked();
  return parsed;
}

Status Wal::TruncateBefore(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.erase(records_.begin(),
                 std::find_if(records_.begin(), records_.end(),
                              [lsn](const LogRecord& r) { return r.lsn >= lsn; }));
  RebuildImageLocked();
  if (fd_ >= 0 || poisoned_) return RewriteFileLocked();
  return Status::OK();
}

void Wal::Replace(std::vector<LogRecord> records) {
  std::lock_guard<std::mutex> lock(mu_);
  records_ = std::move(records);
  next_lsn_ = records_.empty() ? 1 : records_.back().lsn + 1;
  // See LoadImage: a rewound LSN space invalidates the fsync watermark.
  synced_lsn_ = 0;
  RebuildImageLocked();
  // Failure is recorded in file_errors_ / poisoned_ (no status channel here).
  if (fd_ >= 0 || poisoned_) (void)RewriteFileLocked();
}

void Wal::RebuildImageLocked() {
  image_.clear();
  for (const LogRecord& rec : records_) AppendFramed(&image_, rec);
}

Status Wal::RewriteFileLocked() {
  Status written = fsio::WriteFileDurable(path_, image_);
  if (!written.ok()) {
    // The rename never happened: the old inode (a superset of image_) is
    // still the live log and the append fd still points at it, so durability
    // is intact — just diverged from the trimmed mirror. Count and report.
    ++file_errors_;
    return written;
  }
  // The rename published a new inode; the old append fd still points at the
  // replaced file. Reopen so future appends land in the live log.
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND);
  if (fd_ < 0) {
    // No writable fd at all now. fd_ == -1 normally means in-memory mode, so
    // without the poisoned flag every later Append/Sync would silently
    // "succeed" with zero durability. Poison instead: writes fail loudly
    // until a later rewrite (e.g. the next checkpoint truncation) heals it.
    poisoned_ = true;
    ++file_errors_;
    return Status::Internal("reopen " + path_ + ": " + std::strerror(errno));
  }
  poisoned_ = false;
  return Status::OK();
}

size_t Wal::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

uint64_t Wal::fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

uint64_t Wal::torn_bytes_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return torn_dropped_;
}

uint64_t Wal::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return image_.size();
}

uint64_t Wal::file_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_errors_;
}

bool Wal::poisoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_;
}

}  // namespace aedb::storage
