#ifndef AEDB_STORAGE_WAL_H_
#define AEDB_STORAGE_WAL_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "storage/page.h"

namespace aedb::storage {

enum class LogRecordType : uint8_t {
  kBegin = 1,  // no longer written; decoded (and skipped) in older logs
  kCommit = 2,
  kAbort = 3,
  kHeapInsert = 4,  // object_id=table, rid, payload1=row image
  kHeapDelete = 5,  // object_id=table, rid, payload1=old row image
  kIndexInsert = 6, // object_id=index, rid, payload1=key
  kIndexDelete = 7, // object_id=index, rid, payload1=key
  /// Compensation record: undo of a kHeapDelete brought the slot back to
  /// life. Every runtime undo logs its compensating action (the other three
  /// undo shapes reuse kHeapDelete / kIndexInsert / kIndexDelete), so redo
  /// replays aborts at the position they actually happened — without this, a
  /// delete + rollback + re-delete of the same row replays as two deletes of
  /// one slot and recovery fails.
  kHeapResurrect = 8,  // object_id=table, rid
  /// Two-phase commit vote record (payload1 = u64 global txn id). A prepared
  /// transaction's effects are durable and its locks stay held; recovery
  /// neither commits nor undoes it — the txn is re-registered in-doubt and
  /// waits for the coordinator's decision (CommitPrepared / Abort).
  kPrepare = 9,
};

/// One WAL record. Row images and index keys are stored exactly as they live
/// on pages — encrypted cells stay encrypted in the log, which is why backups
/// and log shipping leak nothing (paper §1.1 "in transit during backups").
struct LogRecord {
  uint64_t lsn = 0;
  uint64_t txn_id = 0;
  LogRecordType type = LogRecordType::kBegin;
  uint32_t object_id = 0;
  Rid rid;
  Bytes payload1;

  void SerializeTo(Bytes* out) const;
  static Result<LogRecord> Deserialize(Slice in, size_t* offset);
};

/// What Wal::ParseImage recovered from a durable byte image. A crash can
/// leave a torn frame at the tail; parsing stops there and reports it, never
/// failing — a half-written record is the expected shape of a crash, not
/// corruption of the prefix before it.
struct WalLoadResult {
  std::vector<LogRecord> records;
  /// Byte offset just past the last intact frame (== start of any torn tail).
  size_t bytes_consumed = 0;
  /// End offset of each intact frame, in order. frame_ends[i] is a valid
  /// crash point: cutting the image there loses records i+1.. and nothing
  /// else. Used by the crash-point torture harness.
  std::vector<size_t> frame_ends;
  /// True when trailing bytes after the last intact frame were dropped
  /// (truncated frame, checksum mismatch, or undecodable body).
  bool torn_tail = false;
};

/// The WAL's frame checksum (FNV-1a 32-bit). Not cryptographic — it only
/// needs to tell "frame ends at a clean boundary" from "torn mid-write".
uint32_t FrameChecksum(Slice body);

/// Frames an opaque body with the WAL's [u32 len][u32 checksum] header. The
/// DDL journal and checkpoint file reuse this so every durable artifact in
/// the data directory shares one torn-tail discipline.
void AppendFramedBlob(Bytes* out, Slice body);

/// Parse result for a framed-blob stream (the DDL journal's on-disk form).
struct FramedBlobs {
  std::vector<Bytes> blobs;
  size_t bytes_consumed = 0;
  bool torn_tail = false;
};
FramedBlobs ParseFramedBlobs(Slice image);

/// Append-only write-ahead log. Retains structured records for recovery
/// replay plus the durable byte image — the adversary-observable "disk" form,
/// scanned by leakage tests and cut at arbitrary prefixes by the crash-point
/// torture harness.
///
/// Two backing modes share identical framing and semantics:
///   - In-memory (default): the byte image lives only in `image_`; Sync is a
///     no-op beyond its fault point. This remains the mode every pre-existing
///     test and the in-process torture matrix run in.
///   - File-backed (after AttachFile): every frame is additionally written to
///     an O_APPEND fd under the data directory, Sync performs a real fsync
///     (the commit durability point), and truncation rewrites the file
///     atomically (tmp → fsync → rename → fsync dir). `image_` stays an
///     exact mirror of the file so RawBytes/leakage checks see disk bytes.
///
/// On-image framing, per record:
///
///     u32  body length
///     u32  FNV-1a checksum of the body
///     ...  body (LogRecord::SerializeTo)
///
/// The checksum is what lets recovery distinguish "log ends here" from "log
/// was torn mid-write here": a torn tail fails the length or checksum test
/// and is dropped, everything before it replays.
///
/// Fault points (see fault/fault.h):
///   wal/append       Append fails before writing anything.
///   wal/torn_append  Append writes only the first `arg` bytes of the frame
///                    (default: half) to the image/file and fails — simulates
///                    a crash mid-write.
///   wal/sync         Sync fails (fsync error at the commit durability
///                    point); the real fsync is skipped.
class Wal {
 public:
  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Switches to file-backed mode. Opens (creating + directory-fsyncing if
  /// needed) `path` for O_APPEND writes, parses its contents, physically
  /// truncates any torn tail, and adopts the intact prefix as the log. The
  /// returned WalLoadResult is the reopened log (recovery replays it).
  Result<WalLoadResult> AttachFile(const std::string& path);
  bool file_backed() const;

  /// Assigns the next LSN, frames and appends the record. In file-backed
  /// mode the frame is written (not yet fsynced) to the log file.
  Result<uint64_t> Append(LogRecord record);

  /// Durability barrier: everything appended so far survives a crash. In
  /// file-backed mode this is a real fsync of the log fd; in-memory it is
  /// trivially "synced". Either way the `wal/sync` fault point fires first
  /// (a fired fault skips the fsync — the commit must not become durable).
  Status Sync();

  /// Group-commit durability barrier: returns once every record up to and
  /// including `lsn` is durable. Concurrent callers form a cohort — one
  /// leader performs the fsync (after an optional `group_commit_window_us`
  /// linger that lets more committers publish their records) and its single
  /// fsync covers every follower whose lsn was appended before it ran, so
  /// commits-per-fsync ≫ 1 under concurrency. With one caller the behavior
  /// is exactly Sync(). The `wal/sync` fault point fires per *caller* at
  /// entry — before joining any cohort — so a faulted committer never has
  /// its commit made durable by a neighbor's fsync. A leader's failed fsync
  /// poisons the log (see poisoned()): followers are NOT allowed to retry
  /// the fsync and trust its result, so no commit is ever acked off a
  /// barrier that reported an error.
  Status SyncUpTo(uint64_t lsn);

  /// Read-only commit barrier: returns once every record appended so far is
  /// durable, appending nothing. Free when the durable watermark covers the
  /// log tail (or the log is in-memory); else SyncUpTo(tail).
  Status SyncAppended();

  /// Leader linger before the cohort fsync (0 = fsync immediately; natural
  /// batching from followers arriving during a running fsync still applies).
  void set_group_commit_window_us(uint64_t us);

  /// Cohort fsyncs performed by SyncUpTo.
  uint64_t group_commit_batches() const;
  /// SyncUpTo calls that reached the durability barrier (== acked commits
  /// when the engine routes commits through SyncUpTo).
  uint64_t sync_requests() const;

  std::vector<LogRecord> Snapshot() const;
  uint64_t next_lsn() const;
  /// Raises next_lsn to at least `lsn` — used after loading a checkpoint
  /// whose LSN horizon is past the (possibly truncated-to-empty) log tail.
  void EnsureNextLsn(uint64_t lsn);

  /// The durable byte image (adversary view; framed).
  Bytes RawBytes() const;

  /// Parses a durable image, dropping any torn tail. Never fails.
  static WalLoadResult ParseImage(Slice image);

  /// Replaces this log's contents with what `image` holds — the "reopen after
  /// crash" path. Returns the parse result so callers can see how much of the
  /// tail was lost. File-backed: the file is atomically rewritten to match.
  WalLoadResult LoadImage(Slice image);

  /// Drops records up to `lsn` exclusive (log truncation after checkpoint).
  /// File-backed: rewrites the log file atomically; a crash between the
  /// checkpoint publish and this rewrite only leaves already-checkpointed
  /// records in the file, which recovery filters out by LSN.
  Status TruncateBefore(uint64_t lsn);

  /// Replaces the contents wholesale. Used to transplant a crashed engine's
  /// log into a fresh engine in crash-recovery tests.
  void Replace(std::vector<LogRecord> records);
  size_t record_count() const;

  // ----- durability gauges (file-backed mode; zero otherwise) -----
  /// fsyncs issued by this log (commit-path Sync + attach/rewrite syncs).
  uint64_t fsyncs() const;
  /// Bytes of torn tail dropped across AttachFile/LoadImage calls.
  uint64_t torn_bytes_dropped() const;
  /// Current size of the durable image in bytes.
  uint64_t wal_bytes() const;
  /// File-write failures that left the on-disk log diverged from the
  /// in-memory mirror (failed truncation rewrites, failed torn-append
  /// writes, failed reopens). Nonzero means disk state lags `image_`.
  uint64_t file_errors() const;
  /// True after the log became unwritable: a rewrite lost the append fd, or
  /// an fsync failed (the kernel clears a writeback error after reporting it
  /// once, so a retried fsync cannot be trusted — it may "succeed" with the
  /// failed writes still lost). Append/Sync/SyncUpTo refuse with an error
  /// (never silently degrade to in-memory mode) until a later atomic
  /// rewrite — e.g. the next checkpoint truncation — succeeds.
  bool poisoned() const;

 private:
  /// Rebuilds image_ from records_. Caller holds mu_.
  void RebuildImageLocked();
  /// File-backed: atomically rewrites the log file from image_ and reopens
  /// the append fd (the rename replaced the inode). Caller holds mu_.
  Status RewriteFileLocked();
  /// Appends raw bytes to the log fd. Caller holds mu_.
  Status WriteToFileLocked(const uint8_t* data, size_t n);

  mutable std::mutex mu_;
  std::vector<LogRecord> records_;
  Bytes image_;  // framed durable form of records_ (plus any torn tail)
  uint64_t next_lsn_ = 1;

  // ----- group commit (guarded by mu_; sync_cv_ signals leader handoff) ---
  std::condition_variable sync_cv_;
  /// Highest LSN covered by a completed fsync barrier.
  uint64_t synced_lsn_ = 0;
  /// True while a leader is fsyncing (followers wait instead of piling on).
  bool sync_in_progress_ = false;
  uint64_t group_commit_window_us_ = 0;
  uint64_t sync_requests_ = 0;
  uint64_t group_commit_batches_ = 0;

  int fd_ = -1;  // -1: in-memory mode (unless poisoned_)
  /// File-backed but unwritable: the append fd was lost (reopen after an
  /// atomic rewrite failed) or an fsync failed (retrying fsync after a
  /// failure is unsound — the kernel clears the writeback error). Sticky
  /// until a successful atomic rewrite; distinguished from fd_ == -1
  /// in-memory mode so neither failure silently turns a durable log into a
  /// volatile one.
  bool poisoned_ = false;
  std::string path_;
  uint64_t fsyncs_ = 0;
  uint64_t torn_dropped_ = 0;
  uint64_t file_errors_ = 0;
};

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_WAL_H_
