// Durable enforcer/budget journal (per dataset).
//
// Every privacy-critical mutation the service performs — a release (one
// kRelease: the partition outputs it registers in the Algorithm 2 enforcer
// registry, and its ε), an epoch bump, a dedup-window expiry — is appended
// to a per-dataset journal file before the response is acknowledged to the
// client. A restarted service replays the journal and reconstructs the
// enforcer registry, the privacy accountant's ledger (Σ released ε) and
// the epoch bit-identically: doubles travel as raw IEEE-754 bits, and the
// registry preserves registration order (Enforce iterates priors in order).
//
// Record format, written and read with the shared byte codec
// (common/bytes.h: little-endian, doubles as raw IEEE-754 bits):
//
//   [u32 payload_len][u64 fnv1a(payload)][payload]
//   payload := u8 type, u64 qid, u64 epsilon_bits, u64 epoch,
//              u32 vec_len, vec_len × u64 double_bits,
//              u32 id_len, id_len bytes,       (dataset id; kOpen only)
//              u64 nonce, u64 key_seq, u64 request_hash,
//              u32 blob_len, blob_len bytes    (idempotency key + serialized
//                                               response; kRelease/kExpire)
//
// A torn tail (short header, impossible length, checksum mismatch — the
// process died mid-append) ends replay at the last intact record, and
// recovery truncates the file there. A checksum-valid record that does
// not decode is no torn write but a format this binary does not know:
// reading and recovery fail with kInternal and the file is left alone. A
// query that died in flight left no record (its charge lived in memory,
// and the release record precedes the response), so recovery has nothing
// to refund. Legacy kCharge/kRefund records decode and replay as no-ops.
// A fresh journal is renamed from `<stem>.journal.tmp` once its kOpen
// frame is durable, so a `.journal` without one is corruption.
//
// The snapshot file (atomic write-then-rename) compacts replay: it stores
// the full recovered state plus `covered_bytes`, the journal offset it
// absorbed; recovery loads the snapshot and replays only records past that
// offset. The journal itself is append-only and never rewritten, so a
// crash at any point leaves either the old or the new snapshot — both
// consistent with the same journal.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace upa::service {

struct JournalRecord {
  enum class Type : uint8_t {
    kOpen = 1,       // file header: names the dataset
    kCharge = 2,     // legacy (no longer written); replayed as a no-op
    kRelease = 3,    // spent `epsilon`; partition_outputs joined the registry
    kRefund = 4,     // legacy (no longer written); replayed as a no-op
    kEpochBump = 5,  // dataset data changed; `epoch` is the new value
    kExpire = 6,     // idempotency key (nonce, key_seq) left the dedup window
  };

  Type type = Type::kRelease;
  uint64_t qid = 0;
  double epsilon = 0.0;
  uint64_t epoch = 0;
  std::vector<double> partition_outputs;  // kRelease only
  std::string dataset_id;                 // kOpen only
  /// Idempotency key of the request that produced this release (0 = the
  /// request carried no key). On a keyed kRelease the full serialized
  /// response rides along in `response_blob` so a retried key can be
  /// answered byte-identically after a crash; kExpire names the key whose
  /// entry aged out of the dedup window.
  uint64_t nonce = 0;
  uint64_t key_seq = 0;
  uint64_t request_hash = 0;   // binds the key to the request it first named
  std::string response_blob;   // kRelease only; opaque to the journal
};

/// One completed idempotency key and the exact response it was answered
/// with, as journaled by the kRelease record.
struct DedupDurableEntry {
  uint64_t nonce = 0;
  uint64_t seq = 0;
  uint64_t request_hash = 0;
  std::string response_blob;
};

/// One dataset's durable state, as reconstructed by recovery.
struct DatasetDurableState {
  std::string dataset_id;
  uint64_t epoch = 0;
  double charged_total = 0.0;
  double refunded_total = 0.0;
  /// Registered prior-query outputs in registration order.
  std::vector<std::vector<double>> registry;
  /// Completed idempotency keys in completion order (oldest first): every
  /// keyed kRelease minus the keys a later kExpire retired. The service
  /// rebuilds its dedup window from this so replay survives process death.
  std::vector<DedupDurableEntry> dedup;
};

/// Append-side handle for one dataset's journal file. Thread-safe: appends
/// from the run path and epoch bumps may interleave.
class Journal {
 public:
  /// Opens (creating if needed) `<dir>/<FileStem(dataset_id)>.journal` for
  /// appending; a fresh file gets its kOpen header as `<stem>.journal.tmp`
  /// and is renamed into place (with `fsync`, the directory entry is synced
  /// so the new file survives power loss).
  /// `fsync = false` trades crash-durability for speed (bench off-path).
  static Result<std::unique_ptr<Journal>> Open(const std::string& dir,
                                               const std::string& dataset_id,
                                               bool fsync = true);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Serialize, checksum, append, flush and (unless fsync was disabled at
  /// Open) fdatasync one record — Ok means the record survives power loss,
  /// not just process death. Failpoint sites "journal/before_append" /
  /// "journal/before_sync" / "journal/after_append" bracket the write and
  /// the sync (abort there = crash with the record absent / written but
  /// possibly unsynced / durable).
  Status Append(const JournalRecord& record);

  /// True once a failed write closed the journal (every Append then fails).
  bool closed() const { std::lock_guard lock(mu_); return file_ == nullptr; }

  const std::string& path() const { return path_; }

  /// Deterministic filesystem stem for a dataset id: sanitized prefix plus
  /// an FNV-1a suffix so distinct ids never collide after sanitizing.
  static std::string FileStem(const std::string& dataset_id);

  /// Reads every intact record; stops (without error) at a torn tail, and
  /// fails with kInternal at a checksum-valid record it cannot decode.
  /// `torn_tail` reports whether trailing bytes were discarded and
  /// `intact_bytes` the offset of the last intact record's end — recovery
  /// truncates the file there, because frames appended after a fragment
  /// would be unreachable (readers stop at the first bad frame).
  /// `frame_ends`, when non-null, receives each record's end offset in the
  /// file, which recovery walks to skip what a snapshot covers.
  static Result<std::vector<JournalRecord>> ReadAll(
      const std::string& path, bool* torn_tail = nullptr,
      uint64_t* intact_bytes = nullptr,
      std::vector<uint64_t>* frame_ends = nullptr);

 private:
  Journal(std::string path, std::FILE* file, bool fsync)
      : path_(std::move(path)), file_(file), fsync_(fsync) {}

  std::string path_;
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  bool fsync_ = true;
};

/// Writes `<dir>/<stem>.snapshot` atomically (tmp + rename). With `fsync`
/// the tmp file is synced before the rename and the directory after it, so
/// a power cut leaves either the old snapshot or the complete new one —
/// never a renamed-but-empty file. `covered_bytes` is the journal size the
/// state absorbs.
Status WriteSnapshot(const std::string& dir, const DatasetDurableState& state,
                     uint64_t covered_bytes, bool fsync = true);

/// Loads a snapshot; NOT_FOUND when absent, INTERNAL on corruption.
/// `covered_bytes` receives the journal offset the snapshot covers.
Result<DatasetDurableState> ReadSnapshot(const std::string& path,
                                         uint64_t* covered_bytes);

/// Full recovery for one dataset: snapshot (if any) + journal replay past
/// `covered_bytes`; each kRelease adds its ε to `charged_total`, and a torn
/// tail is cut off the file. `compact` then writes a fresh snapshot
/// absorbing the whole journal (synced unless `fsync` is off).
Result<DatasetDurableState> RecoverDataset(const std::string& dir,
                                           const std::string& dataset_id,
                                           bool compact, bool fsync = true);

/// Scans `dir` for journals and recovers every dataset found. Fails at the
/// first journal or snapshot that does not recover (no open header, an
/// undecodable record, a corrupt snapshot).
Result<std::vector<DatasetDurableState>> RecoverAll(const std::string& dir,
                                                    bool compact,
                                                    bool fsync = true);

}  // namespace upa::service
