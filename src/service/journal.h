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
// The journal is a dataset's only durable file. It is append-only; its one
// rewrite cuts a torn tail. A torn tail (short header, impossible length,
// checksum mismatch — the process died mid-append) ends replay at the last
// intact record, and recovery truncates the file there. Only the last
// frame can be torn, so a bad frame followed by an intact one is damage:
// reading and recovery fail with kInternal and leave the file alone. So do
// a checksum-valid record that does not decode (no torn write but a format
// this binary does not know) and a journal whose file name is not the one
// its kOpen header's dataset gets. A query that died in flight left no
// record (its charge lived in memory, and the release record precedes the
// response), so recovery has nothing to refund. Legacy kCharge/kRefund
// records decode and replay as no-ops. A fresh journal is renamed from
// `<stem>.journal.tmp` once its kOpen frame is durable, so a `.journal`
// without one is corruption.
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
  /// Σ ε of the replayed releases; nothing recovered is ever refunded.
  double charged_total = 0.0;
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
  /// `fsync = false` keeps only process-death durability (tests use it).
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
  /// fails with kInternal at a checksum-valid record it cannot decode or at
  /// a bad frame that an intact frame follows (damage, not a torn write).
  /// `torn_tail` reports whether trailing bytes were discarded and
  /// `intact_bytes` the offset of the last intact record's end — recovery
  /// truncates the file there, because frames appended after a fragment
  /// would be unreachable (readers stop at the first bad frame).
  static Result<std::vector<JournalRecord>> ReadAll(
      const std::string& path, bool* torn_tail = nullptr,
      uint64_t* intact_bytes = nullptr);

 private:
  Journal(std::string path, std::FILE* file, bool fsync)
      : path_(std::move(path)), file_(file), fsync_(fsync) {}

  std::string path_;
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  bool fsync_ = true;
};

/// Recovers every dataset in `dir`: reads each `*.journal` file once,
/// replays it (each kRelease adds its ε to `charged_total`), and cuts a
/// torn tail off the file; it writes nothing else. Fails at the first
/// journal that does not recover (no open header, a file name that is not
/// its dataset's, a damaged or undecodable record) and leaves that file
/// alone. A missing `dir` recovers nothing.
Result<std::vector<DatasetDurableState>> RecoverAll(const std::string& dir);

}  // namespace upa::service
