#include "service/journal.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/failpoint.h"
#include "common/hash.h"

namespace upa::service {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MiB sanity bound
constexpr size_t kFrameHeaderBytes = 4 + 8;       // u32 len, u64 fnv1a

/// A u32 count, then that many doubles. Each element is read before it is
/// stored, so a lying count fails the decode instead of allocating.
void PutDoubles(PayloadWriter* w, const std::vector<double>& values) {
  w->PutU32(static_cast<uint32_t>(values.size()));
  for (double v : values) w->PutDouble(v);
}

Status GetDoubles(PayloadReader* r, std::vector<double>* out) {
  uint32_t count = 0;
  UPA_RETURN_IF_ERROR(r->GetU32(&count));
  out->clear();
  for (uint32_t i = 0; i < count; ++i) {
    double v = 0.0;
    UPA_RETURN_IF_ERROR(r->GetDouble(&v));
    out->push_back(v);
  }
  return Status::Ok();
}

std::string FrameRecord(const JournalRecord& record) {
  PayloadWriter payload;
  payload.PutU8(static_cast<uint8_t>(record.type));
  payload.PutU64(record.qid);
  payload.PutDouble(record.epsilon);
  payload.PutU64(record.epoch);
  PutDoubles(&payload, record.partition_outputs);
  payload.PutString(record.dataset_id);
  payload.PutU64(record.nonce);
  payload.PutU64(record.key_seq);
  payload.PutU64(record.request_hash);
  payload.PutString(record.response_blob);

  PayloadWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.bytes().size()));
  frame.PutU64(Fnv1a(payload.bytes()));
  frame.PutBytes(payload.bytes());
  return frame.Take();
}

Status DecodePayload(std::string_view payload, JournalRecord* record) {
  PayloadReader r(payload);
  uint8_t type = 0;
  UPA_RETURN_IF_ERROR(r.GetU8(&type));
  if (type < static_cast<uint8_t>(JournalRecord::Type::kOpen) ||
      type > static_cast<uint8_t>(JournalRecord::Type::kExpire)) {
    return Status::InvalidArgument("unknown record type " +
                                   std::to_string(type));
  }
  record->type = static_cast<JournalRecord::Type>(type);
  UPA_RETURN_IF_ERROR(r.GetU64(&record->qid));
  UPA_RETURN_IF_ERROR(r.GetDouble(&record->epsilon));
  UPA_RETURN_IF_ERROR(r.GetU64(&record->epoch));
  UPA_RETURN_IF_ERROR(GetDoubles(&r, &record->partition_outputs));
  UPA_RETURN_IF_ERROR(r.GetString(&record->dataset_id));
  UPA_RETURN_IF_ERROR(r.GetU64(&record->nonce));
  UPA_RETURN_IF_ERROR(r.GetU64(&record->key_seq));
  UPA_RETURN_IF_ERROR(r.GetU64(&record->request_hash));
  UPA_RETURN_IF_ERROR(r.GetString(&record->response_blob));
  return r.ExpectEnd();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("read error on '" + path + "'");
  }
  return data;
}

/// Syncs a directory's entry table so renames/creations inside it survive
/// power loss (fsync of a file does not cover its directory entry).
Status SyncDir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::Internal("open dir '" + dir + "': " + ::strerror(errno));
  }
  int rc = ::fsync(dfd);
  int saved = errno;
  ::close(dfd);
  if (rc != 0) {
    return Status::Internal("fsync dir '" + dir + "': " + ::strerror(saved));
  }
  return Status::Ok();
}

/// The one name a dataset's journal has: recovery refuses any other.
std::string JournalFileName(const std::string& dataset_id) {
  return Journal::FileStem(dataset_id) + ".journal";
}

/// True when `rest` starts with a whole frame whose payload matches its
/// checksum; `len` then receives the payload length.
bool IntactFrame(std::string_view rest, uint32_t* len) {
  if (rest.size() < kFrameHeaderBytes) return false;
  *len = LoadU32(rest.data());
  return *len <= kMaxPayloadBytes && rest.size() - kFrameHeaderBytes >= *len &&
         Fnv1a(rest.substr(kFrameHeaderBytes, *len)) ==
             LoadU64(rest.data() + 4);
}

/// Applies one replayed record to the accumulating state. kOpen is a file
/// header, not a mutation; an unknown dataset_id mismatch is a corruption
/// signal handled by the caller.
void ApplyRecord(JournalRecord&& rec, DatasetDurableState* state) {
  switch (rec.type) {
    case JournalRecord::Type::kOpen:
      break;
    case JournalRecord::Type::kCharge:
    case JournalRecord::Type::kRefund:
      // Legacy: their releases carry the ε too, so skipping them recovers
      // the spent budget their writer had.
      break;
    case JournalRecord::Type::kRelease:
      state->charged_total += rec.epsilon;
      state->registry.push_back(std::move(rec.partition_outputs));
      // Only a keyed release carries a response blob. An unkeyed release
      // journaled by an older build still names its request's key, without
      // a blob: that key never entered a window, so it must not enter this.
      if (rec.nonce != 0 && !rec.response_blob.empty()) {
        DedupDurableEntry entry;
        entry.nonce = rec.nonce;
        entry.seq = rec.key_seq;
        entry.request_hash = rec.request_hash;
        entry.response_blob = std::move(rec.response_blob);
        state->dedup.push_back(std::move(entry));
      }
      break;
    case JournalRecord::Type::kEpochBump:
      state->epoch = rec.epoch;
      break;
    case JournalRecord::Type::kExpire:
      // Crash-consistent dedup-window eviction: the key leaves the window
      // only once the expiry itself is journaled, so a crash between the
      // in-memory evict and the append can never resurrect a replay the
      // service already stopped promising.
      for (auto it = state->dedup.begin(); it != state->dedup.end(); ++it) {
        if (it->nonce == rec.nonce && it->seq == rec.key_seq) {
          state->dedup.erase(it);
          break;
        }
      }
      break;
  }
}

}  // namespace

std::string Journal::FileStem(const std::string& dataset_id) {
  std::string sanitized;
  for (char c : dataset_id) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '-' || c == '_';
    sanitized.push_back(safe ? c : '_');
    if (sanitized.size() >= 48) break;
  }
  if (sanitized.empty()) sanitized = "dataset";
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), "-%016llx",
                static_cast<unsigned long long>(Fnv1a(dataset_id)));
  return sanitized + suffix;
}

Result<std::unique_ptr<Journal>> Journal::Open(const std::string& dir,
                                               const std::string& dataset_id,
                                               bool fsync) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create journal dir '" + dir +
                            "': " + ec.message());
  }
  std::string path = (fs::path(dir) / JournalFileName(dataset_id)).string();
  // A fresh journal takes its final name only once its kOpen frame is
  // appended: a crash before the rename leaves a tmp file that recovery
  // skips and the next Open overwrites, never a `.journal` without header.
  const bool fresh = !fs::exists(path);
  std::string open_path = fresh ? path + ".tmp" : path;
  std::FILE* f = std::fopen(open_path.c_str(), fresh ? "wb" : "ab");
  if (f == nullptr) {
    return Status::Internal("cannot open journal '" + open_path + "'");
  }
  std::unique_ptr<Journal> journal(new Journal(open_path, f, fsync));
  if (fresh) {
    JournalRecord open;
    open.type = JournalRecord::Type::kOpen;
    open.dataset_id = dataset_id;
    UPA_RETURN_IF_ERROR(journal->Append(open));
    fs::rename(open_path, path, ec);
    if (ec) {
      return Status::Internal("rename '" + open_path + "' -> '" + path +
                              "': " + ec.message());
    }
    journal->path_ = std::move(path);
    // fdatasync makes the kOpen frame durable, but the renamed directory
    // entry also needs a sync, or the whole journal vanishes with a power
    // cut.
    if (fsync) UPA_RETURN_IF_ERROR(SyncDir(dir));
  }
  return journal;
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

Status Journal::Append(const JournalRecord& record) {
  std::string frame = FrameRecord(record);
  std::lock_guard lock(mu_);
  // Crash sites for the recovery tests: aborting at before_append leaves
  // the record absent; at after_append, durable. Both must recover to a
  // conserving state.
  UPA_FAILPOINT("journal/before_append");
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal '" + path_ + "' is closed");
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0) {
    // A short write may have left a torn frame; anything appended after
    // it would be unreachable (readers stop at the first bad frame), so
    // the journal is poisoned: every later Append fails fast and the
    // service stops mutating this dataset until restart/recovery.
    std::fclose(file_);
    file_ = nullptr;
    return Status::Internal("journal append failed on '" + path_ +
                            "' (journal closed; restart to recover)");
  }
  if (fsync_) {
    // Between the flush and the sync the frame exists only in the page
    // cache: a crash here may or may not keep it — both are intact-or-torn
    // states recovery already conserves. After the sync, the frame is
    // durable against power loss, which is what lets the service
    // acknowledge releases.
    UPA_FAILPOINT("journal/before_sync");
    if (::fdatasync(::fileno(file_)) != 0) {
      std::fclose(file_);
      file_ = nullptr;
      return Status::Internal("journal fdatasync failed on '" + path_ +
                              "' (journal closed; restart to recover)");
    }
  }
  UPA_FAILPOINT("journal/after_append");
  return Status::Ok();
}

Result<std::vector<JournalRecord>> Journal::ReadAll(const std::string& path,
                                                    bool* torn_tail,
                                                    uint64_t* intact_bytes) {
  if (torn_tail != nullptr) *torn_tail = false;
  if (intact_bytes != nullptr) *intact_bytes = 0;
  auto data_or = ReadWholeFile(path);
  UPA_RETURN_IF_ERROR(data_or.status());
  const std::string_view data = data_or.value();

  std::vector<JournalRecord> records;
  uint64_t offset = 0;
  while (offset < data.size()) {
    std::string_view rest = data.substr(offset);
    uint32_t len = 0;
    if (!IntactFrame(rest, &len)) {
      // A short header, an impossible length or a checksum mismatch. Append
      // writes one frame per call under the journal's lock, so a crash can
      // tear only the last frame: a whole frame anywhere after this one
      // means this one was damaged, not torn, and cutting it off would drop
      // every later record. Refuse the journal and leave the file alone.
      uint32_t later_len = 0;
      for (size_t skip = 1; skip < rest.size(); ++skip) {
        if (IntactFrame(rest.substr(skip), &later_len)) {
          return Status::Internal(
              "journal '" + path + "': damaged record at offset " +
              std::to_string(offset) + " precedes an intact one at offset " +
              std::to_string(offset + skip));
        }
      }
      // Torn tail: the process died mid-append. Everything before the last
      // intact record is trusted; the fragment is discarded.
      if (torn_tail != nullptr) *torn_tail = true;
      break;
    }
    // A torn write cannot produce a matching checksum, so a frame that
    // passes it yet does not decode is a format this binary does not know.
    // Cutting it off would drop every later record, releases included:
    // refuse the whole journal instead, and leave the file alone.
    JournalRecord rec;
    Status decoded = DecodePayload(rest.substr(kFrameHeaderBytes, len), &rec);
    if (!decoded.ok()) {
      return Status::Internal("journal '" + path +
                              "': undecodable record at offset " +
                              std::to_string(offset) + ": " +
                              decoded.message());
    }
    offset += kFrameHeaderBytes + len;
    if (intact_bytes != nullptr) *intact_bytes = offset;
    records.push_back(std::move(rec));
  }
  return records;
}

Result<std::vector<DatasetDurableState>> RecoverAll(const std::string& dir) {
  std::vector<DatasetDurableState> states;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return states;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".journal") continue;
    const std::string path = entry.path().string();
    bool torn = false;
    uint64_t intact_bytes = 0;
    auto records_or = Journal::ReadAll(path, &torn, &intact_bytes);
    UPA_RETURN_IF_ERROR(records_or.status());
    std::vector<JournalRecord>& records = records_or.value();
    // The kOpen header names the dataset; the filename alone cannot be
    // reversed (sanitized + hashed). Open appends only to the file of that
    // name, so a journal under any other name would split the dataset's
    // history across two files: refuse it.
    if (records.empty() ||
        records.front().type != JournalRecord::Type::kOpen) {
      return Status::Internal("journal '" + path + "' has no open header");
    }
    const std::string dataset_id = records.front().dataset_id;
    if (entry.path().filename() != JournalFileName(dataset_id)) {
      return Status::Internal("journal '" + path + "' names dataset '" +
                              dataset_id + "', whose journal is '" +
                              JournalFileName(dataset_id) + "'");
    }
    // Drop a torn tail fragment from disk: frames appended after it would
    // be unreachable (readers stop at the first bad frame).
    if (torn) {
      fs::resize_file(path, intact_bytes, ec);
      if (ec) {
        return Status::Internal("cannot truncate torn journal '" + path +
                                "': " + ec.message());
      }
    }
    DatasetDurableState state;
    state.dataset_id = dataset_id;
    for (JournalRecord& rec : records) {
      if (rec.type == JournalRecord::Type::kOpen &&
          rec.dataset_id != dataset_id) {
        return Status::Internal("journal '" + path + "' names dataset '" +
                                rec.dataset_id + "'");
      }
      ApplyRecord(std::move(rec), &state);
    }
    states.push_back(std::move(state));
  }
  if (ec) {
    return Status::Internal("cannot scan journal dir '" + dir +
                            "': " + ec.message());
  }
  return states;
}

}  // namespace upa::service
