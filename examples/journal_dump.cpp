// Prints a per-dataset journal file record by record, one line each:
//
//   usage: journal_dump <journal-file> [...]
//
//   open     qid=0 dataset=ds-1
//   release  qid=0 eps=0.100000 outputs=4 nonce=0xdeadbeef seq=2 blob=96B
//   expire   qid=0 nonce=0xdeadbeef seq=1
//
// Journals written by older binaries also hold `charge` and `refund`
// lines (with the qid that paired them to a release); recovery skips them.
//
// The exactly-once drill greps this output to assert that every
// idempotency key was released exactly once across crash + replay — the
// journal is append-only, so the dump IS the full release history.
#include <cstdio>
#include <cstdlib>

#include "service/journal.h"

using namespace upa;

namespace {

const char* TypeName(service::JournalRecord::Type type) {
  switch (type) {
    case service::JournalRecord::Type::kOpen: return "open";
    case service::JournalRecord::Type::kCharge: return "charge";
    case service::JournalRecord::Type::kRelease: return "release";
    case service::JournalRecord::Type::kRefund: return "refund";
    case service::JournalRecord::Type::kEpochBump: return "epoch_bump";
    case service::JournalRecord::Type::kExpire: return "expire";
  }
  return "unknown";
}

int DumpOne(const char* path) {
  bool torn = false;
  uint64_t intact = 0;
  auto records = service::Journal::ReadAll(path, &torn, &intact);
  if (!records.ok()) {
    std::fprintf(stderr, "%s: %s\n", path,
                 records.status().ToString().c_str());
    return 1;
  }
  std::printf("# %s: %zu records, %llu intact bytes%s\n", path,
              records.value().size(),
              static_cast<unsigned long long>(intact),
              torn ? ", TORN TAIL" : "");
  for (const service::JournalRecord& rec : records.value()) {
    std::printf("%-10s qid=%llu", TypeName(rec.type),
                static_cast<unsigned long long>(rec.qid));
    switch (rec.type) {
      case service::JournalRecord::Type::kOpen:
        std::printf(" dataset=%s", rec.dataset_id.c_str());
        break;
      case service::JournalRecord::Type::kEpochBump:
        std::printf(" epoch=%llu",
                    static_cast<unsigned long long>(rec.epoch));
        break;
      case service::JournalRecord::Type::kExpire:
        std::printf(" nonce=0x%llx seq=%llu",
                    static_cast<unsigned long long>(rec.nonce),
                    static_cast<unsigned long long>(rec.key_seq));
        break;
      default:
        std::printf(" eps=%f", rec.epsilon);
        break;
    }
    if (rec.type == service::JournalRecord::Type::kRelease) {
      std::printf(" outputs=%zu", rec.partition_outputs.size());
      if (rec.nonce != 0) {
        std::printf(" nonce=0x%llx seq=%llu blob=%zuB",
                    static_cast<unsigned long long>(rec.nonce),
                    static_cast<unsigned long long>(rec.key_seq),
                    rec.response_blob.size());
      }
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <journal-file> [...]\n", argv[0]);
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) rc |= DumpOne(argv[i]);
  return rc;
}
