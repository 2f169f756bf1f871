#include "serve/diagnostics.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/serialize.h"

namespace rfid {

namespace {

using serialize::ReadBool;
using serialize::ReadCount;
using serialize::ReadFramedSection;
using serialize::ReadPod;
using serialize::WriteFramedSection;
using serialize::WritePod;

constexpr char kMagic[8] = {'R', 'F', 'I', 'D', 'D', 'L', 'Q', '\0'};
constexpr uint32_t kVersion = 1;

void WriteRecord(std::ostream& os, const ServeRecord& record) {
  // Field-by-field, never the whole struct: ServeRecord has padding, and
  // padding bytes in a checksummed frame would make spills of identical
  // rings compare unequal.
  WritePod(os, record.site);
  WritePod(os, static_cast<uint8_t>(record.kind));
  WritePod(os, record.reading.time);
  WritePod(os, record.reading.tag);
  WritePod(os, record.location.time);
  WritePod(os, record.location.location.x);
  WritePod(os, record.location.location.y);
  WritePod(os, record.location.location.z);
  WritePod(os, static_cast<uint8_t>(record.location.has_heading ? 1 : 0));
  WritePod(os, record.location.heading);
}

/// Serialized size of one spilled entry with an empty reason: sequence,
/// reason length, then WriteRecord's fields.
constexpr uint64_t kMinEntryBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(SiteId) + sizeof(uint8_t) +
    sizeof(double) + sizeof(TagId) + 4 * sizeof(double) + sizeof(uint8_t) +
    sizeof(double);

bool ReadRecord(std::istream& is, ServeRecord* record) {
  uint8_t kind = 0;
  if (!ReadPod(is, &record->site) || !ReadPod(is, &kind) ||
      !ReadPod(is, &record->reading.time) ||
      !ReadPod(is, &record->reading.tag) ||
      !ReadPod(is, &record->location.time) ||
      !ReadPod(is, &record->location.location.x) ||
      !ReadPod(is, &record->location.location.y) ||
      !ReadPod(is, &record->location.location.z) ||
      !ReadBool(is, &record->location.has_heading) ||
      !ReadPod(is, &record->location.heading) ||
      kind > static_cast<uint8_t>(ServeRecord::Kind::kLocation)) {
    return false;
  }
  record->kind = static_cast<ServeRecord::Kind>(kind);
  return true;
}

}  // namespace

Status WriteDeadLetterSpill(SiteId site,
                            const std::deque<DeadLetterEntry>& entries,
                            const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.is_open()) {
      return Status::IOError("cannot open dead-letter spill " + tmp);
    }
    os.write(kMagic, sizeof(kMagic));
    WritePod(os, kVersion);
    const Status written =
        WriteFramedSection(os, [site, &entries](std::ostream& payload) {
          WritePod(payload, site);
          WritePod(payload, static_cast<uint64_t>(entries.size()));
          for (const DeadLetterEntry& entry : entries) {
            WritePod(payload, entry.sequence);
            const std::string reason =
                entry.reason != nullptr ? entry.reason : "";
            WritePod(payload, static_cast<uint32_t>(reason.size()));
            payload.write(reason.data(),
                          static_cast<std::streamsize>(reason.size()));
            WriteRecord(payload, entry.record);
          }
        });
    if (!written.ok() || !os.good()) {
      return Status::IOError("failed writing dead-letter spill " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot rename dead-letter spill into place: " +
                           ec.message());
  }
  return Status::OK();
}

Status ReadDeadLetterSpill(const std::string& path, SiteId* site,
                           std::vector<SpilledDeadLetter>* entries) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    return Status::IOError("cannot open dead-letter spill " + path);
  }
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("not a dead-letter spill (bad magic): " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(is, &version)) {
    return Status::IOError("truncated dead-letter spill " + path);
  }
  if (version != kVersion) {
    return Status::Invalid("unsupported dead-letter spill version " +
                           std::to_string(version));
  }
  SiteId parsed_site = 0;
  std::vector<SpilledDeadLetter> parsed;
  RFID_RETURN_NOT_OK(ReadFramedSection(is, [&](std::istream& payload) {
    uint64_t count = 0;
    if (!ReadPod(payload, &parsed_site) ||
        !ReadCount(payload, &count, kMinEntryBytes)) {
      return Status::IOError("truncated dead-letter spill payload");
    }
    parsed.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      SpilledDeadLetter entry;
      uint32_t reason_len = 0;
      if (!ReadPod(payload, &entry.sequence) ||
          !ReadPod(payload, &reason_len)) {
        return Status::IOError("truncated dead-letter spill entry");
      }
      if (reason_len > serialize::BytesLeft(payload)) {
        return Status::IOError("truncated dead-letter spill reason");
      }
      entry.reason.resize(reason_len);
      if (reason_len > 0) {
        payload.read(&entry.reason[0], reason_len);
        if (!payload.good()) {
          return Status::IOError("truncated dead-letter spill reason");
        }
      }
      // Reasons are C strings in memory: an embedded NUL was never written.
      if (entry.reason.find('\0') != std::string::npos) {
        return Status::Invalid("dead-letter spill reason holds a NUL byte");
      }
      if (!ReadRecord(payload, &entry.record)) {
        return Status::IOError("truncated dead-letter spill record");
      }
      parsed.push_back(std::move(entry));
    }
    return Status::OK();
  }));
  *site = parsed_site;
  *entries = std::move(parsed);
  return Status::OK();
}

}  // namespace rfid
