#include "stream/trace_io.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace rfid {

namespace {

constexpr char kReadingsHeader[] = "time,tag";
constexpr char kLocationsHeader[] = "time,x,y,z,heading";
/// Significant digits that read every double back bit for bit.
constexpr int kExactDigits = std::numeric_limits<double>::max_digits10;

Status MalformedLine(const char* what, size_t line_no, const std::string& line) {
  return Status::Invalid(std::string(what) + " at line " +
                         std::to_string(line_no) + ": '" + line + "'");
}

/// Splits a CSV line (no quoting — the formats contain only numbers).
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

/// A finite number filling the whole cell. The writers never produce
/// NaN or infinities, so neither does a well-formed trace.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(*out);
}

/// Plain decimal digits, at most UINT32_MAX: no sign, space or wrap-around
/// (strtoul would read "-1" as 4294967295).
bool ParseTag(const std::string& s, TagId* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
    if (v > std::numeric_limits<TagId>::max()) return false;
  }
  *out = static_cast<TagId>(v);
  return true;
}

}  // namespace

Status WriteReadingsCsv(const std::vector<TagReading>& readings,
                        std::ostream& os) {
  const std::streamsize saved = os.precision(kExactDigits);
  os << kReadingsHeader << '\n';
  for (const TagReading& r : readings) {
    os << r.time << ',' << r.tag << '\n';
  }
  os.precision(saved);
  if (!os.good()) return Status::IOError("failed writing readings CSV");
  return Status::OK();
}

Status WriteLocationsCsv(const std::vector<ReaderLocationReport>& reports,
                         std::ostream& os) {
  const std::streamsize saved = os.precision(kExactDigits);
  os << kLocationsHeader << '\n';
  for (const ReaderLocationReport& r : reports) {
    os << r.time << ',' << r.location.x << ',' << r.location.y << ','
       << r.location.z << ',';
    if (r.has_heading) os << r.heading;
    os << '\n';
  }
  os.precision(saved);
  if (!os.good()) return Status::IOError("failed writing locations CSV");
  return Status::OK();
}

Result<std::vector<TagReading>> ReadReadingsCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kReadingsHeader) {
    return Status::Invalid("missing readings header '" +
                           std::string(kReadingsHeader) + "'");
  }
  std::vector<TagReading> out;
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = SplitCsv(line);
    TagReading r;
    if (cells.size() != 2 || !ParseDouble(cells[0], &r.time) ||
        !ParseTag(cells[1], &r.tag)) {
      return MalformedLine("malformed reading", line_no, line);
    }
    out.push_back(r);
  }
  return out;
}

Result<std::vector<ReaderLocationReport>> ReadLocationsCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kLocationsHeader) {
    return Status::Invalid("missing locations header '" +
                           std::string(kLocationsHeader) + "'");
  }
  std::vector<ReaderLocationReport> out;
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = SplitCsv(line);
    ReaderLocationReport r;
    if (cells.size() != 5 || !ParseDouble(cells[0], &r.time) ||
        !ParseDouble(cells[1], &r.location.x) ||
        !ParseDouble(cells[2], &r.location.y) ||
        !ParseDouble(cells[3], &r.location.z)) {
      return MalformedLine("malformed location report", line_no, line);
    }
    if (!cells[4].empty()) {
      if (!ParseDouble(cells[4], &r.heading)) {
        return MalformedLine("malformed heading", line_no, line);
      }
      r.has_heading = true;
    }
    out.push_back(r);
  }
  return out;
}

Status WriteReadingsCsvFile(const std::vector<TagReading>& readings,
                            const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteReadingsCsv(readings, os);
}

Status WriteLocationsCsvFile(const std::vector<ReaderLocationReport>& reports,
                             const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteLocationsCsv(reports, os);
}

Result<std::vector<TagReading>> ReadReadingsCsvFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IOError("cannot open '" + path + "'");
  return ReadReadingsCsv(is);
}

Result<std::vector<ReaderLocationReport>> ReadLocationsCsvFile(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IOError("cannot open '" + path + "'");
  return ReadLocationsCsv(is);
}

void FlattenEpochs(const std::vector<SyncedEpoch>& epochs,
                   std::vector<TagReading>* readings,
                   std::vector<ReaderLocationReport>* reports) {
  for (const SyncedEpoch& epoch : epochs) {
    for (TagId tag : epoch.tags) {
      readings->push_back({epoch.time, tag});
    }
    if (epoch.has_location) {
      ReaderLocationReport r;
      r.time = epoch.time;
      r.location = epoch.reported_location;
      r.has_heading = epoch.has_heading;
      r.heading = epoch.reported_heading;
      reports->push_back(r);
    }
  }
}

}  // namespace rfid
