// Shared helpers for the figure/table regeneration benches.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (§V) and prints it as an aligned table plus CSV. Absolute
// numbers are simulator-calibrated, not the authors' testbed; the point of
// comparison is the *shape* of each result (see EXPERIMENTS.md).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "util/csv.h"

namespace rfid {
namespace bench {

/// True when RFID_FULL_SCALE=1: run the paper's full parameter ranges
/// (notably 20,000 objects in the scalability tests). Default is a reduced
/// sweep that finishes in tens of seconds.
inline bool FullScale() {
  const char* env = std::getenv("RFID_FULL_SCALE");
  return env != nullptr && std::string(env) == "1";
}

inline void PrintHeader(const std::string& title, const std::string& source) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s; shape comparison, not absolute numbers)\n",
              source.c_str());
  std::printf("==============================================================\n");
}

/// One paper-result inequality lhs <= rhs, printed with its margin; returns
/// whether it holds (the figure benches' gates count the ones that fail).
inline bool CheckAtMost(const std::string& what, double lhs, double rhs) {
  const bool holds = lhs <= rhs;
  std::printf("  %-4s %s: %.3f <= %.3f (margin %.3f)\n", holds ? "ok" : "FAIL",
              what.c_str(), lhs, rhs, rhs - lhs);
  return holds;
}

inline void PrintTable(const TableWriter& table) {
  table.WriteAligned(std::cout);
  std::printf("\n-- CSV --\n");
  table.WriteCsv(std::cout);
  std::printf("\n");
}

/// Standard warehouse for the sensitivity experiments (§V-B): two shelves,
/// a handful of objects and shelf tags.
inline WarehouseConfig SensitivityWarehouse(int objects, int shelf_tags) {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 8.0;
  wc.objects_per_shelf = (objects + 1) / 2;
  wc.shelf_tags_per_shelf = (shelf_tags + 1) / 2;
  return wc;
}

/// Engine defaults used across benches (1000 particles/object, as in §V).
inline EngineConfig DefaultEngineConfig(uint64_t seed = 71) {
  EngineConfig c;
  c.factored.num_reader_particles = 100;
  c.factored.num_object_particles = 1000;
  c.factored.seed = seed;
  return c;
}

/// Machine-readable bench output: a flat JSON document with one object per
/// measured configuration, written next to the working directory as
/// BENCH_<name>.json so successive PRs can diff the perf trajectory.
///
///   BenchJson json("throughput");
///   json.BeginRow();
///   json.Add("configuration", "factorized+index");
///   json.Add("threads", 4);
///   json.Add("epochs_per_sec", 1234.5);
///   json.WriteFile("BENCH_throughput.json");
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void BeginRow() { rows_.emplace_back(); }

  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    AddRaw(key, buf);
  }
  void Add(const std::string& key, int value) {
    AddRaw(key, std::to_string(value));
  }
  void Add(const std::string& key, size_t value) {
    AddRaw(key, std::to_string(value));
  }
  void Add(const std::string& key, const std::string& value) {
    AddRaw(key, "\"" + Escaped(value) + "\"");
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }

  /// Serializes {"bench": name, "rows": [...]}; returns false on IO failure.
  bool WriteFile(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\n  \"bench\": \"" << Escaped(name_) << "\",\n  \"rows\": [\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      os << "    {";
      for (size_t f = 0; f < rows_[r].size(); ++f) {
        if (f > 0) os << ", ";
        os << "\"" << Escaped(rows_[r][f].first)
           << "\": " << rows_[r][f].second;
      }
      os << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.good();
  }

  /// Adds a preformatted table cell, emitted as a bare number when the
  /// whole cell is a valid *JSON* number (TableWriter cells are already
  /// formatted strings). strtod alone is not enough: it also accepts
  /// "nan"/"inf" and hex floats, which would corrupt the JSON document.
  void AddCell(const std::string& key, const std::string& cell) {
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    const bool fully_parsed = !cell.empty() && end != nullptr && *end == '\0';
    const bool json_shaped =
        fully_parsed && std::isfinite(value) && cell[0] != '+' &&
        cell.find_first_not_of("0123456789+-.eE") == std::string::npos;
    if (json_shaped) {
      AddRaw(key, cell);
    } else {
      Add(key, cell);
    }
  }

 private:
  void AddRaw(const std::string& key, std::string rendered) {
    if (rows_.empty()) BeginRow();
    rows_.back().emplace_back(key, std::move(rendered));
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Appends every row of `table` to `json`, one JSON row per table row with
/// the column headers as keys, tagged with a `series` field. This is how the
/// figure benches mirror their printed tables into BENCH_<name>.json so the
/// perf/accuracy trajectory is machine-diffable across PRs.
inline void AddTableRows(const TableWriter& table, const std::string& series,
                         BenchJson* json) {
  for (const auto& row : table.rows()) {
    json->BeginRow();
    json->Add("series", series);
    for (size_t c = 0; c < table.header().size() && c < row.size(); ++c) {
      json->AddCell(table.header()[c], row[c]);
    }
  }
}

/// Writes BENCH_<name>.json next to the working directory, with a printed
/// confirmation matching the other bench outputs.
inline void WriteBenchJson(const BenchJson& json, const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  if (!json.WriteFile(path)) {
    std::fprintf(stderr, "warning: failed writing %s\n", path.c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace bench
}  // namespace rfid
