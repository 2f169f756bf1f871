// End-to-end benchmark binary: runs one workload and prints one JSON line.
//
//   bench_e2e --workload fleet --seed 1 --trace 0 [--smoke 0|1]
//             [--out-dir DIR]
//
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics (see harness.h for the phases). Either way the line carries the
// verdict of every output gate, the attempted/failed operation counts and
// the exact work counters. run.py builds this binary, runs it and turns the
// line into the benchmark's result; call it through run.py.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "util/stopwatch.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --trace 0|1 "
               "[--smoke 0|1] [--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rfid;
  std::string workload_name;
  uint64_t seed = 1;
  bool traced = false;
  bool smoke = false;
  std::string out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      traced = value == "1";
    } else if (flag == "--smoke") {
      smoke = value == "1";
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (workload_name.empty() || argc % 2 != 1) {
    return Usage(argv[0]);
  }

  Stopwatch total;
  auto workload = e2e::MakeWorkload(workload_name, seed, smoke);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const e2e::RunResult result =
      e2e::RunWorkload(workload.value(), traced, out_dir);

  std::string line = "{\"workload\": " + JsonString(workload_name);
  line += ", \"seed\": " + std::to_string(seed);
  line += ", \"traced\": " + std::string(traced ? "true" : "false");
  line += ", \"correct\": " +
          std::string(result.violations.empty() ? "true" : "false");
  line += ", \"valid\": " + std::string(result.valid ? "true" : "false");
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"violations\": [";
  for (size_t i = 0; i < result.violations.size(); ++i) {
    line += (i > 0 ? ", " : "") + JsonString(result.violations[i]);
  }
  line += "], \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const e2e::Metric& m = result.metrics[i];
    line += (i > 0 ? ", " : "") + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}, \"counters\": {";
  for (size_t i = 0; i < result.counters.size(); ++i) {
    line += (i > 0 ? ", " : "") + JsonString(result.counters[i].first) +
            ": " + std::to_string(result.counters[i].second);
  }
  line += "}, \"wall_s\": " + JsonNumber(total.ElapsedSeconds()) + "}";
  std::printf("%s\n", line.c_str());
  return 0;
}
