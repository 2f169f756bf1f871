#include "serve/checkpoint.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "util/fault.h"
#include "util/serialize.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace rfid {

namespace {

using serialize::ReadFramedSection;
using serialize::ReadPod;
using serialize::WriteFramedSection;
using serialize::WritePod;

constexpr char kManifestMagic[8] = {'R', 'F', 'I', 'D', 'M', 'A', 'N', 'I'};
constexpr uint32_t kManifestVersion = 1;

/// Flushes a file (or directory) to stable storage. No-op on platforms
/// without fsync; rename-atomicity still holds there, only crash-after-
/// rename durability is weaker.
Status FsyncPath(const std::string& path, bool directory) {
#if defined(__unix__) || defined(__APPLE__)
  const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return Status::IOError("cannot open " + path + " for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync failed for " + path);
#else
  (void)path;
  (void)directory;
#endif
  return Status::OK();
}

/// A unique temporary sibling of `path`. The name carries the pid and a
/// process-wide counter: a fixed `path + ".tmp"` let two concurrent
/// checkpoints of the same site (two servers sharing a checkpoint dir, or a
/// checkpoint racing a retry) interleave writes into one file and rename a
/// corrupt hybrid into place.
std::string UniqueTmpPath(const std::string& path) {
  static std::atomic<uint64_t> tmp_counter{0};
  const uint64_t nonce = tmp_counter.fetch_add(1, std::memory_order_relaxed);
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid) + "." + std::to_string(nonce);
}

/// tmp + fsync + rename + dir fsync, with fault points. `payload_status`
/// writes the file body into the temp stream.
template <typename WriteBody>
Status AtomicWriteFile(const std::string& path, uint64_t fault_scope,
                       FaultPoint write_point, FaultPoint fsync_point,
                       FaultPoint rename_point, WriteBody&& write_body) {
  const std::string tmp = UniqueTmpPath(path);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return Status::IOError("cannot open " + tmp + " for writing");
    if (MaybeInjectFault(write_point, fault_scope)) {
      os.close();
      std::remove(tmp.c_str());
      return Status::IOError("fault injection: " +
                             std::string(FaultPointName(write_point)) +
                             " for " + path);
    }
    const Status status = write_body(os);
    if (!status.ok()) {
      os.close();
      std::remove(tmp.c_str());
      return status;
    }
    os.flush();
    if (!os.good()) {
      os.close();
      std::remove(tmp.c_str());
      return Status::IOError("failed writing " + tmp);
    }
  }
  // Without the fsync before the rename, the rename can hit stable storage
  // ahead of the data (metadata journals commit independently): a crash
  // shortly after would leave an empty or truncated file under the *final*
  // name — exactly the corruption the tmp+rename dance is meant to prevent.
  if (MaybeInjectFault(fsync_point, fault_scope)) {
    std::remove(tmp.c_str());
    return Status::IOError("fault injection: " +
                           std::string(FaultPointName(fsync_point)) + " for " +
                           path);
  }
  Status synced = FsyncPath(tmp, /*directory=*/false);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (MaybeInjectFault(rename_point, fault_scope)) {
    std::remove(tmp.c_str());
    return Status::IOError("fault injection: " +
                           std::string(FaultPointName(rename_point)) +
                           " for " + path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                           ec.message());
  }
  // And the directory entry itself must be durable, or the rename is lost.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  return FsyncPath(parent.string(), /*directory=*/true);
}

Status WriteManifestFile(const std::string& path,
                         const CheckpointManifest& manifest,
                         uint64_t fault_scope) {
  // The manifest advance is the commit point of the whole save protocol, so
  // it gets the same atomicity treatment as the checkpoint files, plus its
  // own CRC frame (a torn manifest must read as "no manifest", not as a
  // pointer to a random generation). kManifestWrite covers all three of its
  // failure sites — one fault point is enough to prove the advance aborts.
  return AtomicWriteFile(
      path, fault_scope, FaultPoint::kManifestWrite, FaultPoint::kManifestWrite,
      FaultPoint::kManifestWrite, [&manifest](std::ostream& os) -> Status {
        os.write(kManifestMagic, sizeof(kManifestMagic));
        WritePod(os, kManifestVersion);
        RFID_RETURN_NOT_OK(
            WriteFramedSection(os, [&manifest](std::ostream& body) {
              WritePod(body, manifest.current);
              WritePod(body, manifest.previous);
            }));
        if (!os.good()) return Status::IOError("failed writing manifest");
        return Status::OK();
      });
}

Status ReadManifestFile(const std::string& path, CheckpointManifest* manifest) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IOError("cannot open manifest " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is.good() || std::memcmp(magic, kManifestMagic, sizeof(magic)) != 0) {
    return Status::Invalid("not a checkpoint manifest (bad magic): " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(is, &version)) {
    return Status::IOError("truncated manifest " + path);
  }
  if (version != kManifestVersion) {
    return Status::Invalid("unsupported manifest version " +
                           std::to_string(version) + " in " + path);
  }
  CheckpointManifest parsed;
  const Status body = ReadFramedSection(is, [&](std::istream& section) {
    if (!ReadPod(section, &parsed.current) ||
        !ReadPod(section, &parsed.previous)) {
      return Status::IOError("truncated manifest body");
    }
    return Status::OK();
  });
  if (!body.ok()) {
    return Status(body.code(), "manifest " + path + ": " + body.message());
  }
  if (parsed.current == 0) {
    return Status::Invalid("manifest " + path + " has no current generation");
  }
  *manifest = parsed;
  return Status::OK();
}

/// Removes generation files other than the two the manifest retains.
/// Best-effort: GC failures never fail a save.
void RemoveStaleGenerations(const std::string& dir, SiteId site,
                            const CheckpointManifest& keep) {
  const std::string prefix = "site_" + std::to_string(site) + ".gen";
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string rest = name.substr(prefix.size());
    const size_t dot = rest.find('.');
    if (dot == std::string::npos || rest.substr(dot) != ".ckpt") continue;
    uint64_t generation = 0;
    try {
      generation = std::stoull(rest.substr(0, dot));
    } catch (const std::exception&) {
      continue;  // Not a generation file (e.g. a stray tmp) — leave it.
    }
    if (generation == keep.current || generation == keep.previous) continue;
    std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace

std::string SiteGenerationPath(const std::string& dir, SiteId site,
                               uint64_t generation) {
  return dir + "/site_" + std::to_string(site) + ".gen" +
         std::to_string(generation) + ".ckpt";
}

std::string SiteManifestPath(const std::string& dir, SiteId site) {
  return dir + "/site_" + std::to_string(site) + ".manifest";
}

Status ReadSiteManifest(const std::string& dir, SiteId site,
                        CheckpointManifest* manifest) {
  return ReadManifestFile(SiteManifestPath(dir, site), manifest);
}

Status WriteSiteCheckpointFile(const SitePipeline& pipeline,
                               const std::string& path) {
  return AtomicWriteFile(path, pipeline.site(), FaultPoint::kCheckpointWrite,
                         FaultPoint::kCheckpointFsync,
                         FaultPoint::kCheckpointRename,
                         [&pipeline](std::ostream& os) -> Status {
                           return pipeline.SaveCheckpoint(os);
                         });
}

Status ReadSiteCheckpointFile(const std::string& path, SitePipeline* pipeline) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IOError("cannot open checkpoint " + path);
  return pipeline->LoadCheckpoint(is);
}

Status VerifySiteCheckpointFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IOError("cannot open checkpoint " + path);
  uint32_t version = 0;
  const Status header = ReadSiteCheckpointHeader(is, &version);
  if (!header.ok()) {
    return Status(header.code(), header.message() + ": " + path);
  }
  // Streams every section through its CRC without parsing or keeping it.
  const auto skip = [](std::istream& section) {
    section.ignore(std::numeric_limits<std::streamsize>::max());
    return Status::OK();
  };
  size_t sections = 0;
  while (true) {
    is.peek();
    if (is.eof()) break;
    const Status section = ReadFramedSection(is, skip);
    if (!section.ok()) {
      return Status(section.code(), "checkpoint " + path +
                                        " failed verification: " +
                                        section.message());
    }
    ++sections;
  }
  if (sections == 0) {
    return Status::Invalid("checkpoint " + path + " has no sections");
  }
  return Status::OK();
}

Status SaveSiteCheckpoint(const SitePipeline& pipeline, const std::string& dir,
                          const CheckpointWriteOptions& options,
                          CheckpointWriteReport* report) {
  const SiteId site = pipeline.site();
  // Where the manifest currently points — the state every failure path must
  // preserve. A missing or unreadable manifest means "no prior generation";
  // the save then starts the sequence at generation 1.
  CheckpointManifest prior;
  const Status manifest_status = ReadSiteManifest(dir, site, &prior);
  if (!manifest_status.ok()) prior = CheckpointManifest{};
  const uint64_t next_generation = prior.current + 1;
  const std::string next_path = SiteGenerationPath(dir, site, next_generation);

  obs::Histogram* write_h = nullptr;
  obs::Histogram* verify_h = nullptr;
  if (options.metrics != nullptr) {
    write_h = options.metrics->GetHistogram("rfid_checkpoint_seconds",
                                            "op=\"write\"");
    verify_h = options.metrics->GetHistogram("rfid_checkpoint_seconds",
                                             "op=\"verify\"");
  }

  const int max_attempts = options.max_attempts > 0 ? options.max_attempts : 1;
  Status last_error = Status::OK();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1 && options.backoff_initial_ms > 0) {
      const double ms = options.backoff_initial_ms *
                        static_cast<double>(uint64_t{1} << (attempt - 2));
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    }
    // Write -> verify -> advance. Any failure aborts this attempt with the
    // manifest untouched, so the last-good checkpoint stays authoritative.
    Status step;
    {
      obs::LatencyTimer write_timer(write_h);
      step = WriteSiteCheckpointFile(pipeline, next_path);
    }
    if (step.ok()) {
      obs::LatencyTimer verify_timer(verify_h);
      step = VerifySiteCheckpointFile(next_path);
    }
    if (step.ok()) {
      CheckpointManifest advanced;
      advanced.current = next_generation;
      advanced.previous = prior.current;
      step = WriteManifestFile(SiteManifestPath(dir, site), advanced, site);
      if (step.ok()) {
        RemoveStaleGenerations(dir, site, advanced);
        if (report != nullptr) {
          report->attempts = attempt;
          report->generation = next_generation;
        }
        return Status::OK();
      }
    }
    last_error = step;
    if (step.code() != StatusCode::kIOError) break;  // Only IO is transient.
  }
  // Leave no unreferenced generation behind: the write may have renamed the
  // file into place before verification or the manifest advance failed.
  std::remove(next_path.c_str());
  if (report != nullptr) {
    report->attempts = max_attempts;
    report->generation = prior.current;
  }
  return Status(last_error.code(),
                "checkpoint save for site " + std::to_string(site) +
                    " failed (last-good generation " +
                    std::to_string(prior.current) +
                    " retained): " + last_error.message());
}

Status LoadSiteCheckpoint(const std::string& dir, SiteId site,
                          SitePipeline* pipeline,
                          CheckpointLoadReport* report) {
  CheckpointManifest manifest;
  const Status manifest_status = ReadSiteManifest(dir, site, &manifest);
  if (!manifest_status.ok()) {
    // The manifest names the generations to load; without it there is
    // nothing to fall back to.
    return Status(manifest_status.code(),
                  "no loadable checkpoint for site " + std::to_string(site) +
                      ": " + manifest_status.message());
  }
  const std::string current_path =
      SiteGenerationPath(dir, site, manifest.current);
  Status current = VerifySiteCheckpointFile(current_path);
  if (current.ok()) current = ReadSiteCheckpointFile(current_path, pipeline);
  if (current.ok()) {
    if (report != nullptr) {
      report->generation = manifest.current;
      report->used_fallback = false;
    }
    return Status::OK();
  }
  if (manifest.previous == 0) return current;
  const std::string previous_path =
      SiteGenerationPath(dir, site, manifest.previous);
  Status previous = VerifySiteCheckpointFile(previous_path);
  if (previous.ok()) previous = ReadSiteCheckpointFile(previous_path, pipeline);
  if (!previous.ok()) {
    return Status(previous.code(),
                  "both retained generations failed for site " +
                      std::to_string(site) + ": current gen " +
                      std::to_string(manifest.current) + ": " +
                      current.message() + "; previous gen " +
                      std::to_string(manifest.previous) + ": " +
                      previous.message());
  }
  if (report != nullptr) {
    report->generation = manifest.previous;
    report->used_fallback = true;
  }
  return Status::OK();
}

}  // namespace rfid
