// File-level checkpoint helpers for the serving runtime.
//
// A server checkpoint is a directory holding, per site, a small *generation
// manifest* plus one checkpoint file per retained generation:
//
//   site_<id>.manifest        -> {current: N, previous: N-1}
//   site_<id>.gen<N>.ckpt     -> the current (last-good) checkpoint
//   site_<id>.gen<N-1>.ckpt   -> the previous generation, kept as fallback
//
// The save protocol is write -> verify -> advance: a new generation is
// written through a unique temporary name (pid + counter, so concurrent
// checkpoints of one site cannot interleave), fsynced, renamed into place,
// then re-read and CRC-verified, and only after verification succeeds does
// the manifest atomically advance to point at it. A crash, torn write, or
// injected fault at ANY step leaves the manifest pointing at the previous
// last-good generation — a failed save degrades to a stale checkpoint and a
// longer replay, never a corrupt or missing one. Transient IO failures are
// retried with doubling backoff before the save is declared failed.
//
// Loading follows the manifest: current generation first, previous as
// fallback if current fails verification or parsing. A missing or corrupt
// manifest fails the load with an error naming it.
#pragma once

#include <cstdint>
#include <string>

#include "serve/site_pipeline.h"
#include "util/status.h"

namespace rfid {

/// `<dir>/site_<id>.gen<generation>.ckpt`.
std::string SiteGenerationPath(const std::string& dir, SiteId site,
                               uint64_t generation);

/// `<dir>/site_<id>.manifest`.
std::string SiteManifestPath(const std::string& dir, SiteId site);

/// What a site's manifest points at. `previous == 0` means no fallback
/// generation is retained (generation numbers start at 1).
struct CheckpointManifest {
  uint64_t current = 0;
  uint64_t previous = 0;
};

/// Reads and CRC-verifies a site's manifest.
Status ReadSiteManifest(const std::string& dir, SiteId site,
                        CheckpointManifest* manifest);

struct CheckpointWriteOptions {
  /// Attempts per save (write + verify + manifest advance); transient IO
  /// failures — including injected ones — are retried up to this many times.
  int max_attempts = 3;
  /// Backoff before the second attempt; doubles per subsequent attempt.
  double backoff_initial_ms = 1.0;
  /// When set, SaveSiteCheckpoint times its write and verify steps into
  /// `rfid_checkpoint_seconds{op="write"|"verify"}`. Must outlive the call.
  obs::MetricsRegistry* metrics = nullptr;
};

struct CheckpointWriteReport {
  /// Attempts consumed (1 = first try succeeded).
  int attempts = 0;
  /// Generation the manifest now points at.
  uint64_t generation = 0;
};

struct CheckpointLoadReport {
  /// Generation actually loaded.
  uint64_t generation = 0;
  /// True when the current generation failed and the previous one loaded.
  bool used_fallback = false;
};

/// Writes one checkpoint file (tmp + fsync + rename + dir fsync). Single
/// attempt, no manifest involvement; fault points kCheckpointWrite/
/// kCheckpointFsync/kCheckpointRename fire here, scoped by site id.
Status WriteSiteCheckpointFile(const SitePipeline& pipeline,
                               const std::string& path);

/// Restores a pipeline from one checkpoint file.
Status ReadSiteCheckpointFile(const std::string& path, SitePipeline* pipeline);

/// Re-reads a checkpoint file and verifies its framing: magic, a version
/// inside the load window (the same check LoadCheckpoint makes), and every
/// section checksum. Does not construct a pipeline — this is the cheap
/// post-write validation the manifest advance is gated on.
Status VerifySiteCheckpointFile(const std::string& path);

/// The full save protocol: write a new generation, verify it, atomically
/// advance the manifest, garbage-collect generations older than `previous`.
/// Retries transient IO failures per `options`. On overall failure the
/// manifest (and therefore the last-good checkpoint) is untouched.
Status SaveSiteCheckpoint(const SitePipeline& pipeline, const std::string& dir,
                          const CheckpointWriteOptions& options = {},
                          CheckpointWriteReport* report = nullptr);

/// The full load protocol: manifest current generation, falling back to the
/// previous generation.
Status LoadSiteCheckpoint(const std::string& dir, SiteId site,
                          SitePipeline* pipeline,
                          CheckpointLoadReport* report = nullptr);

}  // namespace rfid
