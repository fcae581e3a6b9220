// Content-addressed blob store: bounded in-memory LRU in front of an
// optional persistent one-file-per-key directory, with single-flight
// computation per key.
//
// The one result cache of the system: pipeline::StageStore wraps it, and
// sweeps, the serve layer and the fleet simulator all answer from it.
//  - keys are full canonical strings, stored verbatim in every file header
//    so 64-bit digest collisions read as misses instead of wrong answers;
//  - disk writes are atomic (same-directory temp file + rename) and best
//    effort — an unwritable directory degrades to in-memory operation;
//  - corrupt, truncated, mis-keyed, or otherwise unreadable files are
//    indistinguishable from misses and get recomputed (and rewritten);
//  - concurrent get_or_compute() calls for one key coalesce onto a single
//    computation; the compute callback runs unlocked on the caller's own
//    thread, so a FIFO-pool worker computing a key never blocks on work
//    queued behind itself (waiters only ever block on *running* threads).
//
// Layering: this is util — it must not depend on obs. Callers that want
// hit/miss metrics or spans (pipeline::StageStore) book them around the
// Result this returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/lru_cache.hpp"

namespace ramp {

class BlobStore {
 public:
  /// Payloads are immutable once published; hits share the pointer.
  using Blob = std::shared_ptr<const std::string>;

  /// How one get_or_compute() call was answered, in order of preference.
  enum class Outcome {
    kMemoryHit,  ///< resident in the LRU — no work
    kDiskHit,    ///< read (and validated) from the persist directory
    kComputed,   ///< the compute callback ran on this thread
    kCoalesced,  ///< waited on an identical in-flight computation
  };

  struct Options {
    std::size_t memory_entries = 512;  ///< LRU capacity (entries, not bytes)
    std::string dir;                   ///< "" = in-memory only
  };

  struct Result {
    Blob blob;
    Outcome outcome = Outcome::kComputed;
    double compute_seconds = 0.0;  ///< wall time inside compute (kComputed only)
  };

  BlobStore();  ///< defaults: in-memory only
  explicit BlobStore(Options opts);

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  /// Returns the payload for `key`, computing (and persisting) it on a miss.
  /// `validate` vets payloads read from disk — return false to treat the
  /// file as corrupt (miss + recompute); in-memory and freshly computed
  /// payloads are trusted and never re-validated. Exceptions from `compute`
  /// propagate to this caller and to every coalesced waiter, and leave the
  /// store without an entry for `key`.
  Result get_or_compute(
      const std::string& key, const std::function<std::string()>& compute,
      const std::function<bool(const std::string&)>& validate = nullptr);

  /// The payload for `key` when it is resident in the memory tier (touching
  /// it most-recently-used), else null. Never reads the disk, computes, or
  /// waits on an in-flight computation, so it is safe on an event loop.
  Blob peek(const std::string& key);

  /// Resident entries / payload bytes in the memory tier (gauges).
  std::size_t memory_entries() const;
  std::uint64_t memory_bytes() const;
  /// Entries the memory tier has evicted to stay within capacity (counter).
  std::uint64_t evictions() const;

  const Options& options() const { return opts_; }

  /// The file a key persists to: <dir>/<fnv64(key)>.rampblob. Exposed for
  /// tests that corrupt entries on purpose.
  std::string path_for(const std::string& key) const;

 private:
  Blob load_disk(const std::string& key,
                 const std::function<bool(const std::string&)>& validate) const;
  void store_disk(const std::string& key, const std::string& payload) const;
  void publish(const std::string& key, const Blob& blob);

  Options opts_;
  mutable std::mutex mutex_;
  LruCache<std::string, Blob> lru_;
  std::unordered_map<std::string, std::shared_future<Blob>> inflight_;
  std::uint64_t memory_bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ramp
