#include "util/blob_store.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "util/error.hpp"
#include "util/hashing.hpp"

namespace ramp {

namespace fs = std::filesystem;

BlobStore::BlobStore() : BlobStore(Options{}) {}

BlobStore::BlobStore(Options opts)
    : opts_(std::move(opts)), lru_(opts_.memory_entries) {}

std::size_t BlobStore::memory_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::uint64_t BlobStore::memory_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return memory_bytes_;
}

std::uint64_t BlobStore::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::string BlobStore::path_for(const std::string& key) const {
  Fnv64 h;
  h.mix(std::string_view(key));
  return (fs::path(opts_.dir) / (h.hex() + ".rampblob")).string();
}

// File format (binary-safe):
//   # ramp_blob v1\n
//   # key=<canonical key>\n
//   # bytes=<payload size>\n
//   <payload bytes>
// The embedded key disambiguates digest collisions: a mismatch is a miss.
BlobStore::Blob BlobStore::load_disk(
    const std::string& key,
    const std::function<bool(const std::string&)>& validate) const {
  std::ifstream f(path_for(key), std::ios::binary);
  if (!f) return nullptr;
  std::string line;
  if (!std::getline(f, line) || line != "# ramp_blob v1") return nullptr;
  if (!std::getline(f, line) || line != "# key=" + key) return nullptr;
  if (!std::getline(f, line) || line.rfind("# bytes=", 0) != 0) return nullptr;
  std::uint64_t n = 0;
  try {
    std::size_t pos = 0;
    const std::string digits = line.substr(8);
    n = std::stoull(digits, &pos);
    if (pos != digits.size()) return nullptr;
  } catch (const std::exception&) {
    return nullptr;
  }
  // A torn or hostile header must not size the allocation: the payload can
  // be at most what is left of the file.
  const std::streamoff here = f.tellg();
  const std::streamoff end = f.seekg(0, std::ios::end).tellg();
  f.seekg(here);
  if (here < 0 || end < here || n > static_cast<std::uint64_t>(end - here)) {
    return nullptr;
  }
  auto payload = std::make_shared<std::string>();
  payload->resize(n);
  if (n > 0 && !f.read(payload->data(), static_cast<std::streamsize>(n))) {
    return nullptr;  // truncated
  }
  if (f.peek() != std::ifstream::traits_type::eof()) return nullptr;  // extra
  if (validate && !validate(*payload)) return nullptr;
  return payload;
}

void BlobStore::store_disk(const std::string& key,
                           const std::string& payload) const {
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  const fs::path target = path_for(key);
  // Same-directory temp file so the rename cannot cross filesystems. The
  // PID separates processes sharing one cache directory and the monotonic
  // counter separates every writer thread inside a process (pool workers
  // and plain threads alike), so no two writers — even two stores on the
  // same directory racing on one key — can interleave bytes in one temp
  // file. The rename then publishes a complete file or nothing.
  static std::atomic<std::uint64_t> temp_seq{0};
  fs::path tmp = target;
  tmp += ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(temp_seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream f(tmp, std::ios::binary);
    if (!f) return;  // best effort: an unwritable dir degrades to memory-only
    std::ostringstream header;
    header << "# ramp_blob v1\n# key=" << key << "\n# bytes=" << payload.size()
           << "\n";
    f << header.str();
    f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!f) {
      f.close();
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, target, ec);  // atomic publish
  if (ec) fs::remove(tmp, ec);
}

void BlobStore::publish(const std::string& key, const Blob& blob) {
  Blob displaced;
  evictions_ += lru_.put(key, blob, &displaced);
  memory_bytes_ += blob->size();
  if (displaced) memory_bytes_ -= displaced->size();
}

BlobStore::Blob BlobStore::peek(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Blob* cached = lru_.get(key);
  return cached != nullptr ? *cached : nullptr;
}

BlobStore::Result BlobStore::get_or_compute(
    const std::string& key, const std::function<std::string()>& compute,
    const std::function<bool(const std::string&)>& validate) {
  RAMP_REQUIRE(compute != nullptr, "BlobStore needs a compute callback");
  std::unique_lock<std::mutex> lock(mutex_);
  if (Blob* cached = lru_.get(key)) return {*cached, Outcome::kMemoryHit, 0.0};
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    std::shared_future<Blob> future = it->second;
    lock.unlock();
    return {future.get(), Outcome::kCoalesced, 0.0};
  }
  auto promise = std::make_shared<std::promise<Blob>>();
  inflight_.emplace(key, promise->get_future().share());
  lock.unlock();

  Blob blob;
  Outcome outcome = Outcome::kComputed;
  double compute_seconds = 0.0;
  try {
    if (!opts_.dir.empty()) blob = load_disk(key, validate);
    if (blob) {
      outcome = Outcome::kDiskHit;
    } else {
      const auto start = std::chrono::steady_clock::now();
      blob = std::make_shared<const std::string>(compute());
      compute_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (!opts_.dir.empty()) store_disk(key, *blob);
    }
  } catch (...) {
    lock.lock();
    inflight_.erase(key);
    promise->set_exception(std::current_exception());
    throw;
  }

  lock.lock();
  publish(key, blob);
  inflight_.erase(key);
  promise->set_value(blob);
  return {blob, outcome, compute_seconds};
}

}  // namespace ramp
