// Bounded least-recently-used map: O(1) get/put, strict capacity, eviction
// count reporting. The memory tier of util::BlobStore (and so of the one
// result cache, pipeline::StageStore); generic over any hashable key.
//
// Not thread-safe — callers hold their own lock (BlobStore's mutex).
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace ramp {

template <typename K, typename V>
class LruCache {
 public:
  /// Throws InvalidArgument when `capacity` is zero.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    RAMP_REQUIRE(capacity_ > 0, "LruCache capacity must be positive");
  }

  /// Returns the value for `key` (touching it most-recently-used), or
  /// nullptr when absent. The pointer is valid until the next put().
  V* get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts or overwrites `key` as most-recently-used. Returns the number
  /// of entries evicted to stay within capacity (0 or 1). When `displaced`
  /// is non-null it receives the value removed to make room — the old value
  /// on an overwrite or the evicted LRU victim — so callers keeping
  /// secondary accounting (e.g. total resident bytes) can subtract it; at
  /// most one of the two can happen per put.
  std::size_t put(const K& key, V value, V* displaced = nullptr) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (displaced != nullptr) *displaced = std::move(it->second->second);
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return 0;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    if (index_.size() <= capacity_) return 0;
    if (displaced != nullptr) *displaced = std::move(order_.back().second);
    index_.erase(order_.back().first);
    order_.pop_back();
    return 1;
  }

  bool contains(const K& key) const { return index_.count(key) != 0; }
  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Least-recently-used key first; for tests and diagnostics.
  std::list<std::pair<K, V>> snapshot() const {
    return {order_.rbegin(), order_.rend()};
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<K, V>> order_;  ///< front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> index_;
};

}  // namespace ramp
