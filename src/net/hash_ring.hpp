// Consistent-hash ring over shard indices.
//
// The sharded front routes every eval request by its trace-stage key
// (net::eval_route_key), so one key always lands on one shard — that
// shard's stage store owns every cell derived from it exclusively, and the
// per-key single-flight guarantee holds fleet-wide. Consistent hashing (vs
// `hash % N`) keeps the mapping stable under future shard-count changes:
// resizing from N to N+1 moves ~1/(N+1) of the keyspace instead of nearly
// all of it.
//
// Deterministic: the ring is a pure function of (shards, vnodes) built from
// util::Fnv64, so every front process — and every test — agrees on the
// placement of every key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ramp::net {

class HashRing {
 public:
  /// `vnodes` virtual points per shard smooth the keyspace split: at 64,
  /// shard shares stay within a few percent of uniform.
  explicit HashRing(std::size_t shards, std::size_t vnodes = 64);

  std::size_t shards() const { return shards_; }

  /// The shard owning `key`: the first ring point clockwise of hash(key).
  std::size_t shard_for(std::string_view key) const;

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t shard;
  };
  std::size_t shards_;
  std::vector<Point> ring_;  ///< sorted by hash
};

}  // namespace ramp::net
