// Open-addressing hash map from u64 keys to arbitrary values, used for the
// analyzer's ReductionResult aggregates and the radix fold's caches (and
// anywhere else a hot aggregation loop would otherwise pay std::map's node
// allocations and pointer chasing).
//
// Design: entries live densely in a vector (stable iteration in insertion
// order, cache-friendly merge walks); a separate power-of-two slot table of
// u32 indices does the probing. Linear probing with a splitmix64-mixed hash;
// the table grows at ~2/3 load. No erase — the reduction only accumulates.
#pragma once

#include <vector>

#include "support/common.hpp"

namespace dsprof {

/// Mix a 64-bit key into a well-distributed hash (splitmix64 finalizer).
constexpr u64 mix_u64(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename V>
class FlatHashU64Map {
 public:
  struct Entry {
    u64 key;
    V value;
  };

  FlatHashU64Map() = default;

  /// Pre-size for ~n entries without rehashing.
  void reserve(size_t n) {
    entries_.reserve(n);
    size_t cap = 16;
    while (cap * 2 < n * 3) cap <<= 1;
    if (cap > slots_.size()) rebuild(cap);
  }

  /// Find the value for `key`, inserting a default-constructed one if absent.
  V& operator[](u64 key) {
    if (slots_.empty()) rebuild(16);
    size_t i = mix_u64(key) & mask_;
    while (slots_[i] != 0) {
      Entry& e = entries_[slots_[i] - 1];
      if (e.key == key) return e.value;
      i = (i + 1) & mask_;
    }
    entries_.push_back(Entry{key, V{}});
    slots_[i] = static_cast<u32>(entries_.size());
    if (entries_.size() * 3 > slots_.size() * 2) rebuild(slots_.size() * 2);
    return entries_.back().value;
  }

  const V* find(u64 key) const {
    if (slots_.empty()) return nullptr;
    size_t i = mix_u64(key) & mask_;
    while (slots_[i] != 0) {
      const Entry& e = entries_[slots_[i] - 1];
      if (e.key == key) return &e.value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Dense entries in insertion order.
  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& entries() { return entries_; }

  void clear() {
    entries_.clear();
    slots_.assign(slots_.size(), 0);
  }

 private:
  void rebuild(size_t cap) {
    slots_.assign(cap, 0);
    mask_ = cap - 1;
    for (size_t n = 0; n < entries_.size(); ++n) {
      size_t i = mix_u64(entries_[n].key) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<u32>(n + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<u32> slots_;  // entry index + 1; 0 = empty
  size_t mask_ = 0;
};

}  // namespace dsprof
