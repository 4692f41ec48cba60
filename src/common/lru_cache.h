// Least-recently-used cache over an unordered_map + recency list.
//
// Serving-side caches (ScoringEngine's per-user feature invariants and
// per-tweet contexts) are bounded by an entry capacity and evict the
// entry that has gone unread the longest. Not thread-safe: callers own
// their engine instance; parallel scoring happens below the cache (inside
// the batched model forward), never across it.

#ifndef RETINA_COMMON_LRU_CACHE_H_
#define RETINA_COMMON_LRU_CACHE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace retina {

/// \brief Fixed-capacity LRU map. Get refreshes recency; Put evicts the
/// least-recently-used entry once the cache exceeds its capacity.
template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  /// Returns the cached value (marking it most recently used) or nullptr.
  /// The pointer stays valid until the next Put.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Inserts (or overwrites) key as the most recently used entry and
  /// returns a pointer to the stored value, evicting from the LRU end
  /// while over capacity.
  V* Put(K key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      items_.splice(items_.begin(), items_, it->second);
      return &it->second->second;
    }
    items_.emplace_front(key, std::move(value));
    index_.emplace(std::move(key), items_.begin());
    if (items_.size() > capacity_) {
      index_.erase(items_.back().first);
      items_.pop_back();
      ++evictions_;
    }
    return &items_.front().second;
  }

  bool Contains(const K& key) const { return index_.count(key) > 0; }

  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }
  /// Total entries evicted over the cache's lifetime.
  uint64_t evictions() const { return evictions_; }

 private:
  size_t capacity_;
  uint64_t evictions_ = 0;
  std::list<std::pair<K, V>> items_;  // front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> index_;
};

}  // namespace retina

#endif  // RETINA_COMMON_LRU_CACHE_H_
