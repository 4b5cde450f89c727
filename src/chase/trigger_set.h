#ifndef GQE_CHASE_TRIGGER_SET_H_
#define GQE_CHASE_TRIGGER_SET_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/arena.h"
#include "base/flat_table.h"

namespace gqe {

/// Dedup set for oblivious-chase trigger keys (tgd index + body-variable
/// images, a short uint32 run). Key bytes live contiguously in a bump
/// arena and the open-addressing index stores {pointer, length} slots, so
/// there is no heap vector or node per key. clear() keeps the index's
/// capacity and the arena's newest block for reuse: the chase clears the
/// set at the start of every round.
///
/// Not copyable: slots alias the arena.
class TriggerKeySet {
 public:
  TriggerKeySet() = default;
  TriggerKeySet(const TriggerKeySet&) = delete;
  TriggerKeySet& operator=(const TriggerKeySet&) = delete;

  static uint64_t HashKey(const uint32_t* data, size_t len) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < len; ++i) {
      h = HashShuffle(h ^ data[i]);
    }
    return h;
  }

  /// Inserts the key; returns true if it was new. Key bytes are copied
  /// into the arena only on a fresh insert.
  bool insert(const std::vector<uint32_t>& key) {
    auto [slot, fresh] = table_.InsertWith(key, [&]() {
      uint32_t* stored = arena_.AllocateArray<uint32_t>(key.size());
      if (!key.empty()) {
        std::memcpy(stored, key.data(), key.size() * sizeof(uint32_t));
      }
      return KeyRef{stored, static_cast<uint32_t>(key.size())};
    });
    return fresh;
  }

  void reserve(size_t n) { table_.reserve(n); }

  void clear() {
    table_.clear();
    arena_.Reset();
  }

 private:
  struct KeyRef {
    const uint32_t* data;
    uint32_t len;
  };

  struct Ops {
    uint64_t hash(const KeyRef& ref) const {
      return HashKey(ref.data, ref.len);
    }
    uint64_t hash(const std::vector<uint32_t>& key) const {
      return HashKey(key.data(), key.size());
    }
    bool eq(const KeyRef& slot, const std::vector<uint32_t>& key) const {
      return slot.len == key.size() &&
             (slot.len == 0 ||
              std::memcmp(slot.data, key.data(),
                          slot.len * sizeof(uint32_t)) == 0);
    }
  };

  Arena arena_;
  flat_internal::RawTable<KeyRef, Ops> table_;
};

}  // namespace gqe

#endif  // GQE_CHASE_TRIGGER_SET_H_
