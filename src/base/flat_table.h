#ifndef GQE_BASE_FLAT_TABLE_H_
#define GQE_BASE_FLAT_TABLE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace gqe {

/// Finalizing shuffle applied on top of user hashes so that weak hash
/// functions (identity hashes of dense ids, multiplicative term hashes)
/// still spread across the power-of-two probe space. splitmix64 finalizer.
inline uint64_t HashShuffle(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

namespace flat_internal {

/// Control-byte tags. Full slots store the low 7 bits of the shuffled
/// hash (high bit clear), so a probe can reject almost all non-matching
/// slots from the 1-byte control array alone — and 8 control bytes at a
/// time with the SWAR word match below — without touching slot storage.
inline constexpr uint8_t kEmpty = 0x80;
inline constexpr uint8_t kDeleted = 0x81;  // tombstone
inline constexpr size_t kGroup = 8;        // control bytes probed per step

inline bool IsFull(uint8_t ctrl) { return (ctrl & 0x80) == 0; }

/// SWAR byte match: a word with bit 7 set in every byte of `word` equal
/// to `byte` (the SIMD-friendly probe loop — 8 slots per iteration with
/// plain 64-bit arithmetic, no intrinsics required).
inline uint64_t MatchByte(uint64_t word, uint8_t byte) {
  const uint64_t ones = 0x0101010101010101ull;
  uint64_t x = word ^ (ones * byte);
  return (x - ones) & ~x & 0x8080808080808080ull;
}

/// Open-addressing, linear-probing hash table over `Slot` values with
/// power-of-two capacity, tombstone tags, hash-shuffle and grow-at-half-
/// full (SNIPPETS.md snippets 1–2, Arlib set.h — rewritten around a
/// separate control-byte array so probes stay in one cache line).
///
/// `Ops` supplies hashing and equality and may be stateful (e.g. hold a
/// pointer to a backing columnar store):
///   uint64_t hash(const Probe&) const;     // any probe type
///   uint64_t hash(const Slot&) const;      // used on rehash
///   bool eq(const Slot&, const Probe&) const;
///
/// Iteration order is a deterministic function of the insertion/erase
/// sequence and the hash function — no pointer hashing, no per-process
/// seed — so two runs (in any process) that perform the same
/// operations observe the same order. It is NOT insertion order: callers
/// that need a canonical order keep a side vector or sort (the existing
/// sort-before-merge points in chase/ and serialize/ stay load-bearing).
template <typename Slot, typename Ops>
class RawTable {
 public:
  RawTable() : RawTable(Ops()) {}
  explicit RawTable(Ops ops) : ops_(std::move(ops)) {}

  RawTable(const RawTable& other) : ops_(other.ops_) { CopyFrom(other); }
  RawTable(RawTable&& other) noexcept
      : ctrl_(other.ctrl_),
        slots_(other.slots_),
        capacity_(other.capacity_),
        size_(other.size_),
        used_(other.used_),
        rehashes_(other.rehashes_),
        ops_(std::move(other.ops_)) {
    other.ctrl_ = nullptr;
    other.slots_ = nullptr;
    other.capacity_ = other.size_ = other.used_ = 0;
  }
  RawTable& operator=(const RawTable& other) {
    if (this == &other) return *this;
    Destroy();
    ops_ = other.ops_;
    CopyFrom(other);
    return *this;
  }
  RawTable& operator=(RawTable&& other) noexcept {
    if (this == &other) return *this;
    Destroy();
    ctrl_ = other.ctrl_;
    slots_ = other.slots_;
    capacity_ = other.capacity_;
    size_ = other.size_;
    used_ = other.used_;
    rehashes_ = other.rehashes_;
    ops_ = std::move(other.ops_);
    other.ctrl_ = nullptr;
    other.slots_ = nullptr;
    other.capacity_ = other.size_ = other.used_ = 0;
    return *this;
  }
  ~RawTable() { Destroy(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  /// Number of grow/cleanup rehashes performed. Exposed so debug guards
  /// can assert no references are held across a rehash.
  uint64_t rehashes() const { return rehashes_; }

  Ops& ops() { return ops_; }
  const Ops& ops() const { return ops_; }

  void clear() {
    if (ctrl_ == nullptr) return;
    if constexpr (!std::is_trivially_destructible_v<Slot>) {
      for (size_t i = 0; i < capacity_; ++i) {
        if (IsFull(ctrl_[i])) slots_[i].~Slot();
      }
    }
    std::memset(ctrl_, kEmpty, capacity_ + kGroup);
    size_ = 0;
    used_ = 0;
  }

  /// Ensures `n` entries fit without another rehash.
  void reserve(size_t n) {
    size_t target = NormalizeCapacity(n);
    if (target > capacity_) Rehash(target);
  }

  template <typename Probe>
  Slot* find(const Probe& probe) {
    if (ctrl_ == nullptr) return nullptr;
    size_t pos = FindExisting(ShuffledHash(probe), probe);
    return pos == kNpos ? nullptr : slots_ + pos;
  }
  template <typename Probe>
  const Slot* find(const Probe& probe) const {
    return const_cast<RawTable*>(this)->find(probe);
  }
  template <typename Probe>
  bool contains(const Probe& probe) const {
    return find(probe) != nullptr;
  }

  /// Inserts the slot built by `make()` if no slot matches `probe`.
  /// Returns {slot, inserted}.
  template <typename Probe, typename MakeSlot>
  std::pair<Slot*, bool> InsertWith(const Probe& probe, MakeSlot&& make) {
    if (ctrl_ == nullptr) Rehash(kMinCapacity);
    const uint64_t h = ShuffledHash(probe);
    size_t target = kNpos;
    size_t pos = FindOrPrepare(h, probe, &target);
    if (pos != kNpos) return {slots_ + pos, false};
    if (ctrl_[target] == kEmpty && (used_ + 1) * 2 > capacity_) {
      // Grow at half full. Double while genuinely full; rehash in place
      // when tombstones (not live entries) exhausted the empties.
      Rehash(size_ * 4 >= capacity_ ? capacity_ * 2 : capacity_);
      target = FindInsertSlot(h);
    }
    if (ctrl_[target] == kEmpty) ++used_;
    SetCtrl(target, static_cast<uint8_t>(h & 0x7f));
    new (slots_ + target) Slot(make());
    ++size_;
    return {slots_ + target, true};
  }

  template <typename Probe>
  bool erase(const Probe& probe) {
    if (ctrl_ == nullptr) return false;
    size_t pos = FindExisting(ShuffledHash(probe), probe);
    if (pos == kNpos) return false;
    slots_[pos].~Slot();
    SetCtrl(pos, kDeleted);
    --size_;
    return true;
  }

  template <bool Const>
  class Iterator {
   public:
    using TablePtr = std::conditional_t<Const, const RawTable*, RawTable*>;
    using Ref = std::conditional_t<Const, const Slot&, Slot&>;
    Iterator(TablePtr table, size_t pos) : table_(table), pos_(pos) {
      SkipEmpty();
    }
    Ref operator*() const { return table_->slots_[pos_]; }
    auto* operator->() const { return &table_->slots_[pos_]; }
    Iterator& operator++() {
      ++pos_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const Iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const Iterator& o) const { return pos_ != o.pos_; }

   private:
    void SkipEmpty() {
      while (pos_ < table_->capacity_ && !IsFull(table_->ctrl_[pos_])) ++pos_;
    }
    TablePtr table_;
    size_t pos_;
  };

  Iterator<false> begin() { return Iterator<false>(this, 0); }
  Iterator<false> end() { return Iterator<false>(this, capacity_); }
  Iterator<true> begin() const { return Iterator<true>(this, 0); }
  Iterator<true> end() const { return Iterator<true>(this, capacity_); }

 private:
  static constexpr size_t kNpos = ~static_cast<size_t>(0);
  static constexpr size_t kMinCapacity = 16;

  static size_t NormalizeCapacity(size_t n) {
    size_t cap = kMinCapacity;
    while (cap < 2 * n) cap <<= 1;  // keep load factor under 1/2
    return cap;
  }

  template <typename Probe>
  uint64_t ShuffledHash(const Probe& probe) const {
    return HashShuffle(static_cast<uint64_t>(ops_.hash(probe)));
  }

  uint64_t LoadGroup(size_t pos) const {
    uint64_t word;
    std::memcpy(&word, ctrl_ + pos, sizeof(word));
    return word;
  }

  void SetCtrl(size_t pos, uint8_t value) {
    ctrl_[pos] = value;
    // The mirrored tail lets group loads near the end of the array wrap
    // without masking every byte.
    if (pos < kGroup) ctrl_[capacity_ + pos] = value;
  }

  /// Index of the slot matching `probe`, or kNpos.
  template <typename Probe>
  size_t FindExisting(uint64_t h, const Probe& probe) const {
    const size_t mask = capacity_ - 1;
    const uint8_t h2 = static_cast<uint8_t>(h & 0x7f);
    size_t pos = (h >> 7) & mask;
    for (size_t step = 0; step <= mask; step += kGroup) {
      const uint64_t word = LoadGroup(pos);
      uint64_t match = MatchByte(word, h2);
      while (match != 0) {
        const size_t bit = CountTrailingZeros(match) >> 3;
        const size_t slot = (pos + bit) & mask;
        if (ops_.eq(slots_[slot], probe)) return slot;
        match &= match - 1;
      }
      if (MatchByte(word, kEmpty) != 0) return kNpos;
      pos = (pos + kGroup) & mask;
    }
    return kNpos;
  }

  /// Like FindExisting but also reports the slot a new entry should take
  /// (first tombstone on the probe path, else the first empty).
  template <typename Probe>
  size_t FindOrPrepare(uint64_t h, const Probe& probe, size_t* target) const {
    const size_t mask = capacity_ - 1;
    const uint8_t h2 = static_cast<uint8_t>(h & 0x7f);
    size_t pos = (h >> 7) & mask;
    size_t reuse = kNpos;
    for (size_t step = 0; step <= mask; step += kGroup) {
      const uint64_t word = LoadGroup(pos);
      uint64_t match = MatchByte(word, h2);
      while (match != 0) {
        const size_t bit = CountTrailingZeros(match) >> 3;
        const size_t slot = (pos + bit) & mask;
        if (ops_.eq(slots_[slot], probe)) return slot;
        match &= match - 1;
      }
      const uint64_t empty = MatchByte(word, kEmpty);
      if (reuse == kNpos) {
        uint64_t dead = MatchByte(word, kDeleted);
        // Never reuse a tombstone past the first empty on the probe path:
        // a key stored there would be unreachable (lookups stop at the
        // empty). Group bytes are probe-ordered (little-endian load), so
        // masking to bits below the first empty keeps only valid reuses.
        if (empty != 0) dead &= empty - 1;
        if (dead != 0) reuse = (pos + (CountTrailingZeros(dead) >> 3)) & mask;
      }
      if (empty != 0) {
        *target = reuse != kNpos
                      ? reuse
                      : (pos + (CountTrailingZeros(empty) >> 3)) & mask;
        return kNpos;
      }
      pos = (pos + kGroup) & mask;
    }
    assert(reuse != kNpos && "flat table probe wrapped with no empty slot");
    *target = reuse;
    return kNpos;
  }

  /// First empty slot for `h` in a table known not to contain the key
  /// (used right after a rehash, which clears all tombstones).
  size_t FindInsertSlot(uint64_t h) const {
    const size_t mask = capacity_ - 1;
    size_t pos = (h >> 7) & mask;
    for (;;) {
      const uint64_t word = LoadGroup(pos);
      const uint64_t empty = MatchByte(word, kEmpty);
      if (empty != 0) return (pos + (CountTrailingZeros(empty) >> 3)) & mask;
      pos = (pos + kGroup) & mask;
    }
  }

  static size_t CountTrailingZeros(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<size_t>(__builtin_ctzll(x));
#else
    size_t n = 0;
    while ((x & 1) == 0) {
      x >>= 1;
      ++n;
    }
    return n;
#endif
  }

  void Allocate(size_t capacity) {
    capacity_ = capacity;
    ctrl_ = static_cast<uint8_t*>(::operator new(capacity + kGroup));
    std::memset(ctrl_, kEmpty, capacity + kGroup);
    slots_ = static_cast<Slot*>(::operator new(
        capacity * sizeof(Slot), std::align_val_t(alignof(Slot))));
  }

  void Free() {
    ::operator delete(ctrl_);
    ::operator delete(slots_, std::align_val_t(alignof(Slot)));
    ctrl_ = nullptr;
    slots_ = nullptr;
  }

  void Destroy() {
    if (ctrl_ == nullptr) return;
    if constexpr (!std::is_trivially_destructible_v<Slot>) {
      for (size_t i = 0; i < capacity_; ++i) {
        if (IsFull(ctrl_[i])) slots_[i].~Slot();
      }
    }
    Free();
    capacity_ = size_ = used_ = 0;
  }

  /// Byte-exact replication (same capacity, same slot positions), so a
  /// copied table iterates in the same order as its source.
  void CopyFrom(const RawTable& other) {
    if (other.ctrl_ == nullptr) {
      ctrl_ = nullptr;
      slots_ = nullptr;
      capacity_ = size_ = used_ = 0;
      rehashes_ = other.rehashes_;
      return;
    }
    Allocate(other.capacity_);
    std::memcpy(ctrl_, other.ctrl_, other.capacity_ + kGroup);
    for (size_t i = 0; i < other.capacity_; ++i) {
      if (IsFull(other.ctrl_[i])) new (slots_ + i) Slot(other.slots_[i]);
    }
    size_ = other.size_;
    used_ = other.used_;
    rehashes_ = other.rehashes_;
  }

  void Rehash(size_t new_capacity) {
    if (new_capacity < kMinCapacity) new_capacity = kMinCapacity;
    uint8_t* old_ctrl = ctrl_;
    Slot* old_slots = slots_;
    const size_t old_capacity = capacity_;
    Allocate(new_capacity);
    used_ = size_;
    ++rehashes_;
    if (old_ctrl == nullptr) return;
    for (size_t i = 0; i < old_capacity; ++i) {
      if (!IsFull(old_ctrl[i])) continue;
      const uint64_t h = ShuffledHash(old_slots[i]);
      const size_t pos = FindInsertSlot(h);
      SetCtrl(pos, static_cast<uint8_t>(h & 0x7f));
      new (slots_ + pos) Slot(std::move(old_slots[i]));
      old_slots[i].~Slot();
    }
    ::operator delete(old_ctrl);
    ::operator delete(old_slots, std::align_val_t(alignof(Slot)));
  }

  uint8_t* ctrl_ = nullptr;
  Slot* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t size_ = 0;   // full slots
  size_t used_ = 0;   // full + tombstoned slots
  uint64_t rehashes_ = 0;
  Ops ops_;
};

template <typename Key, typename Hash, typename Eq>
struct SetOps {
  Hash hasher;
  Eq equals;
  template <typename Probe>
  uint64_t hash(const Probe& probe) const {
    return static_cast<uint64_t>(hasher(probe));
  }
  template <typename Probe>
  bool eq(const Key& slot, const Probe& probe) const {
    return equals(slot, probe);
  }
};

template <typename Key, typename Value, typename Hash, typename Eq>
struct MapOps {
  Hash hasher;
  Eq equals;
  using Slot = std::pair<Key, Value>;
  uint64_t hash(const Slot& slot) const {
    return static_cast<uint64_t>(hasher(slot.first));
  }
  template <typename Probe>
  uint64_t hash(const Probe& probe) const {
    return static_cast<uint64_t>(hasher(probe));
  }
  template <typename Probe>
  bool eq(const Slot& slot, const Probe& probe) const {
    return equals(slot.first, probe);
  }
};

}  // namespace flat_internal

/// Drop-in open-addressing replacement for the std::unordered_set uses on
/// the hot paths. Heterogeneous lookup works out of the box: any probe
/// type `Hash`/`Eq` accept is a valid argument to find/contains/erase.
template <typename Key, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class FlatSet {
  using Ops = flat_internal::SetOps<Key, Hash, Eq>;

 public:
  FlatSet() = default;
  explicit FlatSet(size_t capacity_hint) { table_.reserve(capacity_hint); }

  std::pair<Key*, bool> insert(const Key& key) {
    return table_.InsertWith(key, [&]() -> const Key& { return key; });
  }
  std::pair<Key*, bool> insert(Key&& key) {
    return table_.InsertWith(key, [&]() -> Key&& { return std::move(key); });
  }

  template <typename Probe>
  const Key* find(const Probe& probe) const {
    return table_.find(probe);
  }
  template <typename Probe>
  bool contains(const Probe& probe) const {
    return table_.contains(probe);
  }
  template <typename Probe>
  size_t count(const Probe& probe) const {
    return table_.contains(probe) ? 1 : 0;
  }
  template <typename Probe>
  bool erase(const Probe& probe) {
    return table_.erase(probe);
  }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t capacity() const { return table_.capacity(); }
  uint64_t rehashes() const { return table_.rehashes(); }
  void clear() { table_.clear(); }
  void reserve(size_t n) { table_.reserve(n); }

  auto begin() const { return table_.begin(); }
  auto end() const { return table_.end(); }

 private:
  flat_internal::RawTable<Key, Ops> table_;
};

/// Open-addressing map counterpart. Iteration yields std::pair<Key,
/// Value>& entries (first/second, as with the std maps it replaces).
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class FlatMap {
  using Ops = flat_internal::MapOps<Key, Value, Hash, Eq>;
  using Slot = std::pair<Key, Value>;

 public:
  FlatMap() = default;
  explicit FlatMap(size_t capacity_hint) { table_.reserve(capacity_hint); }

  Value& operator[](const Key& key) {
    auto [slot, inserted] =
        table_.InsertWith(key, [&] { return Slot(key, Value()); });
    return slot->second;
  }

  std::pair<Slot*, bool> try_emplace(const Key& key, Value value) {
    return table_.InsertWith(
        key, [&] { return Slot(key, std::move(value)); });
  }

  template <typename Probe>
  Slot* find(const Probe& probe) {
    return table_.find(probe);
  }
  template <typename Probe>
  const Slot* find(const Probe& probe) const {
    return table_.find(probe);
  }
  template <typename Probe>
  Value* value(const Probe& probe) {
    Slot* slot = table_.find(probe);
    return slot == nullptr ? nullptr : &slot->second;
  }
  template <typename Probe>
  const Value* value(const Probe& probe) const {
    const Slot* slot = table_.find(probe);
    return slot == nullptr ? nullptr : &slot->second;
  }
  template <typename Probe>
  bool contains(const Probe& probe) const {
    return table_.contains(probe);
  }
  template <typename Probe>
  bool erase(const Probe& probe) {
    return table_.erase(probe);
  }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t capacity() const { return table_.capacity(); }
  uint64_t rehashes() const { return table_.rehashes(); }
  void clear() { table_.clear(); }
  void reserve(size_t n) { table_.reserve(n); }

  auto begin() { return table_.begin(); }
  auto end() { return table_.end(); }
  auto begin() const { return table_.begin(); }
  auto end() const { return table_.end(); }

 private:
  flat_internal::RawTable<Slot, Ops> table_;
};

}  // namespace gqe

#endif  // GQE_BASE_FLAT_TABLE_H_
