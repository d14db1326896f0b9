/**
 * @file
 * The cache's page table: line key -> frame index, as a flat
 * open-addressing table.
 *
 * Linear probing over one array of 16-byte slots, a multiplicative hash
 * that keeps the product's high bits, and backward-shift erase (no
 * tombstones, so probe runs never grow with churn). The table is sized
 * once, to a power of two of at least twice the most entries it may
 * hold, and never rehashes. It offers probes only and no iteration: slot
 * order depends on the hash, and keeping it unreachable keeps it out of
 * the event stream (DESIGN.md §11).
 */

#ifndef SMART_CACHE_LINE_TABLE_HPP
#define SMART_CACHE_LINE_TABLE_HPP

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace smart::cache {

/** Sentinel frame index ("no frame": fallback path / unpinned handle). */
inline constexpr std::uint32_t kNoFrame = 0xffffffffu;

/** Key of one cache line: (blade << 46) | line index. Keys stay below
 *  2^62, because cache cookies carry a key under a 2-bit kind tag. */
using LineKey = std::uint64_t;

inline constexpr unsigned kLineBits = 46;
inline constexpr std::uint64_t kMaxLine = (1ull << kLineBits) - 1;
inline constexpr std::uint32_t kMaxKeyBlades = 1u << 16;

/** Marks an empty slot; above every key makeKey() can return. */
inline constexpr LineKey kEmptyKey = ~LineKey{0};

constexpr LineKey
makeKey(std::uint32_t blade, std::uint64_t line)
{
    assert(blade < kMaxKeyBlades && line <= kMaxLine);
    return (static_cast<LineKey>(blade) << kLineBits) | line;
}
constexpr std::uint32_t
keyBlade(LineKey k)
{
    return static_cast<std::uint32_t>(k >> kLineBits);
}
constexpr std::uint64_t keyLine(LineKey k) { return k & kMaxLine; }

static_assert(makeKey(kMaxKeyBlades - 1, kMaxLine) < (1ull << 62));

class LineTable
{
  public:
    /** A table for at most @p max_entries keys at a time. */
    explicit LineTable(std::uint32_t max_entries)
        : slots_(std::bit_ceil(
              std::max<std::uint64_t>(2, 2ull * max_entries))),
          mask_(slots_.size() - 1),
          bits_(std::countr_zero(slots_.size()))
    {
    }

    /** @return the frame of @p key, or kNoFrame. */
    std::uint32_t
    find(LineKey key) const
    {
        for (std::uint64_t i = home(key);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return s.frame;
            if (s.key == kEmptyKey)
                return kNoFrame;
        }
    }

    /** Add @p key, which must be absent, mapped to @p frame. */
    void
    insert(LineKey key, std::uint32_t frame)
    {
        assert(key != kEmptyKey && size_ < slots_.size() / 2);
        std::uint64_t i = home(key);
        while (slots_[i].key != kEmptyKey) {
            assert(slots_[i].key != key);
            i = (i + 1) & mask_;
        }
        slots_[i] = Slot{key, frame};
        ++size_;
    }

    /** Remove @p key if present. Later members of its probe run shift
     *  back into the hole, so every run stays gap-free. */
    void
    erase(LineKey key)
    {
        std::uint64_t i = home(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == kEmptyKey)
                return;
            i = (i + 1) & mask_;
        }
        for (std::uint64_t j = (i + 1) & mask_; slots_[j].key != kEmptyKey;
             j = (j + 1) & mask_) {
            // slots_[j] may fill the hole at i only if its home does not
            // lie cyclically in (i, j].
            if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i] = Slot{};
        --size_;
    }

    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::uint64_t capacity() const { return slots_.size(); }

    /** Slot where the probe for @p key starts (tests use it to build
     *  colliding keys). */
    std::uint64_t
    home(LineKey key) const
    {
        return (key * 0x9e3779b97f4a7c15ull) >> (64 - bits_);
    }

  private:
    struct Slot
    {
        LineKey key = kEmptyKey;
        std::uint32_t frame = kNoFrame;
    };

    std::vector<Slot> slots_;
    std::uint64_t mask_ = 0;
    int bits_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace smart::cache

#endif // SMART_CACHE_LINE_TABLE_HPP
