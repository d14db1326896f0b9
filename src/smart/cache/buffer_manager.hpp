/**
 * @file
 * Compute-side buffer-managed cache tier (ScaleStore-style BufferManager).
 *
 * A fixed pool of line-sized frames fronts the remote blades: reads that
 * hit a resident line are served locally for ~cfg.hitNs instead of a full
 * wire round-trip (~1.3 us modeled). The page table is a flat
 * open-addressing LineTable keyed by (blade, line); eviction is CLOCK
 * second-chance (or a plain FIFO-ish sweep); dirty frames are written
 * back asynchronously on the evicting coroutine's doorbell batch; misses
 * may prefetch adjacent lines on the same batch. A hit runs synchronously
 * (tryPinHit) and allocates no coroutine frame; only misses and waits on
 * a mid-fill line enter the ensureLinePinned coroutine.
 *
 * Coherence rules (DESIGN.md §11):
 *  - CAS/FAA always go to the wire and invalidate the covering line when
 *    their completion lands (WorkReq::cacheCookie routing), so lock words
 *    and commit points are never served stale.
 *  - A CAS on a line with dirty cached data forces a write-back round
 *    first (write-back ordering vs. FORD-style commit points).
 *  - Bypass WRITEs patch resident lines at staging time; lines mid-fill
 *    record pending patches applied when the fill lands.
 *  - A blade crash/restart (MR invalidation, incarnation bump) drops
 *    every line of that blade before the next cached access.
 *
 * Determinism: all state lives in index-addressed vectors; the line
 * table has no iteration API, so its layout cannot reach the event
 * stream and cached runs are as byte-deterministic as cache-less ones.
 * With the cache disabled (CacheConfig::sizeBytes == 0) no BufferManager
 * exists at all and every event stream is byte-identical to earlier
 * builds.
 */

#ifndef SMART_CACHE_BUFFER_MANAGER_HPP
#define SMART_CACHE_BUFFER_MANAGER_HPP

#include <coroutine>
#include <cstdint>
#include <vector>

#include "rnic/rnic.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "smart/access.hpp"
#include "smart/cache/line_table.hpp"
#include "smart/smart_config.hpp"
#include "verbs/mem_span.hpp"

namespace smart {

class SmartCtx;
class SmartRuntime;

namespace cache {

/** Most parts one accessMany() batch may carry through the cache. */
inline constexpr std::uint32_t kMaxParts = 16;

/** Most lines one accessMany() batch may touch (parts x span lines). */
inline constexpr std::uint32_t kMaxBatchLines = 64;

/**
 * The buffer pool. One instance per SmartRuntime (created only when
 * SmartConfig::cache.enabled()); shared by every thread and coroutine of
 * the runtime, which is safe because the whole simulation is one OS
 * thread and all cache state changes happen between co_awaits.
 */
class BufferManager
{
  public:
    BufferManager(SmartRuntime &rt, const CacheConfig &cfg);
    ~BufferManager();

    BufferManager(const BufferManager &) = delete;
    BufferManager &operator=(const BufferManager &) = delete;

    const CacheConfig &config() const { return cfg_; }

    /** Frame pool storage (the runtime registers it as a local MR). */
    MemSpan
    pool()
    {
        return MemSpan{pool_.data(), static_cast<std::uint32_t>(pool_.size())};
    }

    /** @return true when a @p len -byte access at @p offset may be
     *  served through the cache (fits the span-lines budget). */
    bool
    cacheable(std::uint64_t offset, std::uint32_t len) const
    {
        if (len == 0)
            return false;
        std::uint64_t first = offset / cfg_.lineBytes;
        std::uint64_t last = (offset + len - 1) / cfg_.lineBytes;
        return last - first + 1 <= cfg_.maxSpanLines;
    }

    /**
     * Serve a batch of reads through the cache: hits copy out locally,
     * misses fill frames over the wire (one doorbell batch + one sync for
     * the whole batch), concurrent fills of the same line coalesce.
     * On verb failure ctx.failed() is set and destinations are
     * unspecified, exactly like the bypass path.
     */
    sim::Task readParts(SmartCtx &ctx, const ReadPart *parts,
                        std::uint32_t nparts);

    /**
     * Write-back write: if the covering line is resident and the span
     * does not cross lines, the frame is updated locally and marked
     * dirty.
     * @return true when absorbed (no wire op); false -> caller must
     *         write through.
     */
    bool tryCachedWrite(std::uint32_t blade, const RemotePtr &dst,
                        ConstMemSpan src);

    /**
     * Pin the line covering [p.offset, p.offset+len) and expose a direct
     * view of its bytes. Pinned frames are never evicted; an
     * invalidation detaches them (the view stays readable) and the frame
     * is reclaimed at unpin. Fails (frame == kNoFrame) when the span
     * crosses a line or the pool is exhausted.
     */
    sim::Task pinLine(SmartCtx &ctx, const RemotePtr &p, std::uint32_t len,
                      const std::uint8_t *&view, std::uint32_t &frame);

    /** Release one pin taken by pinLine(). */
    void unpin(std::uint32_t frame);

    // ---- coherence hooks (called from SmartCtx staging verbs) ----

    /** A Bypass WRITE is being staged: patch/schedule-patch resident
     *  state so cached readers never see older bytes than the wire. */
    void noteBypassWrite(std::uint32_t blade, std::uint64_t offset,
                         ConstMemSpan src);

    /** @return cacheCookie for a staged CAS/FAA on @p offset: its
     *  completion invalidates the covering line. */
    std::uint64_t atomicCookie(std::uint32_t blade, std::uint64_t offset);

    /** @return true when the line covering @p offset holds dirty
     *  (not yet written back) cached data. */
    bool lineDirty(std::uint32_t blade, std::uint64_t offset) const;

    /** Write back the line covering @p offset and wait until it is
     *  clean (ordering barrier ahead of an atomic on the same line). */
    sim::Task flushLine(SmartCtx &ctx, std::uint32_t blade,
                        std::uint64_t offset);

    /** Write back every dirty frame (commit barrier / orderly drain). */
    sim::Task flushAll(SmartCtx &ctx);

    /** Drop every line of @p blade (crash-restart MR invalidation). */
    void flushBlade(std::uint32_t blade);

    /**
     * Blade-drain handoff: re-key every resident line of
     * [@p offset, @p offset + @p len) from @p from_blade to the same
     * offsets on @p to_blade (the membership plane migrates partition
     * regions to identical offsets, so only the blade half of the key
     * changes). The frame bytes do not move and pins survive — a reader
     * holding a pinned view keeps it across the drain. Dirty frames stay
     * dirty under the new key, so their eventual write-back targets the
     * destination; a write-back already in flight to the source is
     * re-dirtied (its bytes never reached the destination). Lines
     * mid-fill from the source are invalidated instead (the fill bytes
     * may predate the migration copy).
     * @return number of lines handed off
     */
    std::uint32_t handoffRange(std::uint32_t from_blade,
                               std::uint32_t to_blade, std::uint64_t offset,
                               std::uint64_t len);

    /** Lines re-keyed by handoffRange so far. */
    std::uint64_t handoffCount() const { return handoffs_.value(); }

    /** Compare @p blade's incarnation against the last one seen and
     *  flush its lines after a crash/restart cycle. */
    void checkIncarnation(std::uint32_t blade);

    /** CQE routing from SmartRuntime::dispatchCqe (wr.cacheCookie != 0).
     *  Also invoked for CQEs of abandoned sync rounds: cookies carry
     *  their own generation so stale ones are rejected here. */
    void onCqe(const rnic::WorkReq &wr, rnic::WcStatus status);

    // ---- introspection (benches, tests) ----
    std::uint64_t hitCount() const { return hits_.value(); }
    std::uint64_t missCount() const { return misses_.value(); }
    std::uint64_t evictionCount() const { return evictions_.value(); }
    std::uint64_t writebackCount() const { return writebacks_.value(); }
    std::uint64_t prefetchCount() const { return prefetches_.value(); }
    std::uint64_t invalidationCount() const { return invalidations_.value(); }
    std::uint32_t
    numFrames() const
    {
        return static_cast<std::uint32_t>(frames_.size());
    }
    std::uint32_t residentLines() const;
    std::uint32_t dirtyLines() const;
    /** Frame pool exhaustion fallbacks (reads bypassed to the wire). */
    std::uint64_t poolExhausted() const { return exhausted_.value(); }

  private:
    enum class FrameState : std::uint8_t { Free, Loading, Ready };

    /** A pending Bypass-WRITE patch against a line that is mid-fill. */
    struct Patch
    {
        std::uint32_t off = 0;
        std::vector<std::uint8_t> bytes;
    };

    /** The per-frame state a hit reads and writes (32 bytes). */
    struct Frame
    {
        LineKey key = 0;
        std::uint32_t seq = 0;      ///< bumped at free; stale-CQE guard
        std::uint32_t dirtyGen = 0; ///< bumped per cached write
        std::uint32_t wbGen = 0;    ///< dirtyGen captured at WB stage
        std::uint16_t pins = 0;
        FrameState state = FrameState::Free;
        bool refBit = false;
        bool dirty = false;
        bool wbInFlight = false;
        bool staleOnFill = false; ///< invalidated while mid-fill
        bool detached = false;    ///< no page-table entry; zombie
        bool abandoned = false;   ///< fill WR abandoned (timeout)
    };
    static_assert(sizeof(Frame) == 32, "two hot frame records per cache line");

    /** Per-frame state only fills, waits and patches touch, kept apart
     *  so the hit path's frame records stay small. */
    struct FrameCold
    {
        std::vector<std::coroutine_handle<>> waiters;
        std::vector<Patch> patches;
    };

    std::uint8_t *
    frameBytes(std::uint32_t idx)
    {
        return pool_.data() + static_cast<std::size_t>(idx) * cfg_.lineBytes;
    }

    // Cookie layout: kind in bits 62..63; fill/write-back carry
    // (seq << 32) | frame+1, invalidation carries the line key.
    static constexpr std::uint64_t kCookieFill = 1ull << 62;
    static constexpr std::uint64_t kCookieWriteBack = 2ull << 62;
    static constexpr std::uint64_t kCookieInvalidate = 3ull << 62;

    std::uint64_t
    fillCookie(std::uint32_t frame) const
    {
        return kCookieFill |
               (static_cast<std::uint64_t>(frames_[frame].seq & 0x3fffffff)
                << 32) |
               (frame + 1);
    }

    std::uint64_t
    wbCookie(std::uint32_t frame) const
    {
        return kCookieWriteBack |
               (static_cast<std::uint64_t>(frames_[frame].seq & 0x3fffffff)
                << 32) |
               (frame + 1);
    }

    /**
     * The hit path: when @p key is resident and Ready, count a hit, pin
     * the frame into @p frame and return true. Otherwise change nothing
     * and return false.
     */
    bool
    tryPinHit(LineKey key, std::uint32_t &frame)
    {
        std::uint32_t idx = table_.find(key);
        if (idx == kNoFrame)
            return false;
        Frame &f = frames_[idx];
        if (f.state != FrameState::Ready)
            return false;
        hits_.add();
        f.refBit = true;
        ++f.pins;
        frame = idx;
        return true;
    }

    /**
     * The rest of a lookup whose tryPinHit() just failed: a concurrent
     * fill is awaited (posting our own staged WRs first so fill chains
     * cannot deadlock) and the line re-probed, a miss allocates a frame
     * and stages a fill into the caller's round. frame == kNoFrame ->
     * pool exhausted, caller bypasses.
     */
    sim::Task ensureLinePinned(SmartCtx &ctx, const RemotePtr &line_ptr,
                               LineKey key, std::uint32_t &frame,
                               bool &staged);

    /** Grab a frame: free list first, then the eviction hand (staging
     *  write-backs for dirty victims). kNoFrame when nothing is
     *  evictable within two sweeps. */
    std::uint32_t allocFrame(SmartCtx &ctx, bool &staged);

    /** Stage an async write-back of @p frame into @p ctx's round. */
    void stageWriteBack(SmartCtx &ctx, std::uint32_t frame);

    /** Stage adjacent-line prefetches after a miss on @p key, recording
     *  the frames used in @p pf so a failed round can unwind them. */
    void prefetchInto(SmartCtx &ctx, std::uint32_t blade,
                      const RemotePtr &line_ptr, LineKey key, bool &staged,
                      std::uint32_t *pf, std::uint32_t &npf,
                      std::uint32_t pf_cap);

    /** Drop the page-table entry (frame becomes a zombie until quiet). */
    void detach(std::uint32_t idx);

    /** Free a detached frame once nothing references it any more. */
    void tryReclaim(std::uint32_t idx);

    /** Invalidate the line holding @p key, if resident (atomic CQE). */
    void invalidateKey(LineKey key);

    /** Our staged fill failed permanently: unwind the Loading frame. */
    void abortFill(std::uint32_t idx, bool straggler_possible);

    void wakeWaiters(std::uint32_t idx);

    /** Awaitable: park the caller until frame @p idx wakes its waiters. */
    auto
    parkOnFrame(std::uint32_t idx)
    {
        struct Awaiter
        {
            FrameCold &c;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                c.waiters.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{cold_[idx]};
    }

    SmartRuntime &rt_;
    CacheConfig cfg_;
    std::vector<std::uint8_t> pool_;
    std::vector<Frame> frames_;
    std::vector<FrameCold> cold_; ///< parallel to frames_
    std::vector<std::uint32_t> freeList_;
    LineTable table_;
    std::uint32_t hand_ = 0;
    std::vector<std::uint64_t> seenIncarnation_;

    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter evictions_;
    sim::Counter writebacks_;
    sim::Counter prefetches_;
    sim::Counter invalidations_;
    sim::Counter exhausted_;
    sim::Counter handoffs_;
};

} // namespace cache
} // namespace smart

#endif // SMART_CACHE_BUFFER_MANAGER_HPP
