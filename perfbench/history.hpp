/**
 * @file
 * Correctness oracles of the benchmark. They are computed from the
 * benchmark's own record of the operations it issued (keys, values,
 * invoke and return times, committed amounts) and from memory read back
 * after the run, never from a copy of the program's earlier output.
 *
 *  - RegisterOracle: per-key regular-register check for the key-value
 *    indexes (RACE, Sherman). A lookup must return the initial value or
 *    a value some write to that key wrote, that write must have started
 *    before the lookup returned, and no write that completed before the
 *    lookup began may have superseded it (started after it returned).
 *    After the run drains, each key must hold a value that no later
 *    started successful write superseded (no lost update).
 *  - checkBank: SmallBank money conservation against the committed
 *    deposits and withdrawals the benchmark issued, plus replica
 *    equality of every account.
 */

#ifndef PERFBENCH_HISTORY_HPP
#define PERFBENCH_HISTORY_HPP

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Time = std::uint64_t;

/**
 * Written values encode their key and a nonce: a 24-bit key tag, a
 * 16-bit writer id (0 is reserved for bulk-loaded values) and a 24-bit
 * per-writer sequence number (from 1).
 */
constexpr std::uint32_t kMaxSeq = (1u << 24) - 1;

inline std::uint64_t
keyTag(std::uint64_t key)
{
    return (key * 0x9e3779b97f4a7c15ull) >> 40;
}

inline std::uint64_t
encodeValue(std::uint64_t key, std::uint32_t writer, std::uint32_t seq)
{
    return keyTag(key) << 40 | std::uint64_t{writer} << 24 | seq;
}

/** One write as the benchmark issued it. */
struct WriteOp
{
    std::uint64_t key = 0;
    Time invoke = 0;
    Time ret = 0;
    bool done = false;
    bool ok = false;
};

/** One lookup and what it returned. */
struct ReadOp
{
    std::uint64_t key = 0;
    Time invoke = 0;
    Time ret = 0;
    bool found = false;
    std::uint64_t value = 0;
};

/**
 * The writes of one writer (one client coroutine), in issue order. Only
 * its owner appends, so coroutines on different simulation shards never
 * share one.
 */
class WriterLog
{
  public:
    /** Record a write of @p key invoked at @p t. @return its sequence. */
    std::uint32_t
    begin(std::uint64_t key, Time t)
    {
        ops_.push_back(WriteOp{key, t, 0, false, false});
        return static_cast<std::uint32_t>(ops_.size());
    }

    /** Complete the write begun last. */
    void
    end(Time t, bool ok)
    {
        ops_.back().ret = t;
        ops_.back().done = true;
        ops_.back().ok = ok;
    }

    /** @return true when another write still fits the value layout. */
    bool hasRoom() const { return ops_.size() < kMaxSeq; }

    std::size_t size() const { return ops_.size(); }
    const WriteOp &at(std::uint32_t seq) const { return ops_[seq - 1]; }

  private:
    friend class RegisterOracle;
    std::vector<WriteOp> ops_;
    std::size_t absorbed_ = 0;
};

/** Per-key regular-register checker over many writers' logs. */
class RegisterOracle
{
  public:
    /**
     * @param initial value a key holds before any write (bulk load)
     * @param writers number of writer logs (ids 1..writers)
     */
    RegisterOracle(std::function<std::uint64_t(std::uint64_t)> initial,
                   std::uint32_t writers)
        : initial_(std::move(initial)), logs_(writers)
    {
    }

    /** @return the log of writer @p id (1-based). */
    WriterLog &writer(std::uint32_t id) { return logs_[id - 1]; }

    /**
     * Index the successful writes completed since the last call. Call
     * only while no operation is running (between simulation phases).
     */
    void
    absorb()
    {
        std::vector<std::uint64_t> touched;
        for (WriterLog &log : logs_) {
            std::size_t i = log.absorbed_;
            for (; i < log.ops_.size() && log.ops_[i].done; ++i) {
                const WriteOp &w = log.ops_[i];
                if (!w.ok)
                    continue;
                KeyWrites &kw = keys_[w.key];
                if (kw.byRet.size() == kw.prefixMaxInvoke.size())
                    touched.push_back(w.key);
                kw.byRet.push_back({w.ret, w.invoke});
                kw.maxInvoke = std::max(kw.maxInvoke, w.invoke);
            }
            log.absorbed_ = i;
        }
        for (std::uint64_t key : touched) {
            // Writes absorbed earlier returned before this call's batch,
            // so sorting the new tail keeps the whole list sorted; merge
            // only when return times tie across the boundary.
            KeyWrites &kw = keys_[key];
            auto mid = kw.byRet.begin() + kw.prefixMaxInvoke.size();
            std::sort(mid, kw.byRet.end());
            std::size_t from = kw.prefixMaxInvoke.size();
            if (from > 0 && *mid < *(mid - 1)) {
                std::inplace_merge(kw.byRet.begin(), mid, kw.byRet.end());
                from = 0;
            }
            kw.prefixMaxInvoke.resize(kw.byRet.size());
            Time m = from > 0 ? kw.prefixMaxInvoke[from - 1] : 0;
            for (std::size_t i = from; i < kw.byRet.size(); ++i) {
                m = std::max(m, kw.byRet[i].second);
                kw.prefixMaxInvoke[i] = m;
            }
        }
    }

    /** Check lookups returned since the last call (after absorb()). */
    void
    checkReads(const std::vector<ReadOp> &reads)
    {
        for (const ReadOp &r : reads)
            checkRead(r);
    }

    void
    checkRead(const ReadOp &r)
    {
        if (!r.found) {
            flag(Kind::Missing, r.key, "lookup [%" PRIu64 ", %" PRIu64
                                       "] found no value",
                 r.invoke, r.ret);
            return;
        }
        const WriteOp *w = nullptr;
        if (!resolve(r.key, r.value, w))
            return;
        if (w != nullptr && w->invoke > r.ret) {
            flag(Kind::Future, r.key,
                 "lookup [%" PRIu64 ", %" PRIu64 "] returned a value "
                 "written at %" PRIu64 ", after it returned",
                 r.invoke, r.ret, w->invoke);
            return;
        }
        // Writes that completed before the lookup began.
        auto it = keys_.find(r.key);
        if (it == keys_.end())
            return;
        const KeyWrites &kw = it->second;
        std::size_t n = static_cast<std::size_t>(
            std::lower_bound(kw.byRet.begin(), kw.byRet.end(),
                             std::pair<Time, Time>{r.invoke, 0}) -
            kw.byRet.begin());
        if (n == 0)
            return;
        if (w == nullptr || (w->done && kw.prefixMaxInvoke[n - 1] > w->ret))
            flag(Kind::Stale, r.key,
                 "lookup [%" PRIu64 ", %" PRIu64 "] returned a value "
                 "superseded by a write completed before it began",
                 r.invoke, r.ret);
    }

    /**
     * Check the value @p key holds after the run drained (every write
     * complete and absorbed).
     */
    void
    checkFinal(std::uint64_t key, bool found, std::uint64_t value)
    {
        if (!found) {
            flag(Kind::MissingKey, key, "final state holds no value");
            return;
        }
        const WriteOp *w = nullptr;
        if (!resolve(key, value, w))
            return;
        auto it = keys_.find(key);
        if (it == keys_.end())
            return;
        if (w == nullptr || it->second.maxInvoke > w->ret)
            flag(Kind::LostUpdate, key,
                 "final value superseded by a later-started write");
    }

    /** Keys that received at least one successful write. */
    template <typename Fn>
    void
    forEachWrittenKey(Fn &&fn) const
    {
        for (const auto &[key, kw] : keys_)
            fn(key);
    }

    /**
     * Kinds of violation: a lookup that found no value, a value no write
     * of the key produced, a lookup that returned a value written after
     * it returned, a lookup that returned a superseded value, a final
     * value superseded by a later-started write, and a key the final
     * state does not hold.
     */
    enum class Kind { Missing, Foreign, Future, Stale, LostUpdate, MissingKey };
    static constexpr int kKinds = 6;

    std::uint64_t count(Kind k) const
    {
        return counts_[static_cast<int>(k)];
    }
    std::uint64_t
    violations() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t c : counts_)
            n += c;
        return n;
    }
    /** The first few violations, for the log. */
    const std::vector<std::string> &notes() const { return notes_; }

  private:
    struct KeyWrites
    {
        /** (return, invoke) of successful writes, sorted by return. */
        std::vector<std::pair<Time, Time>> byRet;
        std::vector<Time> prefixMaxInvoke;
        Time maxInvoke = 0;
    };

    /**
     * Map @p value to the write that produced it (@p w stays null for
     * the initial value). @return false (and flags) for a value no write
     * of @p key produced.
     */
    bool
    resolve(std::uint64_t key, std::uint64_t value, const WriteOp *&w)
    {
        w = nullptr;
        if (value == initial_(key))
            return true;
        std::uint32_t writer = static_cast<std::uint32_t>(value >> 24) &
                               0xffffu;
        std::uint32_t seq = static_cast<std::uint32_t>(value) & kMaxSeq;
        if ((value >> 40) == keyTag(key) && writer >= 1 &&
            writer <= logs_.size() && seq >= 1 &&
            seq <= logs_[writer - 1].size() &&
            logs_[writer - 1].at(seq).key == key) {
            w = &logs_[writer - 1].at(seq);
            return true;
        }
        flag(Kind::Foreign, key, "value %#" PRIx64 " was never written",
             value);
        return false;
    }

    template <typename... Args>
    void
    flag(Kind k, std::uint64_t key, const char *fmt, Args... args)
    {
        ++counts_[static_cast<int>(k)];
        if (notes_.size() >= 8)
            return;
        char buf[256];
        int n = std::snprintf(buf, sizeof buf, "key %" PRIu64 ": ", key);
        std::snprintf(buf + n, sizeof buf - n, fmt, args...);
        notes_.emplace_back(buf);
    }

    std::function<std::uint64_t(std::uint64_t)> initial_;
    std::vector<WriterLog> logs_;
    std::unordered_map<std::uint64_t, KeyWrites> keys_;
    std::uint64_t counts_[kKinds] = {};
    std::vector<std::string> notes_;
};

/** What the SmallBank clients committed, summed over its coroutines. */
struct BankLedger
{
    std::int64_t deposits = 0;
    std::int64_t withdrawals = 0;
    /** Committed WriteChecks: each may add an overdraft penalty of 1. */
    std::int64_t writeChecks = 0;

    BankLedger &
    operator+=(const BankLedger &o)
    {
        deposits += o.deposits;
        withdrawals += o.withdrawals;
        writeChecks += o.writeChecks;
        return *this;
    }
};

/** Both replicas of one account's two balances, read after the run. */
struct AccountImage
{
    std::int64_t savings = 0;
    std::int64_t savingsBackup = 0;
    std::int64_t checking = 0;
    std::int64_t checkingBackup = 0;
};

/**
 * SmallBank oracle. @return one line per violation (empty when the
 * final state is consistent with the committed ledger).
 */
inline std::vector<std::string>
checkBank(std::int64_t initial_total, const BankLedger &ledger,
          const std::vector<AccountImage> &accounts)
{
    std::vector<std::string> out;
    std::int64_t total = 0;
    std::uint64_t mismatched = 0;
    for (std::size_t a = 0; a < accounts.size(); ++a) {
        const AccountImage &img = accounts[a];
        total += img.savings + img.checking;
        if (img.savings != img.savingsBackup ||
            img.checking != img.checkingBackup) {
            if (mismatched++ == 0)
                out.push_back("account " + std::to_string(a) +
                              ": backup replica differs from primary");
        }
    }
    if (mismatched > 1)
        out.push_back(std::to_string(mismatched) +
                      " accounts have mismatched replicas");
    std::int64_t expect =
        initial_total + ledger.deposits - ledger.withdrawals;
    if (total > expect || total < expect - ledger.writeChecks)
        out.push_back("total " + std::to_string(total) + " outside [" +
                      std::to_string(expect - ledger.writeChecks) + ", " +
                      std::to_string(expect) + "]");
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_HISTORY_HPP
