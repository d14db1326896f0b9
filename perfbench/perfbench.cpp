/**
 * @file
 * The simulator's benchmark program. One invocation runs one workload
 * once and prints one JSON object as its last line of output:
 *
 *   perfbench --workload NAME --seed N --seconds N --trace 0|1
 *             [--shards N]
 *
 * The benchmark issues every operation itself, from its own coroutines,
 * through the apps' public client calls (RaceClient, BtreeClient,
 * SmallBank), records what it issued, and checks the results with the
 * oracles of history.hpp. It times only calls into the program's public
 * functions and reads only counters and spans the program already keeps.
 *
 * --trace 0 reports the end-to-end metrics. A run builds the testbed
 * several times (set-up time is the median), warms up for a fixed span
 * of simulated time, then measures rounds of a fixed simulated length
 * until --seconds of host time have passed. Simulated metrics come from
 * the first rounds only, so they are exact per seed; host throughput is
 * the median over all rounds.
 *
 * --trace 1 runs the same workload once with span sampling on and
 * reports the per-layer metrics: counter ratios over the fixed window,
 * per-stage span self time, set-up phases, and the host-cost ladder.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "apps/ford/smallbank.hpp"
#include "apps/race/race.hpp"
#include "apps/sherman/btree.hpp"
#include "harness/testbed.hpp"
#include "history.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/span.hpp"
#include "smart/cache/buffer_manager.hpp"
#include "smart/smart_ctx.hpp"
#include "workload/ycsb.hpp"

namespace {

/** Heap allocations made by the process (operator-new hook below). */
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace smart;
using perfbench::BankLedger;
using perfbench::ReadOp;
using perfbench::RegisterOracle;
using perfbench::WriterLog;
using sim::Task;
using sim::Time;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile of sorted samples (numpy's default). */
double
quantile(const std::vector<std::uint32_t> &sorted, double q)
{
    double pos = q * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (static_cast<double>(sorted[hi]) - sorted[lo]);
}

/** @return @p s[@p k], or 0 for a counter this testbed does not have. */
double
get(const std::map<std::string, double> &s, const std::string &k)
{
    auto it = s.find(k);
    return it == s.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
sysSeconds()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class App { Race, Sherman, Ford };

struct Workload
{
    const char *name;
    App app;
    /** Keys (RACE, Sherman) or accounts (SmallBank) bulk-loaded. */
    std::uint64_t keys;
    /** Lookup share; writes are the rest (RACE, Sherman). */
    double lookup;
    double theta;
    std::uint32_t cacheMb;
    /** Compute blades; memory blades are max(2, servers). */
    std::uint32_t servers;
    std::uint32_t threads;
    /** May run on the sharded engine (shard count from --shards). */
    bool sharded;
    /** Simulated warm-up, past the first credit-probe epoch. */
    Time warmupNs;
    /** Simulated length of one measured round. */
    Time roundNs;
    /** Rounds the simulated metrics cover (always run). */
    std::uint32_t simRounds;
    /** Span sampling stride of the traced run. */
    std::uint32_t spanEvery;
};

const Workload kWorkloads[] = {
    {"race-write-skew", App::Race, 1000000, 0.50, 0.99, 0, 1, 96, false,
     sim::usec(20000), sim::usec(500), 80, 64},
    {"race-read-cache", App::Race, 1000000, 1.00, 0.99, 32, 1, 96, false,
     sim::usec(6000), sim::usec(100), 20, 64},
    {"ford-smallbank", App::Ford, 100000, 0.0, 0.2, 0, 1, 96, false,
     sim::usec(6000), sim::usec(100), 40, 32},
    {"sherman-scaleout", App::Sherman, 1000000, 0.95, 0.99, 0, 2, 94, true,
     sim::usec(6000), sim::usec(500), 40, 128},
};

/** Client coroutines per thread, on every workload. */
constexpr std::uint32_t kCorosPerThread = 8;

/** Cap on measured rounds (bounds arena use on fast hosts). */
constexpr std::uint32_t kMaxRounds = 4000;

/**
 * Lookup share of the traced run's coherence window on a cached RACE
 * workload: the 95/5 mix whose updates invalidate cached lines.
 */
constexpr double kCoherenceLookup = 0.95;

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** The compute-side cache used by ladder rungs of cache-less workloads. */
constexpr std::uint32_t kLadderCacheMb = 32;

harness::TestbedConfig
testbedConfig(const Workload &w, std::uint32_t shards)
{
    harness::TestbedConfig cfg;
    cfg.computeBlades = w.servers;
    cfg.memoryBlades = std::max<std::uint32_t>(2, w.servers);
    cfg.threadsPerBlade = w.threads;
    cfg.bladeBytes = 2ull << 30;
    cfg.smart = presets::full();
    cfg.smart.withBenchTimescale();
    cfg.smart.corosPerThread = kCorosPerThread;
    if (w.cacheMb)
        cfg.smart.withCacheMb(w.cacheMb);
    cfg.shards = w.sharded ? shards : 1;
    return cfg;
}

race::RaceConfig
raceConfig(std::uint64_t keys)
{
    // Directory depth sized for a load factor under 0.55, as the paper's
    // RACE setup does; arenas hold every KV block a long run writes.
    race::RaceConfig rcfg;
    rcfg.groupsPerSegment = 64;
    double slots = static_cast<double>(keys) / 0.55;
    std::uint64_t per_seg = rcfg.groupsPerSegment * race::kSlotsPerGroup;
    std::uint32_t depth = 1;
    while ((1ull << depth) * per_seg < slots)
        ++depth;
    rcfg.initialDepth = depth;
    rcfg.maxDepth = depth + 4;
    rcfg.arenaBytesPerThread = 4ull << 20;
    rcfg.segmentHeapBytes =
        (1ull << depth) * race::segmentBytes(rcfg.groupsPerSegment) +
        (4ull << 20);
    return rcfg;
}

constexpr std::uint64_t kShermanValueMask = 0x5a5aull;

std::uint64_t
raceInitial(std::uint64_t key)
{
    return perfbench::encodeValue(key, 0, 0);
}

std::uint64_t
shermanInitial(std::uint64_t key)
{
    return key ^ kShermanValueMask;
}

// ---------------------------------------------------------------------
// One workload instance: testbed, app, client coroutines
// ---------------------------------------------------------------------

/** Per-coroutine client state; written only by its own coroutine. */
struct Lane
{
    std::uint32_t writer = 0;
    std::uint64_t seed = 0;
    std::uint32_t blade = 0;
    // Counts since the start of the run.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t okOps = 0;
    std::uint64_t writes = 0;
    std::uint64_t rdmaOps = 0;
    std::uint64_t retries = 0;
    std::uint64_t giveups = 0;
    std::uint64_t newKeys = 0;
    std::uint64_t newKeysAcked = 0;
    std::uint64_t aborts = 0;
    std::uint64_t genNs = 0;
    std::uint64_t genCalls = 0;
    BankLedger ledger;
    // Drained at each barrier.
    std::vector<std::uint32_t> lat;
    std::vector<ReadOp> reads;

    void
    finish(bool ok, Time latency)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            return;
        }
        ++okOps;
        lat.push_back(static_cast<std::uint32_t>(
            std::min<Time>(latency, UINT32_MAX)));
    }
};

class Bench
{
  public:
    Bench(const Workload &w, std::uint64_t seed, std::uint32_t shards,
          std::uint32_t span_every)
        : w_(w), seed_(seed)
    {
        harness::TestbedConfig cfg = testbedConfig(w, shards);
        cfg.spanSampleEvery = span_every;
        Clock::time_point t0 = Clock::now();
        tb_ = std::make_unique<harness::Testbed>(cfg);
        testbedS = secondsSince(t0);
        t0 = Clock::now();
        load();
        spawn();
        loadS = secondsSince(t0);
    }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    double testbedS = 0;
    double loadS = 0;
    bool timeGenerators = false;

    harness::Testbed &tb() { return *tb_; }
    const Workload &workload() const { return w_; }
    std::vector<Lane> &lanes() { return lanes_; }
    const RegisterOracle &oracle() const { return *oracle_; }

    void runTo(Time t) { tb_->runUntil(t); }

    /**
     * Gather the rounds' completions from every lane and check the
     * lookups they returned. Call only between simulation phases.
     */
    void
    collect(std::vector<std::uint32_t> *lat_out)
    {
        if (oracle_)
            oracle_->absorb();
        for (Lane &l : lanes_) {
            if (oracle_)
                oracle_->checkReads(l.reads);
            l.reads.clear();
            if (lat_out)
                lat_out->insert(lat_out->end(), l.lat.begin(), l.lat.end());
            l.lat.clear();
        }
    }

    std::uint64_t
    okOps() const
    {
        std::uint64_t n = 0;
        for (const Lane &l : lanes_)
            n += l.okOps;
        return n;
    }

    /** Stop issuing, let in-flight operations finish, flush caches. */
    void
    drain()
    {
        stop_.store(true, std::memory_order_relaxed);
        Time t = tb_->sim().now();
        while (finished_.load(std::memory_order_relaxed) < lanes_.size()) {
            t += sim::usec(50);
            runTo(t);
        }
        collect(nullptr);
    }

    /**
     * Final-state oracle after drain(). @return violation lines (empty
     * when correct).
     */
    std::vector<std::string>
    finalCheck()
    {
        std::vector<std::string> out;
        if (w_.app == App::Ford) {
            BankLedger ledger;
            for (const Lane &l : lanes_)
                ledger += l.ledger;
            std::vector<perfbench::AccountImage> accts(w_.keys);
            for (std::uint64_t a = 0; a < w_.keys; ++a) {
                accts[a].savings =
                    ford::recordBalance(*bank_->savings().hostRecord(a));
                accts[a].savingsBackup = ford::recordBalance(
                    *bank_->savings().hostBackupRecord(a));
                accts[a].checking =
                    ford::recordBalance(*bank_->checking().hostRecord(a));
                accts[a].checkingBackup = ford::recordBalance(
                    *bank_->checking().hostBackupRecord(a));
            }
            std::int64_t init = 2 * static_cast<std::int64_t>(w_.keys) *
                                ford::SmallBank::kInitialBalance;
            out = perfbench::checkBank(init, ledger, accts);
            std::int64_t own = 0;
            for (const perfbench::AccountImage &a : accts)
                own += a.savings + a.checking;
            if (bank_->hostTotal() != own)
                out.push_back("hostTotal() disagrees with the account sum");
            return out;
        }
        auto lookup = [&](std::uint64_t key, std::uint64_t &v) {
            return raceTable_ ? raceTable_->hostLookup(key, v)
                              : btIndex_->hostLookup(key, v);
        };
        std::uint64_t v = 0;
        for (std::uint64_t k = 0; k < w_.keys; ++k) {
            bool found = lookup(k, v);
            oracle_->checkFinal(k, found, v);
        }
        oracle_->forEachWrittenKey([&](std::uint64_t k) {
            if (k >= w_.keys) {
                bool found = lookup(k, v);
                oracle_->checkFinal(k, found, v);
            }
        });
        if (btIndex_) {
            std::uint64_t acked = 0;
            for (const Lane &l : lanes_)
                acked += l.newKeysAcked;
            std::uint64_t count = btIndex_->hostCount();
            if (count != w_.keys + acked)
                out.push_back("hostCount() " + std::to_string(count) +
                              " != loaded + acknowledged inserts " +
                              std::to_string(w_.keys + acked));
        }
        for (const std::string &n : oracle_->notes())
            out.push_back(n);
        if (oracle_->violations() > oracle_->notes().size())
            out.push_back(std::to_string(oracle_->violations()) +
                          " register violations in total");
        return out;
    }

    /** Host-side cost of generating one request (traced runs only). */
    template <typename Fn>
    auto
    generate(Lane &lane, Fn &&fn)
    {
        if (!timeGenerators)
            return fn();
        Clock::time_point t0 = Clock::now();
        auto r = fn();
        lane.genNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        ++lane.genCalls;
        return r;
    }

    bool stopping() const { return stop_.load(std::memory_order_relaxed); }

    std::uint64_t
    specLookups() const
    {
        std::uint64_t n = 0;
        for (const auto &c : btClients_)
            n += c->specHits() + c->specMisses();
        return n;
    }
    std::uint64_t
    specHits() const
    {
        std::uint64_t n = 0;
        for (const auto &c : btClients_)
            n += c->specHits();
        return n;
    }
    std::uint64_t
    dirRefreshes() const
    {
        std::uint64_t n = 0;
        for (const auto &c : raceClients_)
            n += c->dirRefreshes();
        return n;
    }

  private:
    void
    load()
    {
        std::vector<memblade::MemoryBlade *> blades;
        for (std::uint32_t i = 0; i < tb_->numMemBlades(); ++i)
            blades.push_back(&tb_->memBlade(i));
        std::uint32_t writers = w_.servers * w_.threads * kCorosPerThread;
        switch (w_.app) {
          case App::Race:
            raceTable_ =
                std::make_unique<race::RaceTable>(blades, raceConfig(w_.keys));
            for (std::uint64_t k = 0; k < w_.keys; ++k)
                raceTable_->loadInsert(k, raceInitial(k));
            for (std::uint32_t c = 0; c < tb_->numComputeBlades(); ++c)
                raceClients_.push_back(std::make_unique<race::RaceClient>(
                    *raceTable_, tb_->compute(c)));
            oracle_ = std::make_unique<RegisterOracle>(raceInitial, writers);
            break;
          case App::Sherman: {
            sherman::BtreeConfig bcfg;
            bcfg.speculativeLookup = true;
            btIndex_ = std::make_unique<sherman::BtreeIndex>(blades, bcfg);
            btIndex_->loadSequential(w_.keys, kShermanValueMask);
            for (std::uint32_t c = 0; c < tb_->numComputeBlades(); ++c)
                btClients_.push_back(std::make_unique<sherman::BtreeClient>(
                    *btIndex_, tb_->compute(c)));
            oracle_ =
                std::make_unique<RegisterOracle>(shermanInitial, writers);
            break;
          }
          case App::Ford:
            dtx_ = std::make_unique<ford::DtxSystem>(blades, w_.threads);
            bank_ = std::make_unique<ford::SmallBank>(*dtx_, w_.keys);
            break;
        }
        zetan_ = sim::ZipfianGenerator::zeta(w_.keys, w_.theta);
    }

    void
    spawn()
    {
        lanes_.resize(static_cast<std::size_t>(w_.servers) * w_.threads *
                      kCorosPerThread);
        std::size_t i = 0;
        for (std::uint32_t c = 0; c < w_.servers; ++c) {
            SmartRuntime &rt = tb_->compute(c);
            for (std::uint32_t t = 0; t < w_.threads; ++t) {
                for (std::uint32_t k = 0; k < kCorosPerThread; ++k, ++i) {
                    Lane &lane = lanes_[i];
                    lane.writer = static_cast<std::uint32_t>(i + 1);
                    lane.seed = splitmix(seed_ * 0x100000001b3ull + i);
                    lane.blade = c;
                    rt.spawnWorker(t, [this, &lane](SmartCtx &ctx) {
                        return worker(ctx, lane);
                    });
                }
            }
        }
    }

    Task
    worker(SmartCtx &ctx, Lane &lane)
    {
        switch (w_.app) {
          case App::Race:
            co_await raceLoop(ctx, lane);
            break;
          case App::Sherman:
            co_await shermanLoop(ctx, lane);
            break;
          case App::Ford:
            co_await fordLoop(ctx, lane);
            break;
        }
        // Write back anything the cache tier still holds dirty.
        co_await ctx.cacheFlush();
        finished_.fetch_add(1, std::memory_order_relaxed);
    }

    workload::YcsbMix
    mix() const
    {
        workload::YcsbMix m;
        m.lookup = w_.lookup;
        if (w_.app == App::Sherman) {
            // Writes split evenly between overwrites and new keys.
            m.update = (1.0 - w_.lookup) / 2;
            m.insert = (1.0 - w_.lookup) / 2;
        } else {
            m.update = 1.0 - w_.lookup;
        }
        return m;
    }

    Task
    raceLoop(SmartCtx &ctx, Lane &lane)
    {
        race::RaceClient &cl = *raceClients_[lane.blade];
        WriterLog &log = oracle_->writer(lane.writer);
        workload::YcsbGenerator gen(w_.keys, w_.theta, mix(), lane.seed,
                                    zetan_);
        while (!stopping() && log.hasRoom()) {
            workload::YcsbRequest req =
                generate(lane, [&] { return gen.next(); });
            Time s = ctx.sim().now();
            bool ok = false;
            if (req.op == workload::YcsbOp::Lookup) {
                race::OpResult res;
                co_await cl.lookup(ctx, req.key, res);
                lane.rdmaOps += res.rdmaOps;
                lane.reads.push_back(
                    {req.key, s, ctx.sim().now(), res.ok, res.value});
                ok = res.ok;
            } else {
                std::uint32_t seq = log.begin(req.key, s);
                std::uint64_t v =
                    perfbench::encodeValue(req.key, lane.writer, seq);
                // An update that gives up after its CAS rounds is issued
                // again: the operation completes once the app reports
                // success (give-ups are counted per layer).
                for (int attempt = 0; attempt < 64 && !ok; ++attempt) {
                    race::OpResult res;
                    co_await cl.update(ctx, req.key, v, res);
                    lane.rdmaOps += res.rdmaOps;
                    lane.retries += res.retries;
                    ok = res.ok;
                    if (!ok)
                        ++lane.giveups;
                }
                log.end(ctx.sim().now(), ok);
                ++lane.writes;
            }
            lane.finish(ok, ctx.sim().now() - s);
        }
    }

    Task
    shermanLoop(SmartCtx &ctx, Lane &lane)
    {
        sherman::BtreeClient &cl = *btClients_[lane.blade];
        WriterLog &log = oracle_->writer(lane.writer);
        workload::YcsbGenerator gen(w_.keys, w_.theta, mix(), lane.seed,
                                    zetan_);
        while (!stopping() && log.hasRoom()) {
            workload::YcsbRequest req =
                generate(lane, [&] { return gen.next(); });
            Time s = ctx.sim().now();
            sherman::BtOpResult res;
            if (req.op == workload::YcsbOp::Lookup) {
                co_await cl.lookup(ctx, req.key, res);
                lane.reads.push_back(
                    {req.key, s, ctx.sim().now(), res.ok, res.value});
            } else {
                std::uint64_t key = req.key;
                bool fresh = req.op == workload::YcsbOp::Insert;
                if (fresh) // a key above the loaded range, unique per lane
                    key = w_.keys + (std::uint64_t{lane.writer} << 24) +
                          lane.newKeys++;
                std::uint32_t seq = log.begin(key, s);
                co_await cl.insert(
                    ctx, key, perfbench::encodeValue(key, lane.writer, seq),
                    res);
                log.end(ctx.sim().now(), res.ok);
                lane.retries += res.retries;
                lane.newKeysAcked += fresh && res.ok;
                ++lane.writes;
            }
            lane.rdmaOps += res.rdmaOps;
            lane.finish(res.ok, ctx.sim().now() - s);
        }
    }

    Task
    fordLoop(SmartCtx &ctx, Lane &lane)
    {
        // The standard SmallBank mix and amounts (H-Store / FORD).
        sim::Rng rng(lane.seed);
        sim::ZipfianGenerator accounts(w_.keys, w_.theta, lane.seed ^ 0xacc,
                                       zetan_);
        struct Req
        {
            std::uint64_t a, b;
            double p;
        };
        while (!stopping()) {
            Req r = generate(lane, [&] {
                std::uint64_t a = accounts.next();
                std::uint64_t b = accounts.next();
                return Req{a, b, rng.uniformDouble()};
            });
            Time s = ctx.sim().now();
            ford::DtxResult res;
            BankLedger delta;
            co_await ctx.opBegin();
            if (r.p < 0.15) {
                co_await bank_->txBalance(ctx, r.a, res);
            } else if (r.p < 0.30) {
                co_await bank_->txDepositChecking(ctx, r.a, 130, res);
                delta.deposits = 130;
            } else if (r.p < 0.45) {
                co_await bank_->txTransactSaving(ctx, r.a, 20, res);
                delta.deposits = 20;
            } else if (r.p < 0.60) {
                co_await bank_->txAmalgamate(ctx, r.a, r.b, res);
            } else if (r.p < 0.85) {
                co_await bank_->txWriteCheck(ctx, r.a, 50, res);
                delta.withdrawals = 50;
                delta.writeChecks = 1;
            } else {
                co_await bank_->txSendPayment(ctx, r.a, r.b, 5, res);
            }
            ctx.opEnd();
            if (res.committed)
                lane.ledger += delta;
            lane.aborts += res.aborts;
            lane.rdmaOps += res.rdmaOps;
            lane.finish(res.committed, ctx.sim().now() - s);
        }
    }

    const Workload &w_;
    std::uint64_t seed_;
    // Declared first so it is destroyed last: everything below refers
    // to its blades and runtimes.
    std::unique_ptr<harness::Testbed> tb_;
    std::unique_ptr<race::RaceTable> raceTable_;
    std::vector<std::unique_ptr<race::RaceClient>> raceClients_;
    std::unique_ptr<sherman::BtreeIndex> btIndex_;
    std::vector<std::unique_ptr<sherman::BtreeClient>> btClients_;
    std::unique_ptr<ford::DtxSystem> dtx_;
    std::unique_ptr<ford::SmallBank> bank_;
    std::unique_ptr<RegisterOracle> oracle_;
    double zetan_ = 0;
    std::vector<Lane> lanes_;
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> finished_{0};
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> violations;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

void
printOutcome(const Outcome &o)
{
    for (const std::string &v : o.violations)
        std::fprintf(stderr, "oracle: %s\n", v.c_str());
    std::string s = "{\"correct\": ";
    s += o.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(o.attempted);
    s += ", \"failed\": " + std::to_string(o.failed);
    s += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
        const Metric &m = o.metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

void
addLaneTotals(Bench &b, Outcome &o)
{
    for (const Lane &l : b.lanes()) {
        o.attempted += l.attempted;
        o.failed += l.failed;
    }
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------

constexpr int kSetups = 5;

Outcome
runEndToEnd(const Workload &w, std::uint64_t seed, std::uint32_t shards,
            double seconds)
{
    // Set-up is timed several times; the last instance is measured.
    std::vector<double> setups;
    std::unique_ptr<Bench> b;
    for (int i = 0; i < kSetups; ++i) {
        b.reset();
        b = std::make_unique<Bench>(w, seed, shards, 0);
        setups.push_back(b->testbedS + b->loadS);
    }
    double setup_s = median(setups);

    Clock::time_point w0 = Clock::now();
    b->runTo(w.warmupNs);
    double warmup_s = secondsSince(w0);
    b->collect(nullptr);

    std::vector<double> rates;
    std::vector<std::uint32_t> lat;
    std::uint64_t window_ops = 0;
    double rss_mb = 0;
    Clock::time_point m0 = Clock::now();
    Time t = w.warmupNs;
    for (std::uint32_t r = 0; r < kMaxRounds; ++r) {
        if (r >= w.simRounds && secondsSince(m0) >= seconds)
            break;
        std::uint64_t ops0 = b->okOps();
        Clock::time_point c0 = Clock::now();
        t += w.roundNs;
        b->runTo(t);
        double dt = secondsSince(c0);
        std::uint64_t ops = b->okOps() - ops0;
        rates.push_back(static_cast<double>(ops) / dt);
        b->collect(r < w.simRounds ? &lat : nullptr);
        if (r < w.simRounds)
            window_ops += ops;
        // Read at the end of the fixed window: up to here the work, the
        // oracle's records included, is the same for a given seed, while
        // the later rounds grow with the host's speed.
        if (r + 1 == w.simRounds)
            rss_mb = peakRssMb();
    }
    std::fprintf(stderr, "%s: %zu rounds, %" PRIu64 " ops in window\n",
                 w.name, rates.size(), window_ops);

    b->drain();
    Outcome o;
    o.violations = b->finalCheck();
    o.correct = o.violations.empty();
    addLaneTotals(*b, o);

    std::sort(lat.begin(), lat.end());
    double window_us =
        static_cast<double>(w.simRounds * w.roundNs) / 1000.0;
    o.add("setup_s", setup_s, "s");
    o.add("warmup_s", warmup_s, "s");
    o.add("host_ops_per_s", median(rates), "ops/s");
    o.add("sim_mops", static_cast<double>(window_ops) / window_us, "Mops");
    double lat_sum = 0;
    for (std::uint32_t x : lat)
        lat_sum += x;
    o.add("sim_mean_us", ratio(lat_sum, lat.size()) / 1000.0, "us");
    o.add("sim_p99_us", lat.empty() ? 0 : quantile(lat, 0.99) / 1000.0, "us");
    o.add("peak_rss_mb", rss_mb, "MiB");
    return o;
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

/** Counters read from the program's public surfaces, by name. */
using Snapshot = std::map<std::string, double>;

Snapshot
snapshot(Bench &b)
{
    Snapshot s;
    sim::KernelPerf kp = sim::collectKernelPerf();
    s["events"] = static_cast<double>(kp.eventsProcessed);
    s["heap_inserts"] = static_cast<double>(kp.heapInserts);
    for (const sim::KernelPerf::Shard &sh : kp.shards)
        s["events.shard" + std::to_string(sh.shard)] =
            static_cast<double>(sh.eventsProcessed);
    s["allocs"] = static_cast<double>(g_allocs.load());
    s["sys_s"] = sysSeconds();
    harness::Testbed &tb = b.tb();
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        SmartRuntime &rt = tb.compute(c);
        const rnic::PerfCounters &p = rt.rnic().perf();
        s["wrs"] += p.wrsCompleted.value();
        s["dram_bytes"] += p.dramBytes.value();
        s["db_wait_ns"] += p.doorbellWaitNs.value();
        s["db_rings"] += p.doorbellRings.value();
        s["wqe_refetch"] += p.wqeRefetches.value();
        s["mtt_refetch"] += p.mttRefetches.value();
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            SmartThread &th = rt.thread(t);
            s["cas_attempts"] += th.casAttempts.value();
            s["cas_fails"] += th.casFails.value();
            s["wr_errors"] += th.wrErrors.value();
        }
        if (cache::BufferManager *bm = rt.cache()) {
            s["cache_hits"] += bm->hitCount();
            s["cache_misses"] += bm->missCount();
            s["cache_evictions"] += bm->evictionCount();
            s["cache_invalidations"] += bm->invalidationCount();
            s["cache_writebacks"] += bm->writebackCount();
        }
    }
    for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m) {
        const rnic::PerfCounters &p = tb.memBlade(m).rnic().perf();
        s["dram_bytes"] += p.dramBytes.value();
        s["mtt_refetch"] += p.mttRefetches.value();
    }
    for (const Lane &l : b.lanes()) {
        s["ok_ops"] += l.okOps;
        s["writes"] += l.writes;
        s["rdma_ops"] += l.rdmaOps;
        s["retries"] += l.retries;
        s["giveups"] += l.giveups;
        s["aborts"] += l.aborts;
        s["gen_ns"] += l.genNs;
        s["gen_calls"] += l.genCalls;
    }
    s["dir_refreshes"] = b.dirRefreshes();
    s["spec_hits"] = b.specHits();
    s["spec_lookups"] = b.specLookups();
    return s;
}

/** Everything a traced window yields that the 1-shard replay compares. */
struct Window
{
    Snapshot delta;
    double hostS = 0;
    std::uint64_t simDigest = 0;
};

Window
measureWindow(Bench &b)
{
    const Workload &w = b.workload();
    b.runTo(w.warmupNs);
    b.collect(nullptr);
    Snapshot s0 = snapshot(b);
    std::vector<std::uint32_t> lat;
    Window win;
    Time t = w.warmupNs;
    for (std::uint32_t r = 0; r < w.simRounds; ++r) {
        Clock::time_point c0 = Clock::now();
        t += w.roundNs;
        b.runTo(t);
        win.hostS += secondsSince(c0);
        b.collect(&lat);
    }
    Snapshot s1 = snapshot(b);
    for (const auto &[k, v] : s1)
        win.delta[k] = v - (s0.count(k) ? s0.at(k) : 0.0);
    // Digest of the simulated outcome: op count and every latency.
    std::uint64_t h = static_cast<std::uint64_t>(win.delta["ok_ops"]);
    for (std::uint32_t x : lat)
        h = splitmix(h ^ x);
    win.simDigest = h;
    return win;
}

/** Host cost of one call on a rung of the ladder. */
struct Rung
{
    double hostNs = 0;
    double events = 0;
    double allocs = 0;
};

/**
 * Ladder testbed: the workload's blades and SMART configuration with a
 * single thread running a single coroutine, so each rung measures one
 * call's host cost without contention.
 */
harness::TestbedConfig
ladderConfig(const Workload &w, bool cache)
{
    harness::TestbedConfig cfg = testbedConfig(w, 1);
    cfg.computeBlades = 1;
    cfg.threadsPerBlade = 1;
    cfg.smart.corosPerThread = 1;
    if (cache && !cfg.smart.cache.enabled())
        cfg.smart.withCacheMb(kLadderCacheMb);
    if (!cache)
        cfg.smart.withoutCache();
    return cfg;
}

/**
 * Time @p calls calls of @p body on one coroutine of @p tb. @p body is
 * a coroutine factory taking (ctx, call index).
 */
Rung
timeRung(harness::Testbed &tb, std::uint32_t calls,
         std::function<Task(SmartCtx &, std::uint32_t)> body)
{
    bool done = false;
    // Warm the path (a tenth of the calls) outside the timed span.
    std::uint32_t warm = std::max<std::uint32_t>(1, calls / 10);
    std::uint64_t ev0 = 0, al0 = 0;
    Clock::time_point c0;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        for (std::uint32_t i = 0; i < warm; ++i)
            co_await body(ctx, i);
        ev0 = sim::collectKernelPerf().eventsProcessed;
        al0 = g_allocs.load();
        c0 = Clock::now();
        for (std::uint32_t i = 0; i < calls; ++i)
            co_await body(ctx, warm + i);
        done = true;
    });
    Rung r;
    Time t = tb.sim().now();
    while (!done) {
        t += sim::usec(200);
        tb.runUntil(t);
    }
    r.hostNs = secondsSince(c0) * 1e9 / calls;
    r.events = static_cast<double>(sim::collectKernelPerf().eventsProcessed -
                                   ev0) /
               calls;
    r.allocs = static_cast<double>(g_allocs.load() - al0) / calls;
    return r;
}

void
addRung(Outcome &o, const std::string &name, const Rung &r)
{
    o.add("ladder." + name + ".host_ns", r.hostNs, "ns");
    o.add("ladder." + name + ".events", r.events, "count");
    o.add("ladder." + name + ".allocs", r.allocs, "count");
}

std::vector<memblade::MemoryBlade *>
bladesOf(harness::Testbed &tb)
{
    std::vector<memblade::MemoryBlade *> v;
    for (std::uint32_t i = 0; i < tb.numMemBlades(); ++i)
        v.push_back(&tb.memBlade(i));
    return v;
}

void
runLadder(const Workload &w, Outcome &o)
{
    constexpr std::uint32_t kCalls = 4000;
    constexpr std::uint64_t kKeys = 1u << 16;
    {
        // A bare event: one coroutine resumed by a 1 ns timer.
        harness::Testbed tb(ladderConfig(w, false));
        bool done = false;
        constexpr std::uint32_t kEvents = 200000;
        std::uint64_t ev0 = sim::collectKernelPerf().eventsProcessed;
        std::uint64_t al0 = g_allocs.load();
        Clock::time_point c0 = Clock::now();
        sim::Simulator &s = tb.sim();
        s.spawn([](sim::Simulator &s, bool &done) -> Task {
            for (std::uint32_t i = 0; i < kEvents; ++i)
                co_await s.delay(1);
            done = true;
        }(s, done));
        while (!done)
            tb.runUntil(tb.sim().now() + sim::usec(100));
        Rung r;
        r.hostNs = secondsSince(c0) * 1e9 / kEvents;
        r.events = static_cast<double>(
                       sim::collectKernelPerf().eventsProcessed - ev0) /
                   kEvents;
        r.allocs = static_cast<double>(g_allocs.load() - al0) / kEvents;
        addRung(o, "event", r);
    }
    for (int access = 0; access < 2; ++access) {
        // A 64 B read through the raw verbs of SmartCtx, then through
        // access() with the cache off.
        harness::Testbed tb(ladderConfig(w, false));
        std::uint64_t base = tb.memBlade(0).alloc(kCalls * 256ull);
        RemotePtr p0 = tb.compute(0).ptr(0, base);
        auto body = [&](SmartCtx &ctx, std::uint32_t i) -> Task {
            std::uint8_t buf[64];
            RemotePtr p = p0;
            p.offset += (i % kCalls) * 256ull;
            if (access) {
                co_await ctx.access(p, AccessOp::read(MemSpan{buf, 64}));
            } else {
                ctx.read(p, MemSpan{buf, 64});
                co_await ctx.postSend();
                co_await ctx.sync();
            }
        };
        addRung(o, access ? "access" : "verb", timeRung(tb, kCalls, body));
    }
    {
        harness::Testbed tb(ladderConfig(w, true));
        std::uint64_t base = tb.memBlade(0).alloc(4096);
        RemotePtr p0 = tb.compute(0).ptr(0, base);
        addRung(o, "cache_hit",
                timeRung(tb, kCalls, [&](SmartCtx &ctx, std::uint32_t) -> Task {
                    std::uint8_t buf[64];
                    co_await ctx.access(p0, AccessOp::read(MemSpan{buf, 64}));
                }));
    }
    {
        // Distinct lines, fewer than the pool holds: every call misses
        // and no call evicts.
        harness::Testbed tb(ladderConfig(w, true));
        std::uint32_t n = kCalls + kCalls / 10 + 1;
        std::uint64_t base = tb.memBlade(0).alloc(n * 256ull);
        RemotePtr p0 = tb.compute(0).ptr(0, base);
        addRung(o, "cache_miss",
                timeRung(tb, kCalls, [&](SmartCtx &ctx, std::uint32_t i) -> Task {
                    std::uint8_t buf[64];
                    RemotePtr p = p0;
                    p.offset += i * 256ull;
                    co_await ctx.access(p, AccessOp::read(MemSpan{buf, 64}));
                }));
    }
    for (int update = 0; update < 2; ++update) {
        harness::Testbed tb(ladderConfig(w, w.cacheMb != 0));
        race::RaceTable table(bladesOf(tb), raceConfig(kKeys));
        for (std::uint64_t k = 0; k < kKeys; ++k)
            table.loadInsert(k, raceInitial(k));
        race::RaceClient cl(table, tb.compute(0));
        auto body = [&](SmartCtx &ctx, std::uint32_t i) -> Task {
            race::OpResult res;
            if (update)
                co_await cl.update(ctx, splitmix(i) % kKeys, i, res);
            else
                co_await cl.lookup(ctx, splitmix(i) % kKeys, res);
        };
        addRung(o, update ? "race_update" : "race_lookup",
                timeRung(tb, kCalls, body));
    }
    for (int insert = 0; insert < 2; ++insert) {
        harness::Testbed tb(ladderConfig(w, w.cacheMb != 0));
        sherman::BtreeConfig bcfg;
        bcfg.speculativeLookup = true;
        sherman::BtreeIndex index(bladesOf(tb), bcfg);
        index.loadSequential(kKeys, kShermanValueMask);
        sherman::BtreeClient cl(index, tb.compute(0));
        auto body = [&](SmartCtx &ctx, std::uint32_t i) -> Task {
            sherman::BtOpResult res;
            if (insert)
                co_await cl.insert(ctx, kKeys + i, i, res);
            else
                co_await cl.lookup(ctx, splitmix(i) % kKeys, res);
        };
        addRung(o, insert ? "sherman_insert" : "sherman_lookup",
                timeRung(tb, kCalls, body));
    }
    {
        harness::Testbed tb(ladderConfig(w, w.cacheMb != 0));
        ford::DtxSystem sys(bladesOf(tb), 1);
        ford::SmallBank bank(sys, kKeys);
        sim::Rng rng(7);
        sim::ZipfianGenerator accounts(kKeys, 0.0, 11);
        addRung(o, "ford_txn",
                timeRung(tb, kCalls, [&](SmartCtx &ctx, std::uint32_t) -> Task {
                    ford::DtxResult res;
                    co_await ctx.opBegin();
                    co_await bank.runOne(ctx, rng, accounts, res);
                    ctx.opEnd();
                }));
    }
}

/**
 * Per-stage span self time per sampled op, from the program's spans.
 * @return the same figures by stage name.
 */
std::map<std::string, double>
addSpans(Bench &b, Outcome &o)
{
    sim::SpanTracer *sp = b.tb().mergedSpanTracer();
    double ops = 0;
    for (std::size_t i = 1; i <= sp->size(); ++i) {
        const sim::SpanRecord &r = sp->at(static_cast<sim::SpanId>(i));
        ops += r.stage == sim::Stage::Op && !r.open;
    }
    std::map<std::string, double> total;
    sim::Json attr = sp->attribution();
    for (const auto &[k, v] : attr.asObject()) {
        if (k != "stages")
            continue;
        for (const sim::Json &e : v.asArray()) {
            std::string stage;
            double ns = 0;
            for (const auto &[f, x] : e.asObject()) {
                if (f == "stage")
                    stage = x.asString();
                else if (f == "total_ns")
                    ns = x.asDouble();
            }
            total[stage] += ns;
        }
    }
    std::map<std::string, double> per_op;
    for (std::size_t s = 0; s < sim::kNumStages; ++s) {
        std::string name = sim::stageName(static_cast<sim::Stage>(s));
        if (name == "op")
            continue;
        per_op[name] = ratio(total[name], ops);
        o.add("span." + name + ".self_ns_per_op", per_op[name], "ns");
    }
    if (sp->dropped() > 0)
        std::fprintf(stderr, "spans: %" PRIu64 " records dropped; the "
                     "attribution covers the sampled ops before the cap\n",
                     sp->dropped());
    return per_op;
}

/**
 * The coherence window of a cached RACE workload: the same table,
 * threads and cache with the 95/5 lookup/update mix, so updates
 * invalidate cached lines. The cache tier loses RACE coherence under
 * that mix (lookups of loaded keys find nothing or a superseded value,
 * and updates are lost) on a number of operations that depends on the
 * seed. This window counts those three kinds per run, exact per seed;
 * any other kind of violation still fails the run.
 * @return the counter deltas of its measured window.
 */
Snapshot
addCoherence(const Workload &w, std::uint64_t seed, Outcome &o)
{
    using Kind = RegisterOracle::Kind;
    Workload mixed = w;
    mixed.lookup = kCoherenceLookup;
    Bench b(mixed, seed, 1, 0);
    Window win = measureWindow(b);
    b.drain();
    b.finalCheck();
    const RegisterOracle &orc = b.oracle();
    if (std::uint64_t n = orc.count(Kind::Foreign) + orc.count(Kind::Future))
        o.violations.push_back("coherence window: " + std::to_string(n) +
                               " foreign or future values");
    o.add("coherence.not_found_lookups",
          static_cast<double>(orc.count(Kind::Missing)), "count");
    o.add("coherence.stale_lookups",
          static_cast<double>(orc.count(Kind::Stale)), "count");
    o.add("coherence.lost_updates",
          static_cast<double>(orc.count(Kind::LostUpdate) +
                              orc.count(Kind::MissingKey)),
          "count");
    return win.delta;
}

Outcome
runTraced(const Workload &w, std::uint64_t seed, std::uint32_t shards)
{
    Outcome o;
    Bench b(w, seed, shards, w.spanEvery);
    b.timeGenerators = true;
    Clock::time_point t0 = Clock::now();
    Window win = measureWindow(b);
    double warm_and_window = secondsSince(t0);
    b.drain();
    o.violations = b.finalCheck();
    addLaneTotals(b, o);

    const Snapshot &d = win.delta;
    double ops = get(d, "ok_ops");
    std::fprintf(stderr, "%s: %u shards, %.0f ops in the traced window\n",
                 w.name, b.tb().shards(), ops);
    o.add("setup.testbed_s", b.testbedS, "s");
    o.add("setup.load_s", b.loadS, "s");
    o.add("setup.warmup_s", warm_and_window - win.hostS, "s");
    // Host rate of the traced window; against the untraced run's
    // host_ops_per_s it gives the tracing overhead.
    o.add("trace.host_ops_per_s", ratio(get(d, "ok_ops"), win.hostS), "ops/s");

    o.add("sim.events_per_op", ratio(get(d, "events"), ops), "count");
    o.add("sim.host_ns_per_event", ratio(win.hostS * 1e9, get(d, "events")),
          "ns");
    o.add("sim.heap_inserts_per_op", ratio(get(d, "heap_inserts"), ops),
          "count");
    o.add("sim.peak_queue_depth",
          static_cast<double>(sim::collectKernelPerf().peakQueueDepth),
          "count");
    o.add("sim.allocs_per_op", ratio(get(d, "allocs"), ops), "count");

    double max_ev = 0, sum_ev = 0, n_sh = 0;
    for (const auto &[k, v] : d) {
        if (k.rfind("events.shard", 0) != 0)
            continue;
        max_ev = std::max(max_ev, v);
        sum_ev += v;
        ++n_sh;
    }
    o.add("wire.sys_s", get(d, "sys_s"), "s");
    o.add("wire.shard_events_max_over_mean",
          ratio(max_ev, n_sh > 0 ? sum_ev / n_sh : 0), "ratio");
    double speedup = 1.0;
    if (w.sharded && b.tb().shards() > 1) {
        // Replay the same seed on one shard: the simulated outcome must
        // be identical, and its host time is the speedup's base.
        Bench one(w, seed, 1, w.spanEvery);
        Window w1 = measureWindow(one);
        one.drain();
        std::vector<std::string> v1 = one.finalCheck();
        if (w1.simDigest != win.simDigest)
            o.violations.push_back(
                "simulated outcome differs between 1 shard and " +
                std::to_string(b.tb().shards()) + " shards");
        if (v1.size() != o.violations.size())
            o.violations.push_back(
                "oracle results differ between 1 shard and N shards");
        speedup = ratio(w1.hostS, win.hostS);
    }
    o.add("wire.speedup_vs_1shard", speedup, "ratio");

    double wrs = get(d, "wrs");
    o.add("rnic.wrs_per_op", ratio(wrs, ops), "count");
    o.add("rnic.wqe_refetches_per_kwr", ratio(get(d, "wqe_refetch") * 1000, wrs),
          "count");
    o.add("rnic.mtt_refetches_per_kwr", ratio(get(d, "mtt_refetch") * 1000, wrs),
          "count");
    o.add("rnic.doorbell_wait_ns_per_ring",
          ratio(get(d, "db_wait_ns"), get(d, "db_rings")), "ns");
    o.add("rnic.dram_bytes_per_op", ratio(get(d, "dram_bytes"), ops), "B");

    o.add("verbs.wrs_per_doorbell", ratio(wrs, get(d, "db_rings")), "count");
    o.add("verbs.error_cqes", get(d, "wr_errors"), "count");

    o.add("smart.cas_fail_ratio",
          ratio(get(d, "cas_fails"), get(d, "cas_attempts")), "ratio");
    o.add("smart.retries_per_op", ratio(get(d, "cas_fails"), ops), "count");
    // Controller state at the end of the window, averaged over threads.
    harness::Testbed &tb = b.tb();
    double credit = 0, coro = 0, tmax = 0, n = 0;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        for (std::uint32_t t = 0; t < tb.compute(c).numThreads(); ++t) {
            SmartThread &th = tb.compute(c).thread(t);
            credit += th.cmax();
            coro += th.conflictCtrl().cmax();
            tmax += static_cast<double>(th.conflictCtrl().tmaxCycles());
            ++n;
        }
    }
    o.add("smart.ctrl.credit_cmax", credit / n, "count");
    o.add("smart.ctrl.coro_cmax", coro / n, "count");
    o.add("smart.ctrl.tmax_cycles", tmax / n, "cycles");

    double lookups = get(d, "cache_hits") + get(d, "cache_misses");
    double kops = ops / 1000.0;
    o.add("cache.hit_ratio", ratio(get(d, "cache_hits"), lookups), "ratio");
    o.add("cache.evictions_per_kop", ratio(get(d, "cache_evictions"), kops),
          "count");
    // On the cached workload only the coherence window issues updates,
    // which invalidate and write back lines.
    Snapshot cw = d;
    if (w.app == App::Race && w.cacheMb != 0) {
        cw = addCoherence(w, seed, o);
    } else {
        o.add("coherence.not_found_lookups", 0, "count");
        o.add("coherence.stale_lookups", 0, "count");
        o.add("coherence.lost_updates", 0, "count");
    }
    double ckops = get(cw, "ok_ops") / 1000.0;
    o.add("cache.invalidations_per_kop",
          ratio(get(cw, "cache_invalidations"), ckops), "count");
    o.add("cache.writebacks_per_kop",
          ratio(get(cw, "cache_writebacks"), ckops), "count");

    bool race = w.app == App::Race;
    bool sherman = w.app == App::Sherman;
    bool ford = w.app == App::Ford;
    o.add("race.rdma_ops_per_op", race ? ratio(get(d, "rdma_ops"), ops) : 0,
          "count");
    o.add("race.retries_per_update",
          race ? ratio(get(d, "retries"), get(d, "writes")) : 0, "count");
    o.add("race.update_giveups", race ? get(d, "giveups") : 0, "count");
    o.add("race.dir_refreshes", get(d, "dir_refreshes"), "count");
    o.add("sherman.spec_hit_ratio",
          ratio(get(d, "spec_hits"), get(d, "spec_lookups")), "ratio");
    o.add("sherman.rdma_ops_per_op",
          sherman ? ratio(get(d, "rdma_ops"), ops) : 0, "count");
    o.add("sherman.lock_retries_per_write",
          sherman ? ratio(get(d, "retries"), get(d, "writes")) : 0, "count");
    o.add("ford.aborts_per_commit", ford ? ratio(get(d, "aborts"), ops) : 0,
          "count");
    o.add("ford.rdma_ops_per_txn", ford ? ratio(get(d, "rdma_ops"), ops) : 0,
          "count");
    o.add("workload.host_ns_per_request",
          ratio(get(d, "gen_ns"), get(d, "gen_calls")), "ns");

    std::map<std::string, double> span = addSpans(b, o);
    o.add("smart.backoff_ns_per_op", span["backoff_sleep"], "ns");
    o.add("smart.credit_wait_ns_per_op", span["credit_wait"], "ns");
    o.add("smart.gate_wait_ns_per_op", span["gate_wait"], "ns");
    o.add("cache.service_ns_per_op", span["cache"], "ns");

    runLadder(w, o);
    o.correct = o.violations.empty();
    return o;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N [--seconds N] "
                 "[--trace 0|1] [--shards N]\n"
                 "workloads:",
                 why);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Strict decimal parse: digits only, no sign, within [lo, hi]. */
std::uint64_t
parseUint(const char *flag, const char *s, std::uint64_t lo, std::uint64_t hi)
{
    if (s == nullptr || *s == '\0')
        usage((std::string(flag) + " needs a value").c_str());
    std::uint64_t v = 0;
    for (const char *p = s; *p; ++p) {
        if (*p < '0' || *p > '9')
            usage((std::string(flag) + ": not a number: " + s).c_str());
        unsigned d = static_cast<unsigned>(*p - '0');
        if (v > (UINT64_MAX - d) / 10)
            usage((std::string(flag) + ": out of range: " + s).c_str());
        v = v * 10 + d;
    }
    if (v < lo || v > hi)
        usage((std::string(flag) + ": out of range: " + s).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *w = nullptr;
    std::uint64_t seed = 0;
    bool have_seed = false;
    std::uint64_t seconds = 10;
    std::uint64_t trace = 0;
    std::uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
    // Without --shards the untraced run uses one shard and the traced run
    // two. On a shared 4-core host two shards ran sherman-scaleout at
    // 83k-176k ops/s over ten seeds, one shard within 5% of 91k: the
    // end-to-end host figures need one, the sharded engine's own metrics
    // and the one-shard replay check need two.
    std::uint32_t shards = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--workload") {
            if (val == nullptr || (w = findWorkload(val)) == nullptr)
                usage("unknown workload");
        } else if (a == "--seed") {
            seed = parseUint("--seed", val, 0, UINT64_MAX);
            have_seed = true;
        } else if (a == "--seconds") {
            seconds = parseUint("--seconds", val, 1, 3600);
        } else if (a == "--trace") {
            trace = parseUint("--trace", val, 0, 1);
        } else if (a == "--shards") {
            shards = static_cast<std::uint32_t>(
                parseUint("--shards", val, 1, std::min<std::uint32_t>(cores, 64)));
        } else {
            usage(("unknown argument: " + a).c_str());
        }
        ++i;
    }
    if (w == nullptr)
        usage("--workload is required");
    if (!have_seed)
        usage("--seed is required");

    Outcome o = trace ? runTraced(*w, seed,
                                  shards ? shards : std::min(cores, 2u))
                      : runEndToEnd(*w, seed, shards ? shards : 1,
                                    static_cast<double>(seconds));
    printOutcome(o);
    return 0;
}
