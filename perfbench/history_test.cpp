/**
 * @file
 * Tests of the benchmark's correctness oracles on hand-made histories:
 * each kind of fault must be flagged and a clean history must pass.
 * Exits 0 when every case behaves, 1 otherwise.
 */

#include <cstdio>

#include "history.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool cond, const char *what)
{
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond)
        ++failures;
}

std::uint64_t
initialOf(std::uint64_t key)
{
    return encodeValue(key, 0, 0);
}

/** Writer 1 writes key 7 over [10, 20]; writer 2 over [30, 40]. */
RegisterOracle
twoWrites()
{
    RegisterOracle o(initialOf, 2);
    o.writer(1).begin(7, 10);
    o.writer(1).end(20, true);
    o.writer(2).begin(7, 30);
    o.writer(2).end(40, true);
    o.absorb();
    return o;
}

void
cleanHistoryPasses()
{
    RegisterOracle o = twoWrites();
    // Before any write, during the first, between, during the second.
    o.checkRead({7, 0, 5, true, initialOf(7)});
    o.checkRead({7, 15, 25, true, initialOf(7)});
    o.checkRead({7, 15, 25, true, encodeValue(7, 1, 1)});
    o.checkRead({7, 25, 28, true, encodeValue(7, 1, 1)});
    o.checkRead({7, 35, 45, true, encodeValue(7, 1, 1)});
    o.checkRead({7, 35, 45, true, encodeValue(7, 2, 1)});
    o.checkRead({7, 50, 55, true, encodeValue(7, 2, 1)});
    o.checkFinal(7, true, encodeValue(7, 2, 1));
    o.checkFinal(8, true, initialOf(8));
    expect(o.violations() == 0, "clean register history passes");
}

void
staleReadFlagged()
{
    RegisterOracle o = twoWrites();
    o.checkRead({7, 45, 50, true, encodeValue(7, 1, 1)});
    expect(o.count(RegisterOracle::Kind::Stale) == 1,
           "read of a superseded value is flagged");
    RegisterOracle p = twoWrites();
    p.checkRead({7, 25, 28, true, initialOf(7)});
    expect(p.count(RegisterOracle::Kind::Stale) == 1,
           "read of the initial value after a completed write is flagged");
}

void
futureReadFlagged()
{
    RegisterOracle o = twoWrites();
    o.checkRead({7, 21, 25, true, encodeValue(7, 2, 1)});
    expect(o.count(RegisterOracle::Kind::Future) == 1,
           "read of a value written after the read returned is flagged");
}

void
lostUpdateFlagged()
{
    RegisterOracle o = twoWrites();
    o.checkFinal(7, true, encodeValue(7, 1, 1));
    expect(o.count(RegisterOracle::Kind::LostUpdate) == 1,
           "final value that lost a later update is flagged");
    RegisterOracle p = twoWrites();
    p.checkFinal(7, true, initialOf(7));
    expect(p.count(RegisterOracle::Kind::LostUpdate) == 1,
           "final initial value after acknowledged writes is flagged");
}

void
concurrentWritesEitherWins()
{
    RegisterOracle o(initialOf, 2);
    o.writer(1).begin(3, 10);
    o.writer(2).begin(3, 12);
    o.writer(1).end(30, true);
    o.writer(2).end(25, true);
    o.absorb();
    o.checkFinal(3, true, encodeValue(3, 1, 1));
    o.checkFinal(3, true, encodeValue(3, 2, 1));
    expect(o.violations() == 0, "either of two overlapping writes may win");
}

void
missingInsertFlagged()
{
    RegisterOracle o(initialOf, 1);
    o.writer(1).begin(1000, 5);
    o.writer(1).end(9, true);
    o.absorb();
    o.checkFinal(1000, false, 0);
    expect(o.count(RegisterOracle::Kind::MissingKey) == 1,
           "acknowledged insert missing from the final state is flagged");
    o.checkRead({1000, 10, 12, false, 0});
    expect(o.count(RegisterOracle::Kind::Missing) == 1,
           "lookup that finds no value is flagged");
}

void
foreignValueFlagged()
{
    RegisterOracle o = twoWrites();
    o.checkRead({7, 50, 55, true, encodeValue(8, 1, 1)});
    o.checkRead({7, 50, 55, true, encodeValue(7, 1, 9)});
    expect(o.count(RegisterOracle::Kind::Foreign) == 2,
           "value never written to the key is flagged");
}

void
inFlightWriteVisible()
{
    RegisterOracle o(initialOf, 1);
    o.writer(1).begin(4, 10);
    o.absorb();
    o.checkRead({4, 12, 14, true, encodeValue(4, 1, 1)});
    o.checkRead({4, 12, 14, true, initialOf(4)});
    expect(o.violations() == 0,
           "a write still in flight may or may not be visible");
}

void
bankChecks()
{
    std::vector<AccountImage> accts(2, AccountImage{100, 100, 100, 100});
    const std::int64_t init = 400;
    BankLedger clean;
    expect(checkBank(init, clean, accts).empty(), "clean bank passes");

    BankLedger dep;
    dep.deposits = 30;
    std::vector<AccountImage> after = accts;
    after[1].checking = after[1].checkingBackup = 130;
    expect(checkBank(init, dep, after).empty(),
           "committed deposit is accounted for");

    BankLedger wc;
    wc.withdrawals = 50;
    wc.writeChecks = 1;
    after = accts;
    after[0].checking = after[0].checkingBackup = 49; // 50 + penalty 1
    expect(checkBank(init, wc, after).empty(),
           "WriteCheck overdraft penalty of 1 is allowed");

    after = accts;
    after[0].savings = after[0].savingsBackup = 101;
    expect(checkBank(init, clean, after).size() == 1,
           "leaked dollar is flagged");

    after = accts;
    after[1].savingsBackup = 99;
    expect(checkBank(init, clean, after).size() == 1,
           "replica mismatch is flagged");
}

} // namespace

int
main()
{
    cleanHistoryPasses();
    staleReadFlagged();
    futureReadFlagged();
    lostUpdateFlagged();
    concurrentWritesEitherWins();
    missingInsertFlagged();
    foreignValueFlagged();
    inFlightWriteVisible();
    bankChecks();
    std::printf("%s\n", failures == 0 ? "all oracle tests passed"
                                      : "oracle tests FAILED");
    return failures == 0 ? 0 : 1;
}
