/**
 * @file
 * Differential test of the machine's per-block sharer index: a 64-core
 * TMMachine in every speculative mode runs a seeded random mix of
 * begin / load / store / commit step / abort over a small hot block
 * pool, and after every operation each pool block's reader and writer
 * masks must equal a brute-force scan of the per-core footprints. A
 * negative control shows the scan catches an index view that lost one
 * update.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "htm/machine.hpp"
#include "sim/random.hpp"

using namespace retcon;
using namespace retcon::htm;

namespace {

constexpr unsigned kCores = 64;
constexpr unsigned kPoolBlocks = 24;
constexpr Addr kPoolBase = 0x40000;
constexpr int kOps = 5000;

using Lookup = std::function<SharerIndex::Sharers(Addr)>;

Addr
poolBlock(unsigned i)
{
    return kPoolBase + Addr(i) * kBlockBytes;
}

struct Rig {
    EventQueue eq;
    mem::MemorySystem ms{kCores};
    TMMachine tm;

    explicit Rig(TMMode mode) : tm(eq, ms, makeCfg(mode))
    {
        tm.setRemoteAbortHandler([](CoreId, AbortCause) {});
    }

    static TMConfig
    makeCfg(TMMode mode)
    {
        TMConfig cfg;
        cfg.mode = mode;
        return cfg;
    }

    /** One random operation on a random core. */
    void
    step(Xoshiro &rng)
    {
        CoreId c = static_cast<CoreId>(rng.below(kCores));
        auto block = static_cast<unsigned>(rng.below(kPoolBlocks));
        Addr addr =
            poolBlock(block) + rng.below(kWordsPerBlock) * kWordBytes;
        switch (tm.status(c)) {
          case TxStatus::Idle:
            tm.txBegin(c, false);
            return;
          case TxStatus::Committing:
            tm.commitStep(c, true);
            return;
          default:
            break;
        }
        std::uint64_t pick = rng.below(100);
        if (pick < 45)
            tm.txLoad(c, addr);
        else if (pick < 85)
            tm.txStore(c, addr, rng.next(), std::nullopt);
        else if (pick < 95)
            tm.commitStep(c, false);
        else
            tm.abortSelf(c, AbortCause::Explicit);
    }

    /**
     * First difference between @p lookup and the footprints, or ""
     * when every pool block's masks match and the index holds no other
     * block.
     */
    std::string
    diff(const Lookup &lookup)
    {
        std::vector<SharerIndex::Sharers> want(kPoolBlocks);
        auto slot = [](Addr b) {
            return static_cast<unsigned>((b - kPoolBase) / kBlockBytes);
        };
        for (CoreId c = 0; c < kCores; ++c) {
            CoreTxState &st = tm.coreState(c);
            const Footprint &fp = st.footprint;
            if (!st.active() &&
                !(fp.readBlocks().empty() && fp.writeBlocks().empty()))
                return "idle core " + std::to_string(c) +
                       " kept a footprint";
            for (Addr b : fp.readBlocks())
                want[slot(b)].readers |= std::uint64_t(1) << c;
            for (Addr b : fp.writeBlocks())
                want[slot(b)].writers |= std::uint64_t(1) << c;
        }
        std::size_t shared = 0;
        for (unsigned i = 0; i < kPoolBlocks; ++i) {
            SharerIndex::Sharers got = lookup(poolBlock(i));
            if (got.readers != want[i].readers ||
                got.writers != want[i].writers)
                return "block " + std::to_string(i) + " readers " +
                       std::to_string(got.readers) + " want " +
                       std::to_string(want[i].readers) + ", writers " +
                       std::to_string(got.writers) + " want " +
                       std::to_string(want[i].writers);
            shared += (want[i].readers | want[i].writers) != 0;
        }
        if (tm.sharers().size() != shared)
            return "index holds " + std::to_string(tm.sharers().size()) +
                   " blocks, footprints " + std::to_string(shared);
        return "";
    }

    Lookup
    live() const
    {
        return [this](Addr b) { return tm.sharers().lookup(b); };
    }
};

struct ModeCase {
    TMMode mode;
    std::uint64_t seed;
    const char *name;
};

class SharerIndexDiff : public ::testing::TestWithParam<ModeCase>
{};

} // namespace

TEST_P(SharerIndexDiff, MatchesFootprintsAfterEveryOperation)
{
    Rig rig(GetParam().mode);
    Xoshiro rng(GetParam().seed);
    std::uint64_t peak = 0;
    for (int op = 0; op < kOps; ++op) {
        rig.step(rng);
        std::string d = rig.diff(rig.live());
        ASSERT_EQ(d, "") << tmModeName(GetParam().mode) << " op " << op;
        peak = std::max<std::uint64_t>(peak, rig.tm.sharers().size());
    }
    // Not vacuous: blocks were shared, and conflicts were resolved.
    EXPECT_GT(peak, kPoolBlocks / 2);
    const MachineStats &s = rig.tm.stats();
    EXPECT_GT(s.commits, 0u);
    EXPECT_GT(s.aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpeculativeModes, SharerIndexDiff,
    ::testing::Values(ModeCase{TMMode::Eager, 11, "Eager"},
                      ModeCase{TMMode::Lazy, 12, "Lazy"},
                      ModeCase{TMMode::LazyVB, 13, "LazyVB"},
                      ModeCase{TMMode::Retcon, 14, "Retcon"},
                      ModeCase{TMMode::DATM, 15, "DATM"}),
    [](const ::testing::TestParamInfo<ModeCase> &info) {
        return std::string(info.param.name);
    });

namespace {

/**
 * Random footprints over @p universe random block addresses, cleared
 * and refilled for @p rounds rounds; after each round every block's
 * masks must match the footprints' lists. Random addresses collide in
 * the table the way real address streams can (sequential block numbers
 * barely collide under Fibonacci hashing), so probe runs form and
 * backward-shift deletion has work to do.
 */
void
churn(unsigned universe, int rounds, int adds_per_round)
{
    constexpr unsigned kFootprints = 64;
    Xoshiro rng(7);
    std::unordered_map<Addr, unsigned> slot;
    std::vector<Addr> blocks;
    while (blocks.size() < universe) {
        Addr b = blockAddr(rng.next() >> 4);
        if (slot.emplace(b, blocks.size()).second)
            blocks.push_back(b);
    }
    SharerIndex index;
    std::vector<std::unique_ptr<Footprint>> fps;
    for (CoreId c = 0; c < kFootprints; ++c)
        fps.push_back(std::make_unique<Footprint>(index, c));
    for (int round = 0; round < rounds; ++round) {
        for (int op = 0; op < adds_per_round; ++op) {
            Footprint &fp = *fps[rng.below(kFootprints)];
            Addr b = blocks[rng.below(universe)];
            if (rng.below(2))
                fp.addRead(b);
            else
                fp.addWrite(b);
        }
        for (int k = 0; k < 24; ++k)
            fps[rng.below(kFootprints)]->clear();
        std::vector<SharerIndex::Sharers> want(universe);
        for (CoreId c = 0; c < kFootprints; ++c) {
            for (Addr b : fps[c]->readBlocks())
                want[slot[b]].readers |= std::uint64_t(1) << c;
            for (Addr b : fps[c]->writeBlocks())
                want[slot[b]].writers |= std::uint64_t(1) << c;
        }
        std::size_t shared = 0;
        for (unsigned i = 0; i < universe; ++i) {
            SharerIndex::Sharers got = index.lookup(blocks[i]);
            ASSERT_EQ(got.readers, want[i].readers)
                << "round " << round << " block " << i;
            ASSERT_EQ(got.writers, want[i].writers)
                << "round " << round << " block " << i;
            shared += (want[i].readers | want[i].writers) != 0;
        }
        ASSERT_EQ(index.size(), shared) << "round " << round;
    }
}

} // namespace

TEST(SharerIndex, ChurnThroughGrowthMatchesFootprints)
{
    // Enough blocks to grow the table several times.
    churn(4096, 40, 2000);
}

TEST(SharerIndex, ChurnAtHighLoadMatchesFootprints)
{
    // Few blocks, most in flight: the table stays near its maximum
    // load, so deletions keep meeting probe runs, including runs that
    // wrap past the end of the table.
    churn(240, 1000, 300);
}

TEST(SharerIndexDiffControl, IndexMissingOneUpdateIsCaught)
{
    // Negative control: an index view that never saw one core's read
    // of one block (as if one update site were skipped) must fail the
    // scan on the first operation after that read.
    Rig rig(TMMode::Eager);
    Xoshiro rng(11);
    for (int op = 0; op < kOps; ++op) {
        rig.step(rng);
        for (unsigned i = 0; i < kPoolBlocks; ++i) {
            std::uint64_t readers =
                rig.tm.sharers().lookup(poolBlock(i)).readers;
            if (!readers)
                continue;
            const Addr victim = poolBlock(i);
            const std::uint64_t lost = readers & -readers;
            Lookup skipped = [&](Addr b) {
                SharerIndex::Sharers s = rig.tm.sharers().lookup(b);
                if (b == victim)
                    s.readers &= ~lost;
                return s;
            };
            EXPECT_EQ(rig.diff(rig.live()), "");
            EXPECT_NE(rig.diff(skipped), "");
            return;
        }
    }
    FAIL() << "no block was ever read";
}
