/**
 * @file
 * Golden-run fingerprints: pins the exact simulated outcome of a small
 * grid so host-side rewrites of the event queue and the conflict
 * detector stay bit-identical. The grid is every Figure 9 workload at
 * a small scale under eager, lazy-vb and RetCon at 32 threads and
 * under DATM at 8 threads (where api::datmSupported allows it), plus
 * three service cells at dispatch bandwidth 1: 4 shards that slip,
 * steal and cancel events; a one-shard monolith whose every over-quota
 * cycle is slipped as one batch; and a 2-cluster fleet whose steal
 * groups keep slips one event at a time.
 *
 * Each row is the perf-style fingerprint: cycles, commits, aborts,
 * conflicts, NACKs, commit-token waits, then scheduled / executed /
 * stolen / deferred events for every event-queue shard. On a mismatch
 * the test prints the row it measured in the table's own syntax.
 * Rows may only change together with a change to simulated behaviour;
 * until the serializability oracle lands this table is what proves a
 * host-only change kept every run the same.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/datm_envelope.hpp"
#include "api/runner.hpp"
#include "workloads/workload.hpp"

using namespace retcon;

namespace {

constexpr double kScale = 0.05;
constexpr unsigned kThreads = 32;
constexpr unsigned kDatmThreads = 8;

struct GoldenRow {
    const char *cell;
    std::vector<std::uint64_t> fingerprint;
};

struct GoldenCell {
    std::string id;
    api::RunConfig cfg;
};

std::vector<std::uint64_t>
fingerprint(const api::RunResult &r)
{
    const htm::MachineStats &m = r.machineStats;
    std::vector<std::uint64_t> f = {r.cycles,    m.commits, m.aborts,
                                    m.conflicts, m.nacks,   m.tokenWaits};
    for (const api::ShardSummary &s : r.shards)
        f.insert(f.end(), {s.queueScheduled, s.queueExecuted,
                           s.queueStolen, s.queueDeferred});
    return f;
}

std::string
formatRow(const std::string &id, const std::vector<std::uint64_t> &f)
{
    std::string s = "    {\"" + id + "\", {";
    for (std::size_t i = 0; i < f.size(); ++i)
        s += (i ? ", " : "") + std::to_string(f[i]);
    return s + "}},";
}

/**
 * Service/RetCon at dispatch bandwidth 1 on @p shards shards, with the
 * contention scheduler only when sharded (as the perf service cells).
 */
api::RunConfig
serviceCell(unsigned shards = 4)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = kThreads;
    cfg.scale = 0.1;
    cfg.seed = 1;
    cfg.tm = api::retconConfig();
    cfg.tm.commitTokenArbitration = true;
    cfg.shards = shards;
    cfg.shardBandwidth = 1;
    cfg.memBanks = shards;
    cfg.memBankOccupancy = 8;
    cfg.servicePartitions = shards;
    cfg.contentionSched = shards > 1;
    return cfg;
}

/** Two clusters of 2 shards each, 30% cross-cluster commits. */
api::RunConfig
fleetCell()
{
    api::RunConfig cfg = serviceCell(2);
    cfg.clusters = 2;
    cfg.nthreads = kThreads / 2; // Per cluster.
    cfg.crossClusterFraction = 0.3;
    return cfg;
}

std::vector<GoldenCell>
goldenCells()
{
    std::vector<GoldenCell> cells;
    htm::TMConfig datm = api::eagerConfig();
    datm.mode = htm::TMMode::DATM;
    for (const std::string &name : workloads::workloadNames()) {
        if (name == "bayes")
            continue; // Figure 9 excludes bayes, as the paper does.
        api::RunConfig cfg;
        cfg.workload = name;
        cfg.nthreads = kThreads;
        cfg.scale = kScale;
        cfg.seed = 1;
        for (const api::ConfigPoint &p : api::paperConfigs()) {
            cfg.tm = p.tm;
            cells.push_back({name + "/" + p.label, cfg});
        }
        if (api::datmSupported(name, kScale, kDatmThreads, 1)) {
            cfg.tm = datm;
            cfg.nthreads = kDatmThreads;
            cells.push_back({name + "/datm", cfg});
        }
    }
    cells.push_back({"service/bw1", serviceCell()});
    cells.push_back({"service/1x1x1-bw1", serviceCell(1)});
    cells.push_back({"service/fleet2-bw1", fleetCell()});
    return cells;
}

// Captured from the simulator before its event queue became a slab of
// callbacks and its conflict checks moved to the sharer index; a change
// that only alters host-side data structures must leave every row as
// it is.
const std::vector<GoldenRow> kGolden = {
    {"genome/eager", {7921, 306, 43, 57, 54, 0, 5147, 5104, 0, 0}},
    {"genome/lazy-vb", {7760, 306, 43, 54, 49, 0, 5384, 5343, 0, 0}},
    {"genome/RetCon", {7901, 306, 44, 55, 48, 0, 5382, 5340, 0, 0}},
    {"genome/datm", {27157, 306, 72, 0, 0, 0, 5946, 5946, 0, 0}},
    {"genome-sz/eager", {24650, 306, 1132, 1154, 1619, 0, 21244, 20112, 0, 0}},
    {"genome-sz/lazy-vb", {26973, 306, 1043, 619, 2057, 0, 22878, 21882, 0, 0}},
    {"genome-sz/RetCon", {19421, 306, 352, 752, 5927, 0, 17171, 16869, 0, 0}},
    {"genome-sz/datm", {44533, 306, 320, 0, 0, 0, 9872, 9735, 0, 0}},
    {"intruder/eager", {41715, 332, 1847, 2220, 8872, 0, 37088, 35241, 0, 0}},
    {"intruder/lazy-vb", {41488, 332, 1823, 2174, 8743, 0, 38285, 36594, 0, 0}},
    {"intruder/RetCon", {39954, 332, 1947, 2367, 8406, 0, 35532, 33753, 0, 0}},
    {"intruder/datm", {56925, 308, 182, 0, 0, 0, 12067, 11992, 0, 0}},
    {"intruder_opt/eager", {9116, 332, 0, 0, 0, 0, 4874, 4874, 0, 0}},
    {"intruder_opt/lazy-vb", {9116, 332, 0, 0, 0, 0, 4874, 4874, 0, 0}},
    {"intruder_opt/RetCon", {9116, 332, 0, 0, 0, 0, 4874, 4874, 0, 0}},
    {"intruder_opt/datm", {28277, 308, 0, 0, 0, 0, 4750, 4750, 0, 0}},
    {"intruder_opt-sz/eager", {19659, 332, 134, 56, 51, 0, 7147, 7013, 0, 0}},
    {"intruder_opt-sz/lazy-vb", {19874, 332, 116, 48, 59, 0, 7056, 6946, 0, 0}},
    {"intruder_opt-sz/RetCon", {10399, 332, 31, 46, 159, 0, 5711, 5680, 0, 0}},
    {"intruder_opt-sz/datm", {31878, 308, 17, 0, 0, 0, 5047, 5047, 0, 0}},
    {"kmeans/eager", {7568, 204, 244, 466, 1193, 0, 9392, 9148, 0, 0}},
    {"kmeans/lazy-vb", {7639, 204, 240, 441, 1153, 0, 9388, 9171, 0, 0}},
    {"kmeans/RetCon", {7686, 204, 244, 448, 1131, 0, 9423, 9204, 0, 0}},
    {"kmeans/datm", {15931, 204, 106, 0, 0, 0, 7373, 7284, 0, 0}},
    {"labyrinth/eager", {3853, 8, 0, 0, 0, 0, 1013, 1013, 0, 0}},
    {"labyrinth/lazy-vb", {3853, 8, 0, 0, 0, 0, 1013, 1013, 0, 0}},
    {"labyrinth/RetCon", {3853, 8, 0, 0, 0, 0, 1013, 1013, 0, 0}},
    {"labyrinth/datm", {3853, 8, 0, 0, 0, 0, 941, 941, 0, 0}},
    {"ssca2/eager", {4408, 204, 7, 15, 25, 0, 2641, 2634, 0, 0}},
    {"ssca2/lazy-vb", {4413, 204, 7, 15, 25, 0, 2649, 2642, 0, 0}},
    {"ssca2/RetCon", {4413, 204, 7, 15, 25, 0, 2649, 2642, 0, 0}},
    {"ssca2/datm", {10696, 204, 3, 0, 0, 0, 2196, 2195, 0, 0}},
    {"vacation/eager", {49598, 76, 256, 470, 6882, 0, 37127, 36871, 0, 0}},
    {"vacation/lazy-vb", {49856, 76, 220, 435, 8071, 0, 35806, 35590, 0, 0}},
    {"vacation/RetCon", {22820, 76, 55, 140, 1638, 0, 17920, 17866, 0, 0}},
    {"vacation/datm", {60871, 76, 124, 0, 0, 0, 22694, 22607, 0, 0}},
    {"vacation_opt/eager", {10723, 76, 32, 49, 199, 0, 4879, 4847, 0, 0}},
    {"vacation_opt/lazy-vb", {10060, 76, 20, 44, 395, 0, 4647, 4628, 0, 0}},
    {"vacation_opt/RetCon", {8076, 76, 5, 10, 26, 0, 3729, 3724, 0, 0}},
    {"vacation_opt/datm", {17412, 76, 0, 0, 0, 0, 3386, 3386, 0, 0}},
    {"vacation_opt-sz/eager", {21535, 76, 148, 218, 916, 0, 10912, 10764, 0, 0}},
    {"vacation_opt-sz/lazy-vb", {20243, 76, 119, 205, 1472, 0, 10408, 10292, 0, 0}},
    {"vacation_opt-sz/RetCon", {10743, 76, 24, 74, 316, 0, 5426, 5402, 0, 0}},
    {"vacation_opt-sz/datm", {23776, 76, 33, 0, 0, 0, 5290, 5274, 0, 0}},
    {"yada/eager", {11058, 76, 546, 642, 2558, 0, 10593, 10047, 0, 0}},
    {"yada/lazy-vb", {11410, 76, 552, 631, 2408, 0, 10684, 10230, 0, 0}},
    {"yada/RetCon", {10038, 76, 526, 592, 2311, 0, 10462, 10044, 0, 0}},
    {"yada/datm", {19780, 76, 116, 0, 0, 0, 7572, 7498, 0, 0}},
    {"python/eager", {974255, 64, 1384, 2146, 863933, 0, 893646, 892262, 0, 0}},
    {"python/lazy-vb", {980247, 64, 1336, 1976, 870915, 0, 900567, 899432, 0, 0}},
    {"python/RetCon", {982279, 64, 1441, 1949, 866140, 0, 897500, 896365, 0, 0}},
    {"python_opt/eager", {255233, 64, 349, 818, 174318, 0, 195878, 195529, 0, 0}},
    {"python_opt/lazy-vb", {255112, 64, 261, 606, 175831, 0, 196939, 196678, 0, 0}},
    {"python_opt/RetCon", {97577, 64, 52, 159, 37715, 0, 55934, 55882, 0, 0}},
    {"service/bw1", {25435, 160, 565, 564, 6021, 12579,
                     7954, 7814, 923, 275, 6595, 6724, 1051, 271,
                     7905, 7688, 864, 293, 8041, 7709, 884, 288}},
    {"service/1x1x1-bw1", {58811, 160, 880, 1075, 19073, 15569,
                           50985, 50121, 0, 348807}},
    {"service/fleet2-bw1", {15582, 160, 382, 391, 3560, 6274,
                            4840, 4742, 384, 597, 4581, 4497, 392, 555,
                            4700, 4609, 357, 447, 4664, 4561, 351, 404}},
};

} // namespace

TEST(GoldenRun, GridFingerprintsAreUnchanged)
{
    std::vector<GoldenCell> cells = goldenCells();
    EXPECT_EQ(cells.size(), kGolden.size());
    std::string fresh;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        api::RunResult r = api::runOnce(cells[i].cfg);
        EXPECT_TRUE(r.validation.ok) << cells[i].id;
        std::vector<std::uint64_t> f = fingerprint(r);
        if (i < kGolden.size()) {
            EXPECT_EQ(cells[i].id, kGolden[i].cell);
            EXPECT_EQ(f, kGolden[i].fingerprint) << cells[i].id;
        }
        fresh += formatRow(cells[i].id, f) + "\n";
    }
    if (HasFailure())
        ADD_FAILURE() << "measured rows:\n" << fresh;
}

TEST(GoldenRun, ServiceCellSlipsAndSteals)
{
    // The service rows only pin the queue's slip and steal paths if
    // they ran; conflict aborts of waiting cores exercise cancel. The
    // monolith has no shard to steal, so every over-quota cycle there
    // is slipped whole; the others slip one event at a time.
    struct Expect {
        const char *cell;
        api::RunConfig cfg;
        bool steals;
    };
    for (const Expect &e : {Expect{"service/bw1", serviceCell(), true},
                            Expect{"service/1x1x1-bw1", serviceCell(1), false},
                            Expect{"service/fleet2-bw1", fleetCell(), true}}) {
        api::RunResult r = api::runOnce(e.cfg);
        std::uint64_t slips = 0, steals = 0;
        for (const api::ShardSummary &s : r.shards) {
            slips += s.queueDeferred;
            steals += s.queueStolen;
        }
        EXPECT_GT(slips, 0u) << e.cell;
        EXPECT_EQ(steals > 0, e.steals) << e.cell;
        EXPECT_GT(r.machineStats.abortsByCause[static_cast<int>(
                      htm::AbortCause::Conflict)],
                  0u)
            << e.cell;
    }
}
