#include "drivers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include <unistd.h>

#include "cells.hpp"
#include "htm/machine.hpp"
#include "mem/memory_system.hpp"
#include "query/replay.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"
#include "trace/stream.hpp"

namespace retcon::perf {

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

} // namespace

double
queueNsPerEvent(unsigned depth, std::uint64_t events, std::uint64_t seed)
{
    EventQueue eq;
    Xoshiro rng(seed);
    std::uint64_t scheduled = 0;
    std::function<void()> fire = [&] {
        if (scheduled < events) {
            ++scheduled;
            eq.scheduleAfter(1 + rng.below(16), fire);
        }
    };
    for (unsigned i = 0; i < depth; ++i) {
        ++scheduled;
        eq.schedule(1 + rng.below(16), fire);
    }
    auto t0 = Clock::now();
    eq.run();
    return nsSince(t0) / double(eq.executed());
}

double
slipNsPerEvent(unsigned depth, std::uint64_t events)
{
    ShardedQueueConfig cfg;
    cfg.nshards = 1;
    cfg.dispatchBandwidth = 1;
    ShardedEventQueue q(cfg);
    std::uint64_t scheduled = 0;
    std::function<void()> fire = [&] {
        if (scheduled < events) {
            ++scheduled;
            q.scheduleAfter(0, 1, fire);
        }
    };
    for (unsigned i = 0; i < depth; ++i) {
        ++scheduled;
        q.schedule(0, 1, fire);
    }
    auto t0 = Clock::now();
    q.run();
    return nsSince(t0) / double(q.executed());
}

double
txAccessNs(unsigned cores, std::uint64_t accesses,
           std::vector<std::string> &failures)
{
    constexpr unsigned kOpsPerTx = 8; // Loads, and as many stores.
    constexpr Addr kShared = 0x100000;
    constexpr Addr kPrivate = 0x400000;
    EventQueue clock;
    mem::MemorySystem ms(cores);
    htm::TMMachine tm(clock, ms, api::eagerConfig());
    tm.setRemoteAbortHandler([](CoreId, htm::AbortCause) {});

    const std::uint64_t per_round = std::uint64_t(cores) * kOpsPerTx * 2;
    const std::uint64_t rounds = std::max<std::uint64_t>(
        2, accesses / per_round);
    bool ok = true;
    double ns = 0;
    for (std::uint64_t round = 0; round < rounds && ok; ++round) {
        for (CoreId c = 0; c < cores; ++c)
            ok &= tm.txBegin(c, false).status == htm::OpStatus::Ok;
        auto t0 = Clock::now();
        for (unsigned k = 0; k < kOpsPerTx; ++k) {
            for (CoreId c = 0; c < cores; ++c) {
                Addr shared = kShared + Addr((c + k) % 64) * kBlockBytes;
                Addr priv = kPrivate +
                            Addr(c * kOpsPerTx + k) * kBlockBytes;
                ok &= tm.txLoad(c, shared).status == htm::OpStatus::Ok;
                ok &= tm.txStore(c, priv, round, std::nullopt).status ==
                      htm::OpStatus::Ok;
            }
        }
        // Round 0 warms the caches and is not timed.
        if (round > 0)
            ns += nsSince(t0);
        for (CoreId c = 0; c < cores; ++c) {
            htm::CommitStepOutcome out;
            do {
                out = tm.commitStep(c, false);
            } while (out.status == htm::OpStatus::Ok && !out.done);
            ok &= out.done;
        }
    }
    if (!ok || tm.stats().conflicts != 0)
        failures.push_back("htm driver at " + std::to_string(cores) +
                           " cores: an access did not succeed");
    return ns / double((rounds - 1) * per_round);
}

double
memAccessNs(std::uint64_t accesses, std::uint64_t seed)
{
    constexpr unsigned kCores = 32;
    constexpr std::uint64_t kBlocks = 8192; // 512 KiB: L2-resident.
    mem::MemorySystem ms(kCores, {}, {}, 4);
    Xoshiro rng(seed);
    std::vector<std::uint64_t> ops(accesses);
    for (std::uint64_t &op : ops)
        op = rng.next();
    Cycle sink = 0;
    auto t0 = Clock::now();
    for (std::uint64_t op : ops) {
        CoreId core = static_cast<CoreId>(op % kCores);
        Addr block = Addr((op >> 8) % kBlocks) * kBlockBytes;
        bool write = ((op >> 40) & 3) == 0; // A quarter are writes.
        sink += ms.access(core, block, write).latency;
    }
    double ns = nsSince(t0);
    return sink > 0 ? ns / double(accesses) : 0.0;
}

TraceDriver
traceDriver(const api::RunConfig &cfg, const std::string &tmp_dir,
            std::vector<std::string> &failures)
{
    TraceDriver out;
    const std::string copy = tmp_dir + "/driver-rewrite-" +
                             std::to_string(::getpid()) + ".rtt";
    api::RunConfig plain = cfg;
    plain.trace = {};
    api::RunResult traced = api::runOnce(cfg);
    api::RunResult untraced = api::runOnce(plain);
    out.records = traced.traceStream.records;
    out.flushMs = traced.traceStream.flushWallMs;
    out.auditS =
        (traced.hostParallel.wallMs - untraced.hostParallel.wallMs) / 1e3;
    if (fingerprint(traced) != fingerprint(untraced))
        failures.push_back("trace driver: tracing changed the simulation");

    std::vector<trace::Record> recs;
    {
        trace::StreamReader reader(cfg.trace.streamPath);
        trace::Record r;
        trace::StreamFault fault;
        while (reader.next(r, fault) == trace::StreamReader::Status::Record)
            recs.push_back(r);
    }
    std::remove(cfg.trace.streamPath.c_str());
    if (recs.empty() || recs.size() != out.records) {
        failures.push_back("trace driver: read back " +
                           std::to_string(recs.size()) + " of " +
                           std::to_string(out.records) + " records");
        return out;
    }

    auto t0 = Clock::now();
    {
        trace::StreamWriter writer(copy);
        for (const trace::Record &r : recs)
            writer.onEvent(r);
        writer.close();
    }
    out.writeNsPerRecord = nsSince(t0) / double(recs.size());

    t0 = Clock::now();
    query::StreamValidateResult v = query::validateStreamFile(copy);
    double ns = nsSince(t0);
    std::remove(copy.c_str());
    out.validateS = ns / 1e9;
    out.queryNsPerRecord = ns / double(recs.size());
    if (!v.ok() || v.recordsRead != recs.size())
        failures.push_back("trace driver: rewritten stream did not "
                           "validate: " + v.error);
    return out;
}

} // namespace retcon::perf
