/**
 * @file
 * ShardMux: per-shard trace accounting for the sharded cluster.
 *
 * One machine-wide provenance stream fans into:
 *  - per-shard lifetime counters (events, repairs, DATM forwards; a
 *    record is homed on the shard of the core that produced it) —
 *    the inputs of bench/service_scalability's per-shard repair rates;
 *  - any number of downstream sinks, fed live in machine order.
 *
 * Downstream consumers (the ReenactmentValidator, a StreamWriter, a
 * VectorSink capture) observe the *merged* stream in global order:
 * the validator's per-core symbolic logs snapshot architectural memory
 * at CommitDrain, which only exists live, and the machine emits
 * exactly that order because the sharded queue dispatches events in
 * global (cycle, seq) order. The mux retains no records itself.
 *
 * Not thread-safe: onEvent() runs on the simulation thread, and the
 * read-side accessors (counters(), totalEvents()) are meant for after
 * the run completes.
 */

#ifndef RETCON_TRACE_SHARD_MUX_HPP
#define RETCON_TRACE_SHARD_MUX_HPP

#include <functional>
#include <vector>

#include "trace/sink.hpp"

namespace retcon::trace {

/** Fan provenance events into per-shard counters + live sinks. */
class ShardMux final : public TraceSink
{
  public:
    /** Maps an emitting core to its home shard. */
    using ShardOfFn = std::function<unsigned(CoreId)>;

    /** Lifetime per-shard counters. */
    struct Counters {
        std::uint64_t events = 0;
        std::uint64_t repairs = 0;
        std::uint64_t forwards = 0; ///< DATM forwarded-value loads.
    };

    /**
     * The trailing size_t is unused: it is kept because the benchmark
     * driver (perf/) still passes TraceOptions::ringCapacity.
     */
    ShardMux(unsigned nshards, ShardOfFn shard_of, std::size_t = 0);

    /** Attach a live consumer of the merged stream (non-owning). */
    void addDownstream(TraceSink *sink);

    void onEvent(const Record &r) override;

    unsigned numShards() const { return _nshards; }

    const Counters &counters(unsigned s) const;

    /** Total events seen across all shards. */
    std::uint64_t totalEvents() const;

  private:
    unsigned _nshards;
    ShardOfFn _shardOf;
    /// Core -> shard, resolved through _shardOf once per core ever
    /// (the mapping is fixed for a cluster's lifetime) so the hot
    /// onEvent path avoids a std::function call per record.
    std::vector<std::uint8_t> _shardOfCore;
    std::vector<Counters> _counters;
    std::vector<TraceSink *> _downstream;

    unsigned shardOfCore(CoreId core);
};

} // namespace retcon::trace

#endif // RETCON_TRACE_SHARD_MUX_HPP
