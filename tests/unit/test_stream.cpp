/**
 * @file
 * Tests for the streaming binary trace format (src/trace/stream) and
 * its windowed consumption path (query::StreamingReplay /
 * validateStreamFile): payload codec round trips, writer/reader file
 * round trips against the text exporters (bit-exact both ways),
 * corruption detection with offset-precise diagnostics (checksum,
 * truncation, seq gap, seq regression), resynchronization after a
 * corrupted frame, and windowed-vs-post-hoc verdict identity with the
 * resident-state bound (docs/streaming.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "exec/cluster.hpp"
#include "query/loader.hpp"
#include "query/replay.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "trace/stream.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x1000;
constexpr int kIters = 25;
constexpr unsigned kThreads = 8;

Task<TxValue>
incrementBody(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

/** Contended-counter run under RETCON, fully recorded (dense seq). */
std::vector<trace::Record>
recordCounterRun()
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.tm.mode = htm::TMMode::Retcon;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));
    trace::TraceRecorder ring(1 << 16);
    cluster.setTraceSink(&ring);
    cluster.start([](WorkerCtx &ctx) -> Task<void> {
        for (int i = 0; i < kIters; ++i) {
            co_await ctx.txn([](Tx &tx) { return incrementBody(tx); });
            co_await ctx.work(20);
        }
        co_await ctx.barrier();
    });
    cluster.run();
    EXPECT_EQ(cluster.memory().readWord(kCounter),
              Word{kThreads} * kIters);
    std::vector<trace::Record> recs;
    ring.forEach([&](const trace::Record &r) { recs.push_back(r); });
    EXPECT_EQ(ring.dropped(), 0u);
    return recs;
}

std::vector<unsigned char>
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(is),
        std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path,
           const std::vector<unsigned char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Drain a reader; returns records and counts faults by kind. */
struct DrainResult {
    std::vector<trace::Record> records;
    std::vector<trace::StreamFault> faults;
};

DrainResult
drain(trace::StreamReader &reader)
{
    DrainResult out;
    trace::Record r;
    trace::StreamFault f;
    while (true) {
        trace::StreamReader::Status s = reader.next(r, f);
        if (s == trace::StreamReader::Status::Record)
            out.records.push_back(r);
        else if (s == trace::StreamReader::Status::Fault)
            out.faults.push_back(f);
        else
            return out;
    }
}

/** Hand-craft an .rtt file from explicit records (test harness for
 *  seq-fault injection — the writer itself never misorders). */
void
craftStream(const std::string &path, bool dense,
            const std::vector<trace::Record> &recs)
{
    std::vector<unsigned char> bytes(trace::kStreamHeaderBytes);
    trace::encodeStreamHeader(dense, bytes.data());
    for (const trace::Record &r : recs) {
        std::size_t at = bytes.size();
        bytes.resize(at + trace::kFrameBytes);
        trace::encodeFrame(r, bytes.data() + at);
    }
    writeBytes(path, bytes);
}

trace::Record
sampleRecord(std::uint64_t seq, trace::EventKind kind)
{
    trace::Record r;
    r.cycle = 1000 + seq;
    r.core = static_cast<CoreId>(seq % kThreads);
    r.kind = kind;
    r.addr = kCounter + 8 * seq;
    r.a = 0xA0000000ull + seq;
    r.b = 0xB0000000ull + seq;
    r.seq = seq;
    r.vid = seq * 3;
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// Codec: payload round trips, byte-stable re-encode
// ---------------------------------------------------------------------

TEST(StreamCodec, EveryKindRoundTripsThroughAFrame)
{
    for (int k = 0; k <= static_cast<int>(trace::EventKind::UserMark);
         ++k) {
        trace::Record r =
            sampleRecord(7 + static_cast<std::uint64_t>(k),
                         static_cast<trace::EventKind>(k));
        // Exercise the conditional fields: a symbolic tag with a
        // negative delta, a non-default operator, and a legal aux
        // (Abort's aux must name a real cause).
        if (k % 2 == 0) {
            r.hasSym = true;
            r.sym.root = 0x2000;
            r.sym.delta = -17;
            r.sym.size = 4;
        }
        r.cmp = rtc::CmpOp::GE;
        r.aux = r.kind == trace::EventKind::Abort
                    ? static_cast<std::uint8_t>(htm::AbortCause::Zombie)
                    : trace::kCommitAuxDatmForwarded;

        unsigned char frame[trace::kFrameBytes];
        trace::encodeFrame(r, frame);
        EXPECT_EQ(frame[0], trace::kFrameSync0);
        EXPECT_EQ(frame[1], trace::kFrameSync1);

        trace::Record back;
        ASSERT_TRUE(trace::decodePayload(frame + 12, back));
        back.seq = r.seq; // seq travels in the frame header.
        EXPECT_TRUE(trace::recordsIdentical(r, back))
            << "kind " << k;

        // Re-encoding the decode reproduces the frame byte for byte —
        // the property behind file-level binary round-trip identity.
        unsigned char again[trace::kFrameBytes];
        trace::encodeFrame(back, again);
        EXPECT_EQ(std::memcmp(frame, again, trace::kFrameBytes), 0);
    }
}

TEST(StreamCodec, IllegalPayloadsAreRejected)
{
    trace::Record r = sampleRecord(1, trace::EventKind::Commit);
    unsigned char frame[trace::kFrameBytes];
    trace::Record out;

    // Unknown event kind.
    trace::encodeFrame(r, frame);
    frame[12 + 60] =
        static_cast<unsigned char>(trace::EventKind::UserMark) + 1;
    EXPECT_FALSE(trace::decodePayload(frame + 12, out));

    // Unknown constraint operator.
    trace::encodeFrame(r, frame);
    frame[12 + 62] = static_cast<unsigned char>(rtc::CmpOp::GT) + 1;
    EXPECT_FALSE(trace::decodePayload(frame + 12, out));

    // Undefined flag bits.
    trace::encodeFrame(r, frame);
    frame[12 + 61] = 0x2;
    EXPECT_FALSE(trace::decodePayload(frame + 12, out));

    // Abort cause beyond the enum.
    r.kind = trace::EventKind::Abort;
    r.aux = static_cast<std::uint8_t>(htm::AbortCause::Zombie) + 1;
    trace::encodeFrame(r, frame);
    EXPECT_FALSE(trace::decodePayload(frame + 12, out));
}

// ---------------------------------------------------------------------
// File round trips: writer/reader, binary vs JSON bit-exactness
// ---------------------------------------------------------------------

TEST(StreamFile, WriterReaderRoundTripIsLossless)
{
    const std::string path = "test_stream_roundtrip.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    ASSERT_FALSE(recs.empty());

    trace::StreamWriter writer(path);
    for (const trace::Record &r : recs)
        writer.onEvent(r);
    writer.close();
    EXPECT_EQ(writer.stats().records, recs.size());
    EXPECT_EQ(writer.stats().bytesWritten,
              trace::kStreamHeaderBytes +
                  recs.size() * trace::kFrameBytes);
    EXPECT_GE(writer.stats().flushes, 1u);

    trace::StreamReader reader(path);
    DrainResult got = drain(reader);
    EXPECT_TRUE(got.faults.empty());
    EXPECT_TRUE(reader.denseSeq());
    ASSERT_EQ(got.records.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        ASSERT_TRUE(trace::recordsIdentical(got.records[i], recs[i]))
            << "record " << i;

    // The generic loader sniffs the magic and takes the binary path.
    query::LoadResult sniffed = query::loadTraceFile(path);
    ASSERT_TRUE(sniffed.ok) << sniffed.error;
    ASSERT_EQ(sniffed.records.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        ASSERT_TRUE(
            trace::recordsIdentical(sniffed.records[i], recs[i]));
    std::remove(path.c_str());
}

TEST(StreamFile, BinaryAndTextExportsRoundTripBitExactBothWays)
{
    const std::string binPath = "test_stream_export.rtt";
    const std::string binPath2 = "test_stream_export2.rtt";
    std::vector<trace::Record> recs = recordCounterRun();

    // Binary -> records.
    EXPECT_EQ(trace::exportBinaryFile(recs, binPath), recs.size());
    query::LoadResult fromBin = query::loadBinary(binPath);
    ASSERT_TRUE(fromBin.ok) << fromBin.error;

    // JSON -> records, through the text loader.
    std::ostringstream json;
    trace::exportJson(recs, json);
    std::istringstream jsonIn(json.str());
    query::LoadResult fromJson = query::loadJson(jsonIn);
    ASSERT_TRUE(fromJson.ok) << fromJson.error;

    // Both decodes agree with the original, field for field.
    ASSERT_EQ(fromBin.records.size(), recs.size());
    ASSERT_EQ(fromJson.records.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(
            trace::recordsIdentical(fromBin.records[i], recs[i]));
        ASSERT_TRUE(
            trace::recordsIdentical(fromJson.records[i], recs[i]));
    }

    // Closing the loop binary -> JSON -> binary: re-exporting the
    // JSON-loaded records reproduces the .rtt file byte for byte.
    trace::exportBinaryFile(fromJson.records, binPath2);
    EXPECT_EQ(readBytes(binPath), readBytes(binPath2));
    std::remove(binPath.c_str());
    std::remove(binPath2.c_str());
}

// ---------------------------------------------------------------------
// Fault detection: checksum, truncation, seq gap/regression, resync
// ---------------------------------------------------------------------

TEST(StreamFile, ChecksumCorruptionIsRejectedWithItsOffset)
{
    const std::string path = "test_stream_corrupt.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    // Flip one payload byte in the middle frame.
    std::vector<unsigned char> bytes = readBytes(path);
    const std::size_t frame = recs.size() / 2;
    const std::size_t frameOff =
        trace::kStreamHeaderBytes + frame * trace::kFrameBytes;
    bytes[frameOff + 20] ^= 0x40;
    writeBytes(path, bytes);

    // Strict reader: the records before the corruption, then one
    // terminal BadChecksum fault naming the frame's exact offset.
    trace::StreamReader reader(path);
    DrainResult got = drain(reader);
    EXPECT_EQ(got.records.size(), frame);
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind,
              trace::StreamFault::Kind::BadChecksum);
    EXPECT_EQ(got.faults[0].offset, frameOff);
    EXPECT_EQ(got.faults[0].recordIndex, frame);

    // The loader refuses the whole file with the same diagnostic.
    query::LoadResult load = query::loadBinary(path);
    EXPECT_FALSE(load.ok);
    EXPECT_NE(load.error.find("offset " + std::to_string(frameOff)),
              std::string::npos)
        << load.error;
    EXPECT_NE(load.error.find("checksum"), std::string::npos);
    EXPECT_TRUE(load.records.empty());
    std::remove(path.c_str());
}

TEST(StreamFile, TruncationIsRejected)
{
    const std::string path = "test_stream_trunc.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    // Tear the final frame: keep all but its last 10 bytes.
    std::vector<unsigned char> bytes = readBytes(path);
    bytes.resize(bytes.size() - 10);
    writeBytes(path, bytes);

    trace::StreamReader reader(path);
    DrainResult got = drain(reader);
    EXPECT_EQ(got.records.size(), recs.size() - 1);
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind, trace::StreamFault::Kind::Truncated);
    EXPECT_EQ(got.faults[0].offset, bytes.size());

    query::LoadResult load = query::loadBinary(path);
    EXPECT_FALSE(load.ok);
    EXPECT_NE(load.error.find("truncated"), std::string::npos)
        << load.error;
    std::remove(path.c_str());
}

TEST(StreamFile, ResyncRecoversEverythingAfterACorruptFrame)
{
    const std::string path = "test_stream_resync.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    std::vector<unsigned char> bytes = readBytes(path);
    const std::size_t frame = recs.size() / 2;
    const std::size_t frameOff =
        trace::kStreamHeaderBytes + frame * trace::kFrameBytes;
    bytes[frameOff + 20] ^= 0x40;
    writeBytes(path, bytes);

    // Resync mode: one frame is lost, everything else is recovered.
    // The scan reports the checksum fault, skips exactly the broken
    // frame, and the dense-seq check then flags the swallowed record.
    trace::StreamReader reader(path, /*resync=*/true);
    DrainResult got = drain(reader);
    ASSERT_EQ(got.records.size(), recs.size() - 1);
    ASSERT_EQ(got.faults.size(), 2u);
    EXPECT_EQ(got.faults[0].kind,
              trace::StreamFault::Kind::BadChecksum);
    EXPECT_EQ(got.faults[1].kind, trace::StreamFault::Kind::SeqGap);
    EXPECT_EQ(got.faults[1].prevSeq, recs[frame - 1].seq);
    EXPECT_EQ(got.faults[1].seq, recs[frame + 1].seq);
    EXPECT_EQ(reader.bytesSkipped(), trace::kFrameBytes);

    // Order and identity: the survivors are exactly recs minus the
    // corrupted frame's record.
    for (std::size_t i = 0; i < got.records.size(); ++i) {
        const trace::Record &want =
            i < frame ? recs[i] : recs[i + 1];
        ASSERT_TRUE(trace::recordsIdentical(got.records[i], want))
            << "record " << i;
    }
    std::remove(path.c_str());
}

TEST(StreamFile, DenseSeqGapIsFatalInStrictMode)
{
    const std::string path = "test_stream_gap.rtt";
    std::vector<trace::Record> recs = {
        sampleRecord(1, trace::EventKind::TxBegin),
        sampleRecord(2, trace::EventKind::Load),
        sampleRecord(4, trace::EventKind::Commit), // 3 missing.
    };
    craftStream(path, /*dense=*/true, recs);

    trace::StreamReader strict(path);
    DrainResult got = drain(strict);
    EXPECT_EQ(got.records.size(), 2u);
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind, trace::StreamFault::Kind::SeqGap);
    EXPECT_EQ(got.faults[0].prevSeq, 2u);
    EXPECT_EQ(got.faults[0].seq, 4u);

    // Resync mode reports the same gap but still delivers the intact
    // record behind it.
    trace::StreamReader lax(path, /*resync=*/true);
    DrainResult got2 = drain(lax);
    EXPECT_EQ(got2.records.size(), 3u);
    ASSERT_EQ(got2.faults.size(), 1u);
    EXPECT_EQ(got2.faults[0].kind, trace::StreamFault::Kind::SeqGap);

    // A sparse (non-dense) stream makes the same seqs legal: windowed
    // exports gap by construction.
    craftStream(path, /*dense=*/false, recs);
    trace::StreamReader sparse(path);
    DrainResult got3 = drain(sparse);
    EXPECT_EQ(got3.records.size(), 3u);
    EXPECT_TRUE(got3.faults.empty());
    std::remove(path.c_str());
}

TEST(StreamFile, SeqRegressionIsRejected)
{
    const std::string path = "test_stream_seqorder.rtt";
    std::vector<trace::Record> recs = {
        sampleRecord(5, trace::EventKind::TxBegin),
        sampleRecord(3, trace::EventKind::Load), // Regression.
        sampleRecord(6, trace::EventKind::Commit),
    };
    craftStream(path, /*dense=*/false, recs);

    trace::StreamReader strict(path);
    DrainResult got = drain(strict);
    EXPECT_EQ(got.records.size(), 1u);
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind, trace::StreamFault::Kind::SeqOrder);
    EXPECT_EQ(got.faults[0].prevSeq, 5u);
    EXPECT_EQ(got.faults[0].seq, 3u);

    // Resync skips the stale frame and keeps going.
    trace::StreamReader lax(path, /*resync=*/true);
    DrainResult got2 = drain(lax);
    EXPECT_EQ(got2.records.size(), 2u);
    EXPECT_EQ(got2.records[1].seq, 6u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Windowed validation: verdict identity and the resident-state bound
// ---------------------------------------------------------------------

TEST(StreamValidate, WindowedVerdictMatchesPostHocFieldForField)
{
    const std::string path = "test_stream_validate.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    query::ReplayResult post = query::replayValidate(recs);
    ASSERT_TRUE(post.report.ok()) << post.report.summary();

    query::StreamValidateResult inc = query::validateStreamFile(path);
    ASSERT_TRUE(inc.streamOk) << inc.error;
    EXPECT_EQ(inc.recordsRead, recs.size());
    EXPECT_TRUE(inc.ok());

    const trace::ReenactReport &a = inc.replay.report;
    const trace::ReenactReport &b = post.report;
    EXPECT_EQ(a.commitsChecked, b.commitsChecked);
    EXPECT_EQ(a.repairsChecked, b.repairsChecked);
    EXPECT_EQ(a.constraintsChecked, b.constraintsChecked);
    EXPECT_EQ(a.pinsChecked, b.pinsChecked);
    EXPECT_EQ(a.abortsSeen, b.abortsSeen);
    EXPECT_EQ(a.forwardsChecked, b.forwardsChecked);
    EXPECT_EQ(a.forwardedCommitsChecked, b.forwardedCommitsChecked);
    EXPECT_EQ(a.forwardedCommitsSkipped, b.forwardedCommitsSkipped);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(inc.replay.unknownReads, post.unknownReads);
    EXPECT_EQ(inc.replay.seededWords, post.seededWords);

    // The windowed-validation memory contract: resident state peaks
    // at the number of cores that can hold an attempt open, never the
    // run length — and the run really did open attempts.
    EXPECT_GT(inc.replay.peakOpenAttempts, 0u);
    EXPECT_LE(inc.replay.peakOpenAttempts, kThreads);
    EXPECT_EQ(inc.replay.peakOpenAttempts, post.peakOpenAttempts);
    std::remove(path.c_str());
}

TEST(StreamValidate, CorruptedStreamIsNotScored)
{
    const std::string path = "test_stream_validate_bad.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    std::vector<unsigned char> bytes = readBytes(path);
    bytes[bytes.size() / 2] ^= 0xFF;
    writeBytes(path, bytes);

    query::StreamValidateResult v = query::validateStreamFile(path);
    EXPECT_FALSE(v.streamOk);
    EXPECT_FALSE(v.ok());
    EXPECT_NE(v.error.find("offset"), std::string::npos) << v.error;
    std::remove(path.c_str());
}
