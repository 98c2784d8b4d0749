#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>

#include "fault/fault_injector.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/split_oram.hh"

namespace secdimm::sdimm
{
namespace
{

SplitOram::Params
smallParams(unsigned slices = 2, unsigned levels = 7)
{
    SplitOram::Params p;
    p.tree.levels = levels;
    p.tree.stashCapacity = 200;
    p.slices = slices;
    return p;
}

BlockData
blockOf(std::uint64_t v)
{
    BlockData d{};
    for (int i = 0; i < 8; ++i)
        d[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
    return d;
}

TEST(SplitShares, ExtractMergeRoundTrip)
{
    std::vector<std::uint8_t> full(64);
    for (std::size_t i = 0; i < full.size(); ++i)
        full[i] = static_cast<std::uint8_t>(i * 7);
    for (unsigned s : {2u, 4u}) {
        std::vector<std::uint8_t> rebuilt(64, 0);
        for (unsigned j = 0; j < s; ++j) {
            std::vector<std::uint8_t> share(shareBytes(full.size(), j, s));
            extractShare(full, j, s, share);
            mergeShare(rebuilt, share, j, s);
        }
        EXPECT_EQ(rebuilt, full) << "slices=" << s;
    }
}

TEST(SplitShares, SharesPartitionTheBytes)
{
    for (std::size_t len : {63u, 64u, 65u}) {
        for (unsigned s : {1u, 2u, 3u, 4u}) {
            std::size_t total = 0;
            for (unsigned j = 0; j < s; ++j)
                total += shareBytes(len, j, s);
            EXPECT_EQ(total, len) << "len=" << len << " slices=" << s;
        }
    }
}

TEST(SplitOram, UninitializedReadsZero)
{
    SplitOram oram(smallParams(), 1);
    EXPECT_EQ(oram.access(0, oram::OramOp::Read), BlockData{});
}

TEST(SplitOram, ReadYourWrites)
{
    SplitOram oram(smallParams(), 1);
    const BlockData v = blockOf(0xfeedfacecafebeefULL);
    oram.access(3, oram::OramOp::Write, &v);
    EXPECT_EQ(oram.access(3, oram::OramOp::Read), v);
    EXPECT_TRUE(oram.integrityOk());
}

TEST(SplitOram, WriteReturnsOldValue)
{
    SplitOram oram(smallParams(), 1);
    const BlockData v1 = blockOf(1), v2 = blockOf(2);
    oram.access(3, oram::OramOp::Write, &v1);
    EXPECT_EQ(oram.access(3, oram::OramOp::Write, &v2), v1);
    EXPECT_EQ(oram.access(3, oram::OramOp::Read), v2);
}

TEST(SplitOram, ManyBlocksSurviveShuffling)
{
    SplitOram oram(smallParams(2, 8), 3);
    const std::uint64_t capacity = oram.capacityBlocks();
    std::map<Addr, std::uint64_t> expected;
    Rng rng(21);
    for (int i = 0; i < 200; ++i) {
        const Addr a = rng.nextBelow(capacity);
        const std::uint64_t v = rng.next();
        const BlockData d = blockOf(v);
        oram.access(a, oram::OramOp::Write, &d);
        expected[a] = v;
    }
    for (int i = 0; i < 400; ++i) {
        const Addr a = rng.nextBelow(capacity);
        const auto it = expected.find(a);
        const BlockData want =
            it == expected.end() ? BlockData{} : blockOf(it->second);
        ASSERT_EQ(oram.access(a, oram::OramOp::Read), want)
            << "addr " << a << " iter " << i;
    }
    EXPECT_TRUE(oram.integrityOk());
    EXPECT_EQ(oram.stats().integrityFailures, 0u);
}

TEST(SplitOram, FourWaySplitWorks)
{
    SplitOram oram(smallParams(4, 6), 5);
    const BlockData v = blockOf(77);
    for (Addr a = 0; a < 40; ++a)
        oram.access(a, oram::OramOp::Write, &v);
    for (Addr a = 0; a < 40; ++a)
        EXPECT_EQ(oram.access(a, oram::OramOp::Read), v);
    EXPECT_TRUE(oram.integrityOk());
}

TEST(SplitOram, SliceTamperDetected)
{
    SplitOram oram(smallParams(2, 6), 7);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    // Corrupt one byte of slice 1's share of the root bucket data.
    oram.tamperSlice(1, 0, 0, 0);
    oram.access(0, oram::OramOp::Read);
    EXPECT_FALSE(oram.integrityOk());
}

TEST(SplitOram, TamperOutsideTheArenaThrows)
{
    SplitOram oram(smallParams(2, 3), 7);
    const std::uint64_t buckets = smallParams(2, 3).tree.numBuckets();
    const unsigned z = smallParams(2, 3).tree.bucketBlocks;
    EXPECT_THROW(oram.tamperSlice(2, 0, 0, 0), std::out_of_range);
    EXPECT_THROW(oram.tamperSlice(0, buckets, 0, 0), std::out_of_range);
    EXPECT_THROW(oram.tamperSlice(0, 0, z, 0), std::out_of_range);
    EXPECT_THROW(oram.tamperSlice(0, 0, 0, blockBytes / 2),
                 std::out_of_range);
    // The last byte of the last share is in range; nothing was read
    // yet, so the damage is invisible until the bucket is fetched.
    oram.tamperSlice(1, buckets - 1, z - 1, blockBytes / 2 - 1);
    EXPECT_TRUE(oram.integrityOk());
}

TEST(SplitOram, ChannelTrafficIsMetadataDominated)
{
    // The point of Split: local (on-DIMM) bytes dwarf channel bytes.
    SplitOram oram(smallParams(2, 10), 9);
    const BlockData v = blockOf(5);
    for (int i = 0; i < 50; ++i)
        oram.access(static_cast<Addr>(i), oram::OramOp::Write, &v);
    EXPECT_GT(oram.stats().localBytes, oram.stats().channelBytes);
}

TEST(SplitOram, LeafTraceUniformUnderHammering)
{
    SplitOram oram(smallParams(2, 8), 11);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    oram.clearLeafTrace();
    for (int i = 0; i < 400; ++i)
        oram.access(0, oram::OramOp::Read);
    std::vector<int> bins(16, 0);
    for (LeafId l : oram.leafTrace())
        ++bins[l % 16];
    const double expect =
        static_cast<double>(oram.leafTrace().size()) / bins.size();
    double chi2 = 0;
    for (int b : bins)
        chi2 += (b - expect) * (b - expect) / expect;
    EXPECT_LT(chi2, 45.0);
}

TEST(SplitOram, ShadowStashStaysBounded)
{
    SplitOram oram(smallParams(2, 7), 13);
    const BlockData v = blockOf(3);
    for (int i = 0; i < 1000; ++i)
        oram.access(static_cast<Addr>(i) % oram.capacityBlocks(),
                    oram::OramOp::Write, &v);
    EXPECT_LE(oram.stats().maxShadowStash,
              oram.capacityBlocks()); // Sanity.
    EXPECT_LE(oram.shadowStashSize(), 200u);
}

TEST(SplitOram, OverwritePersistsAcrossManyAccesses)
{
    SplitOram oram(smallParams(2, 7), 15);
    const BlockData v1 = blockOf(0xaaaa), v2 = blockOf(0xbbbb);
    oram.access(9, oram::OramOp::Write, &v1);
    for (int i = 0; i < 100; ++i)
        oram.access(static_cast<Addr>(i % 30 + 10), oram::OramOp::Read);
    EXPECT_EQ(oram.access(9, oram::OramOp::Write, &v2), v1);
    for (int i = 0; i < 100; ++i)
        oram.access(static_cast<Addr>(i % 30 + 10), oram::OramOp::Read);
    EXPECT_EQ(oram.access(9, oram::OramOp::Read), v2);
}


/**
 * Golden equivalence: everything a seeded Split run exposes -- the
 * blocks it returns, its traffic and stash counters, the fault ledger
 * and the crypto work -- pinned to values recorded before the slice
 * storage became flat arenas.  A storage or batching change that
 * shifts any of them (one extra fault roll, one more AES block, a
 * different eviction choice) fails here.  Only crypto.mac_batch_*
 * may move, so they are not pinned.
 */
struct Observed
{
    std::uint64_t readHash = 0;
    std::uint64_t channelBytes = 0;
    std::uint64_t localBytes = 0;
    std::uint64_t maxShadowStash = 0;
    std::uint64_t dummyAccesses = 0;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t unrecovered = 0;
    std::uint64_t aesBlocks = 0;
    std::uint64_t ctrBytes = 0;
    std::uint64_t macTags = 0;

    bool operator==(const Observed &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Observed &o)
{
    return os << "{" << o.readHash << "ull, " << o.channelBytes << ", "
              << o.localBytes << ", " << o.maxShadowStash << ", "
              << o.dummyAccesses << ", " << o.injected << ", "
              << o.detected << ", " << o.recovered << ", "
              << o.unrecovered << ", " << o.aesBlocks << ", "
              << o.ctrBytes << ", " << o.macTags << "}";
}

constexpr int kGoldenAccesses = 3000;

fault::FaultPlan
goldenFaultPlan()
{
    fault::FaultPlan p;
    p.dramBitFlipRate = 0.02;
    p.linkCorruptRate = 0.01;
    p.linkDropRate = 0.01;
    p.seed = 0x901d;
    return p;
}

/** Mixed 50/50 reads and writes; FNV-1a over every returned block. */
template <typename Access>
std::uint64_t
runGoldenWorkload(std::uint64_t capacity, Access &&access)
{
    Rng rng(0x601d);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < kGoldenAccesses; ++i) {
        const Addr a = rng.nextBelow(capacity);
        BlockData out;
        if (rng.nextBool(0.5)) {
            const BlockData d = blockOf(rng.next());
            out = access(a, oram::OramOp::Write, &d);
        } else {
            out = access(a, oram::OramOp::Read, nullptr);
        }
        for (std::uint8_t b : out)
            h = (h ^ b) * 0x100000001b3ull;
    }
    return h;
}

void
addStats(Observed &o, const SplitOram &g)
{
    o.channelBytes += g.stats().channelBytes;
    o.localBytes += g.stats().localBytes;
    o.maxShadowStash =
        std::max<std::uint64_t>(o.maxShadowStash, g.stats().maxShadowStash);
    o.dummyAccesses += g.stats().dummyAccesses;
}

void
addLedgerAndCrypto(Observed &o, const fault::FaultInjector *inj,
                   const crypto::CryptoTotals &t)
{
    if (inj != nullptr) {
        o.injected = inj->injectedTotal();
        o.detected = inj->detectedTotal();
        o.recovered = inj->recoveredTotal();
        o.unrecovered = inj->unrecoveredTotal();
    }
    o.aesBlocks = t.aesBlocks;
    o.ctrBytes = t.ctrBytes;
    o.macTags = t.macTags;
}

Observed
observeSplit(bool faults)
{
    // A small stash keeps background evictions in play.
    SplitOram::Params p = smallParams(2, 7);
    p.tree.stashCapacity = 6;
    SplitOram oram(p, 0x5b1);
    fault::FaultInjector inj(goldenFaultPlan());
    if (faults)
        oram.setFaultInjector(&inj);
    Observed o;
    o.readHash = runGoldenWorkload(
        oram.capacityBlocks(),
        [&](Addr a, oram::OramOp op, const BlockData *d) {
            return oram.access(a, op, d);
        });
    addStats(o, oram);
    crypto::CryptoTotals t;
    oram.collectCrypto(t);
    addLedgerAndCrypto(o, faults ? &inj : nullptr, t);
    return o;
}

Observed
observeIndepSplit(bool faults)
{
    IndepSplitOram::Params p;
    p.perGroupTree.levels = 6;
    p.perGroupTree.stashCapacity = 6;
    p.groups = 2;
    p.slicesPerGroup = 2;
    IndepSplitOram oram(p, 0x1d5);
    fault::FaultInjector inj(goldenFaultPlan());
    if (faults)
        oram.setFaultInjector(&inj);
    Observed o;
    o.readHash = runGoldenWorkload(
        oram.capacityBlocks(),
        [&](Addr a, oram::OramOp op, const BlockData *d) {
            return oram.access(a, op, d);
        });
    for (unsigned g = 0; g < oram.groups(); ++g)
        addStats(o, oram.group(g));
    crypto::CryptoTotals t;
    oram.collectCrypto(t);
    addLedgerAndCrypto(o, faults ? &inj : nullptr, t);
    return o;
}

TEST(SplitGolden, SplitPlain)
{
    const Observed want{3602697160052797855ull, 4208896, 7497600, 20, 1,
                        0, 0, 0, 0,
                        1739727, 10844224, 96542};
    EXPECT_EQ(observeSplit(false), want);
}

TEST(SplitGolden, SplitUnderFaults)
{
    const Observed want{3602697160052797855ull, 4291448, 7497600, 20, 1,
                        2079, 2079, 2079, 0,
                        1751024, 10844224, 97569};
    EXPECT_EQ(observeSplit(true), want);
}

TEST(SplitGolden, IndepSplitPlain)
{
    const Observed want{3602697160052797855ull, 3792672, 6685184, 21, 59,
                        0, 0, 0, 0,
                        1553938, 9698816, 86160};
    EXPECT_EQ(observeIndepSplit(false), want);
}

TEST(SplitGolden, IndepSplitUnderFaults)
{
    const Observed want{3602697160052797855ull, 3870056, 6685184, 21, 59,
                        2045, 2045, 2045, 0,
                        1563783, 9698816, 87055};
    EXPECT_EQ(observeIndepSplit(true), want);
}

} // namespace
} // namespace secdimm::sdimm
