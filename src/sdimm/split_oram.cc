#include "sdimm/split_oram.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <sstream>
#include <unordered_set>

#include "fault/fault_injector.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"

namespace secdimm::sdimm
{

namespace
{

/** Write (addr, leaf) into slot @p i of a bucket's metadata. */
void
putMeta(std::span<std::uint8_t> meta, std::size_t i, Addr a, LeafId l)
{
    std::memcpy(meta.data() + 16 * i, &a, 8);
    std::memcpy(meta.data() + 16 * i + 8, &l, 8);
}

/** Bounds-checked (under _GLIBCXX_ASSERTIONS) window of an arena. */
template <typename Arena>
auto
window(Arena &arena, std::size_t offset, std::size_t len)
{
    return std::span(arena).subspan(offset, len);
}

/** MAC identity of slice @p j of bucket @p seq. */
std::uint64_t
sliceId(std::uint64_t seq, unsigned j)
{
    return seq | (static_cast<std::uint64_t>(j) << 56);
}

/** Path ORAM eviction depth: the deepest level at which the paths to
 *  leaves @p a and @p b still share a bucket. */
int
deepestShared(LeafId a, LeafId b, unsigned levels)
{
    return static_cast<int>(levels) -
           static_cast<int>(std::bit_width(a ^ b));
}

} // namespace

void
extractShare(std::span<const std::uint8_t> full, unsigned slice,
             unsigned s, std::span<std::uint8_t> share)
{
    SD_ASSERT(share.size() == shareBytes(full.size(), slice, s));
    for (std::size_t k = 0, i = slice; k < share.size(); ++k, i += s)
        share[k] = full[i];
}

void
mergeShare(std::span<std::uint8_t> full,
           std::span<const std::uint8_t> share, unsigned slice,
           unsigned s)
{
    SD_ASSERT(share.size() == shareBytes(full.size(), slice, s));
    for (std::size_t k = 0, i = slice; k < share.size(); ++k, i += s)
        full[i] = share[k];
}

SplitOram::SplitOram(const Params &params, std::uint64_t seed)
    : params_(params),
      layout_(params.tree.levels, params.tree.linesPerBucket()),
      cipher_(crypto::makeKey(0x5b117 ^ seed, 0xe17c ^ (seed << 1))),
      mac_(crypto::makeKey(0x3ac5 ^ seed, 0x91b2 ^ (seed << 2))),
      rng_(seed),
      slices_(params.slices),
      posMap_(params.tree.capacityBlocks())
{
    const unsigned s = params_.slices;
    const unsigned z = params_.tree.bucketBlocks;
    SD_ASSERT(s >= 1);
    SD_ASSERT(blockBytes % s == 0);
    SD_ASSERT((static_cast<std::size_t>(z) * 16) % s == 0);
    const std::uint64_t buckets = params_.tree.numBuckets();
    metaShareBytes_ = static_cast<std::size_t>(z) * 16 / s;
    dataShareBytes_ = blockBytes / s;
    bucketShareBytes_ = metaShareBytes_ + z * dataShareBytes_;

    const std::size_t path_len = params_.tree.levels + 1;
    path_.resize(path_len);
    macOk_ = std::make_unique<bool[]>(path_len * s);
    metaBuf_.resize(static_cast<std::size_t>(z) * 16);
    macScratch_.resize(bucketShareBytes_);

    for (auto &leaf : posMap_)
        leaf = rng_.nextBelow(params_.tree.numLeaves());

    // Initialize every bucket empty (counter 1).
    const std::uint64_t ctr = 1;
    for (auto &sl : slices_) {
        sl.tree.resize(buckets * bucketShareBytes_);
        sl.counter.assign(buckets, ctr);
        sl.mac.assign(buckets, 0);
    }
    for (std::uint64_t seq = 0; seq < buckets; ++seq) {
        for (unsigned slot = 0; slot < z; ++slot)
            putMeta(metaBuf_, slot, invalidAddr, invalidLeaf);
        cipher_.transformBuffer(metaBuf_.data(), metaBuf_.size(),
                                metaNonce(seq), ctr);
        for (unsigned j = 0; j < s; ++j) {
            extractShare(metaBuf_, j, s,
                         window(slices_[j].tree, metaOffset(seq),
                                metaShareBytes_));
        }
        for (unsigned slot = 0; slot < z; ++slot) {
            BlockData zero{};
            cipher_.transformBuffer(zero.data(), blockBytes,
                                    dataNonce(seq, slot), ctr);
            for (unsigned j = 0; j < s; ++j) {
                extractShare(zero, j, s,
                             window(slices_[j].tree, dataOffset(seq, slot),
                                    dataShareBytes_));
            }
        }
    }
    // Tag the fresh tree in 256-bucket batches: one batch per chunk
    // keeps the batch scratch small even for million-bucket trees.
    constexpr std::uint64_t kTagChunk = 256;
    std::vector<std::uint64_t> chunk;
    for (std::uint64_t first = 0; first < buckets; first += kTagChunk) {
        chunk.clear();
        for (std::uint64_t seq = first;
             seq < std::min(buckets, first + kTagChunk); ++seq)
            chunk.push_back(seq);
        tagBuckets(chunk);
    }
}

std::uint64_t
SplitOram::metaNonce(std::uint64_t seq) const
{
    return (seq << 6) | (std::uint64_t{1} << 62);
}

std::uint64_t
SplitOram::dataNonce(std::uint64_t seq, unsigned slot) const
{
    return (seq << 6) | slot | (std::uint64_t{1} << 61);
}

void
SplitOram::loadPath(LeafId leaf)
{
    for (unsigned level = 0; level <= params_.tree.levels; ++level) {
        path_[level] = layout_.bucketSeq(
            oram::pathBucket(leaf, level, params_.tree.levels));
    }
}

void
SplitOram::stageSliceMacs(std::span<const std::uint64_t> seqs)
{
    const unsigned s = params_.slices;
    macItems_.resize(seqs.size() * s);
    for (std::size_t b = 0; b < seqs.size(); ++b) {
        for (unsigned j = 0; j < s; ++j) {
            const Slice &sl = slices_[j];
            macItems_[b * s + j] = crypto::PmmacItem{
                sliceId(seqs[b], j), sl.counter[seqs[b]],
                window(sl.tree, metaOffset(seqs[b]), bucketShareBytes_)
                    .data(),
                bucketShareBytes_};
        }
    }
}

void
SplitOram::tagBuckets(std::span<const std::uint64_t> seqs)
{
    const unsigned s = params_.slices;
    stageSliceMacs(seqs);
    macTags_.resize(macItems_.size());
    mac_.tagBatch(macItems_.data(), macItems_.size(), macTags_.data());
    for (std::size_t i = 0; i < macItems_.size(); ++i)
        slices_[i % s].mac[seqs[i / s]] = macTags_[i];
}

bool
SplitOram::fetchAndVerifySlice(unsigned j, std::uint64_t seq,
                               bool stored_ok)
{
    if (!injector_ || !injector_->rollDramBitFlip())
        return stored_ok;
    const Slice &sl = slices_[j];
    const auto image =
        window(sl.tree, metaOffset(seq), bucketShareBytes_);
    std::copy(image.begin(), image.end(), macScratch_.begin());
    injector_->corruptBuffer(macScratch_.data(), macScratch_.size());
    return mac_.verify(sliceId(seq, j), sl.counter[seq],
                       macScratch_.data(), macScratch_.size(),
                       sl.mac[seq]);
}

void
SplitOram::transferChannel(std::size_t bytes, const char *site)
{
    stats_.channelBytes += bytes;
    if (!injector_)
        return;
    unsigned attempts = 0;
    for (;;) {
        const fault::WireOutcome w = injector_->rollLinkFault();
        if (w == fault::WireOutcome::Delivered)
            return;
        if (w == fault::WireOutcome::Delayed) {
            // Absorbed by the frontend's polling; no re-send needed.
            injector_->recordDetected(fault::FaultKind::LinkDelay);
            injector_->recordRecovered(fault::FaultKind::LinkDelay,
                                       site, 1);
            return;
        }
        const fault::FaultKind kind = w == fault::WireOutcome::Corrupted
                                          ? fault::FaultKind::LinkCorrupt
                                          : fault::FaultKind::LinkDrop;
        injector_->recordDetected(kind);
        if (attempts >= injector_->maxRetries()) {
            injector_->recordUnrecovered(kind, site, attempts);
            ++stats_.integrityFailures;
            return;
        }
        ++attempts;
        injector_->recordRecovered(kind, site, 1);
        stats_.channelBytes += bytes; // The re-sent copy.
    }
}

std::size_t
SplitOram::allocStashSlot()
{
    std::size_t idx;
    if (!freeSlots_.empty()) {
        idx = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        idx = stashSlots_++;
        for (auto &sl : slices_) {
            sl.stash.resize(stashSlots_ * dataShareBytes_);
            sl.held.resize(stashSlots_);
        }
    }
    for (auto &sl : slices_)
        sl.held[idx] = true;
    return idx;
}

void
SplitOram::freeStashSlot(std::size_t idx)
{
    for (auto &sl : slices_)
        sl.held[idx] = false;
    freeSlots_.push_back(idx);
}

void
SplitOram::readPath(LeafId leaf)
{
    const unsigned z = params_.tree.bucketBlocks;
    const unsigned s = params_.slices;
    loadPath(leaf);

    // Every SDIMM checks the stored slice MACs of the whole path in
    // one batched pass; the per-slice FETCH_DATA below then only
    // re-checks an image that was bit-flipped in flight.
    stageSliceMacs(path_);
    macTags_.resize(macItems_.size());
    for (std::size_t i = 0; i < macItems_.size(); ++i)
        macTags_[i] = slices_[i % s].mac[path_[i / s]];
    mac_.verifyBatch(macItems_.data(), macItems_.size(), macTags_.data(),
                     macOk_.get());

    for (unsigned level = 0; level <= params_.tree.levels; ++level) {
        const std::uint64_t seq = path_[level];

        // Each SDIMM verifies its slice MAC (FETCH_DATA step).  With
        // an injector armed the fetched image may carry a transient
        // bit flip; the MAC catches it and the slice is re-fetched
        // from the (intact) stored share up to the retry budget.
        for (unsigned j = 0; j < s; ++j) {
            const bool stored_ok = macOk_[level * s + j];
            bool ok = fetchAndVerifySlice(j, seq, stored_ok);
            if (injector_ && !ok) {
                // Same ledger convention as transferChannel(): one
                // detection per failed verify, one recovery per
                // granted re-fetch (a re-fetch that flips again is a
                // NEW fault), so detected == recovered + unrecovered.
                unsigned attempts = 0;
                for (;;) {
                    injector_->recordDetected(
                        fault::FaultKind::DramBitFlip);
                    if (attempts >= injector_->maxRetries()) {
                        injector_->recordUnrecovered(
                            fault::FaultKind::DramBitFlip,
                            "split.fetch_data", attempts);
                        break;
                    }
                    ++attempts;
                    injector_->recordRecovered(
                        fault::FaultKind::DramBitFlip,
                        "split.fetch_data", 1);
                    ok = fetchAndVerifySlice(j, seq, stored_ok);
                    if (ok)
                        break;
                }
            }
            if (!ok)
                ++stats_.integrityFailures;
        }

        // Reassemble counter and metadata at the CPU.
        const std::uint64_t ctr = slices_[0].counter[seq];
        for (unsigned j = 1; j < s; ++j)
            SD_ASSERT(slices_[j].counter[seq] == ctr);

        for (unsigned j = 0; j < s; ++j) {
            mergeShare(metaBuf_,
                       window(slices_[j].tree, metaOffset(seq),
                              metaShareBytes_),
                       j, s);
        }
        transferChannel(metaBuf_.size() + 8,
                        "split.fetch_data.meta"); // meta + ctr.
        cipher_.transformBuffer(metaBuf_.data(), metaBuf_.size(),
                                metaNonce(seq), ctr);

        // Data pieces move into the slice stashes (local traffic).
        for (unsigned slot = 0; slot < z; ++slot) {
            Addr a;
            LeafId l;
            std::memcpy(&a, metaBuf_.data() + 16 * slot, 8);
            std::memcpy(&l, metaBuf_.data() + 16 * slot + 8, 8);
            if (a == invalidAddr)
                continue;
            SD_ASSERT(shadow_.find(a) == shadow_.end());
            const std::size_t idx = allocStashSlot();
            for (auto &sl : slices_) {
                const auto src =
                    window(sl.tree, dataOffset(seq, slot), dataShareBytes_);
                std::copy(src.begin(), src.end(),
                          window(sl.stash, idx * dataShareBytes_,
                                 dataShareBytes_)
                              .begin());
            }
            stats_.localBytes += blockBytes;
            ShadowEntry e;
            e.leaf = l;
            e.cpuResident = false;
            e.stashIdx = idx;
            e.srcSeq = seq;
            e.srcSlot = slot;
            e.srcCounter = ctr;
            shadow_.emplace(a, e);
        }
    }
    stats_.maxShadowStash =
        std::max(stats_.maxShadowStash, shadow_.size());
}

BlockData
SplitOram::fetchStash(const ShadowEntry &e)
{
    SD_ASSERT(!e.cpuResident);
    BlockData out{};
    for (unsigned j = 0; j < params_.slices; ++j) {
        const Slice &sl = slices_[j];
        SD_ASSERT(sl.held[e.stashIdx]);
        mergeShare(out,
                   window(sl.stash, e.stashIdx * dataShareBytes_,
                          dataShareBytes_),
                   j, params_.slices);
    }
    transferChannel(blockBytes, "split.fetch_stash");
    cipher_.transformBuffer(out.data(), blockBytes,
                            dataNonce(e.srcSeq, e.srcSlot), e.srcCounter);
    return out;
}

void
SplitOram::writePath(LeafId leaf)
{
    const unsigned z = params_.tree.bucketBlocks;
    const unsigned s = params_.slices;
    const unsigned L = params_.tree.levels;
    loadPath(leaf);

    // One pass over the shadow stash records each entry's deepest
    // eligible level, in iteration order: picking the first Z
    // candidates at each level then matches a per-level scan of
    // shadow_ (erasing an entry never reorders the others).
    evictOrder_.clear();
    for (auto it = shadow_.begin(); it != shadow_.end(); ++it)
        evictOrder_.push_back({it, deepestShared(it->second.leaf, leaf, L)});

    for (int level = static_cast<int>(L); level >= 0; --level) {
        const std::uint64_t seq = path_[static_cast<unsigned>(level)];

        // CPU: pick up to Z compatible shadow-stash blocks.
        chosen_.clear();
        for (auto &c : evictOrder_) {
            if (chosen_.size() == z)
                break;
            if (c.deepest < level)
                continue;
            chosen_.emplace_back(c.it->first, c.it->second);
            shadow_.erase(c.it);
            c.deepest = -1;
        }

        const std::uint64_t new_ctr = slices_[0].counter[seq] + 1;

        // CPU composes the new metadata and sends it in RECEIVE_LIST.
        for (unsigned slot = 0; slot < z; ++slot) {
            if (slot < chosen_.size())
                putMeta(metaBuf_, slot, chosen_[slot].first,
                        chosen_[slot].second.leaf);
            else
                putMeta(metaBuf_, slot, invalidAddr, invalidLeaf);
        }
        transferChannel(metaBuf_.size() + 8 + 4 * z, "split.receive_list");
        cipher_.transformBuffer(metaBuf_.data(), metaBuf_.size(),
                                metaNonce(seq), new_ctr);

        // Fill the bucket's data slots slice by slice.
        for (unsigned slot = 0; slot < z; ++slot) {
            if (slot < chosen_.size() && !chosen_[slot].second.cpuResident) {
                // Piece-resident block: each SDIMM re-encrypts its
                // share locally (old pad out, new pad in).
                const ShadowEntry &e = chosen_[slot].second;
                BlockData old_pad{}, new_pad{};
                cipher_.transformBuffer(old_pad.data(), blockBytes,
                                        dataNonce(e.srcSeq, e.srcSlot),
                                        e.srcCounter);
                cipher_.transformBuffer(new_pad.data(), blockBytes,
                                        dataNonce(seq, slot), new_ctr);
                for (unsigned j = 0; j < s; ++j) {
                    Slice &sl = slices_[j];
                    SD_ASSERT(sl.held[e.stashIdx]);
                    const auto piece =
                        window(sl.stash, e.stashIdx * dataShareBytes_,
                               dataShareBytes_);
                    const auto share = window(
                        sl.tree, dataOffset(seq, slot), dataShareBytes_);
                    for (std::size_t k = 0; k < share.size(); ++k) {
                        const std::size_t gi = j + s * k;
                        share[k] = static_cast<std::uint8_t>(
                            piece[k] ^ old_pad[gi] ^ new_pad[gi]);
                    }
                }
                stats_.localBytes += blockBytes;
                freeStashSlot(e.stashIdx);
                continue;
            }
            // CPU-resident block: the CPU encrypts for the destination
            // and ships each slice its share.  Dummy slot: each SDIMM
            // writes its share of an encrypted zero block.
            const bool real = slot < chosen_.size();
            BlockData full{};
            if (real)
                full = chosen_[slot].second.data;
            cipher_.transformBuffer(full.data(), blockBytes,
                                    dataNonce(seq, slot), new_ctr);
            if (real)
                transferChannel(blockBytes, "split.receive_list");
            else
                stats_.localBytes += blockBytes;
            for (unsigned j = 0; j < s; ++j) {
                extractShare(full, j, s,
                             window(slices_[j].tree, dataOffset(seq, slot),
                                    dataShareBytes_));
            }
        }

        // Commit metadata and counter; the slice MACs follow for the
        // whole path at once.
        for (unsigned j = 0; j < s; ++j) {
            Slice &sl = slices_[j];
            extractShare(metaBuf_, j, s,
                         window(sl.tree, metaOffset(seq), metaShareBytes_));
            sl.counter[seq] = new_ctr;
        }
    }
    tagBuckets(path_);
}

BlockData
SplitOram::access(Addr addr, oram::OramOp op, const BlockData *new_data)
{
    SD_ASSERT(addr < posMap_.size());
    const LeafId leaf = posMap_[addr];
    const LeafId new_leaf = rng_.nextBelow(params_.tree.numLeaves());
    posMap_[addr] = new_leaf;
    return accessExplicit(addr, leaf, new_leaf, op, new_data);
}

BlockData
SplitOram::accessExplicit(Addr addr, LeafId old_leaf, LeafId new_leaf,
                          oram::OramOp op, const BlockData *new_data)
{
    SD_ASSERT(old_leaf < params_.tree.numLeaves());
    ++stats_.accesses;
    leafTrace_.push_back(old_leaf);

    readPath(old_leaf);

    const bool remove = new_leaf == invalidLeaf;
    auto it = shadow_.find(addr);
    BlockData old_value{};
    if (it == shadow_.end()) {
        if (!remove) {
            // Uninitialized block: materialize at the CPU.
            ShadowEntry e;
            e.leaf = new_leaf;
            e.cpuResident = true;
            it = shadow_.emplace(addr, e).first;
        }
    } else {
        ShadowEntry &e = it->second;
        if (!e.cpuResident) {
            old_value = fetchStash(e);
            freeStashSlot(e.stashIdx);
            e.cpuResident = true;
            e.data = old_value;
        } else {
            old_value = e.data;
        }
        e.leaf = new_leaf;
    }
    if (op == oram::OramOp::Write && it != shadow_.end() && !remove) {
        SD_ASSERT(new_data != nullptr);
        it->second.data = *new_data;
    }
    if (remove && it != shadow_.end())
        shadow_.erase(it);

    writePath(old_leaf);

    while (shadow_.size() > params_.tree.stashCapacity / 2)
        backgroundEvict();

    return old_value;
}

void
SplitOram::adoptBlock(Addr addr, LeafId leaf, const BlockData &data)
{
    SD_ASSERT(leaf < params_.tree.numLeaves());
    SD_ASSERT(shadow_.find(addr) == shadow_.end());
    ShadowEntry e;
    e.leaf = leaf;
    e.cpuResident = true;
    e.data = data;
    shadow_.emplace(addr, e);
    stats_.maxShadowStash =
        std::max(stats_.maxShadowStash, shadow_.size());
    while (shadow_.size() > params_.tree.stashCapacity / 2)
        backgroundEvict();
}

void
SplitOram::backgroundEvict()
{
    ++stats_.dummyAccesses;
    const LeafId leaf = rng_.nextBelow(params_.tree.numLeaves());
    leafTrace_.push_back(leaf);
    readPath(leaf);
    writePath(leaf);
}

std::vector<std::string>
SplitOram::auditInvariants(bool check_posmap,
                           std::uint64_t *checks_run) const
{
    std::vector<std::string> violations;
    std::uint64_t checks = 0;
    const auto fail = [&](const std::string &what) {
        violations.push_back(what);
    };
    const auto check = [&](bool ok, auto &&describe) {
        ++checks;
        if (!ok)
            fail(describe());
    };

    const unsigned z = params_.tree.bucketBlocks;
    const unsigned L = params_.tree.levels;
    const std::uint64_t buckets = params_.tree.numBuckets();

    // 1. Per-slice storage shape, replicated counters, slice MACs.
    for (unsigned j = 0; j < params_.slices; ++j) {
        const Slice &sl = slices_[j];
        check(sl.tree.size() == buckets * bucketShareBytes_ &&
                  sl.counter.size() == buckets && sl.mac.size() == buckets,
              [&] {
                  std::ostringstream os;
                  os << "slice " << j << ": storage arenas not sized to "
                     << buckets << " buckets";
                  return os.str();
              });
        check(sl.held.size() == stashSlots_ &&
                  sl.stash.size() == stashSlots_ * dataShareBytes_,
              [&] {
                  std::ostringstream os;
                  os << "slice " << j << ": stash has " << sl.held.size()
                     << " slots, allocator says " << stashSlots_;
                  return os.str();
              });
        for (std::uint64_t seq = 0; seq < buckets; ++seq) {
            check(sl.counter[seq] == slices_[0].counter[seq], [&] {
                std::ostringstream os;
                os << "bucket " << seq << ": slice " << j
                   << " counter diverges from slice 0";
                return os.str();
            });
            const auto image =
                window(sl.tree, metaOffset(seq), bucketShareBytes_);
            check(mac_.verify(sliceId(seq, j), sl.counter[seq],
                              image.data(), image.size(), sl.mac[seq]),
                  [&] {
                      std::ostringstream os;
                      os << "bucket " << seq << ": slice " << j
                         << " MAC mismatch (tampered or stale)";
                      return os.str();
                  });
        }
    }

    // 2. Decrypt every bucket's metadata and check placement: a real
    //    block stored at (level, index) must have a leaf whose path
    //    passes through that bucket, and no address may appear twice
    //    (tree or shadow stash).
    std::unordered_set<Addr> seen;
    std::vector<std::uint8_t> meta(static_cast<std::size_t>(z) * 16);
    for (unsigned level = 0; level <= L; ++level) {
        const std::uint64_t level_width = std::uint64_t{1} << level;
        for (std::uint64_t index = 0; index < level_width; ++index) {
            const oram::BucketPos pos{level, index};
            const std::uint64_t seq = layout_.bucketSeq(pos);
            for (unsigned j = 0; j < params_.slices; ++j)
                mergeShare(meta,
                           window(slices_[j].tree, metaOffset(seq),
                                  metaShareBytes_),
                           j, params_.slices);
            cipher_.transformBuffer(meta.data(), meta.size(),
                                    metaNonce(seq),
                                    slices_[0].counter[seq]);
            for (unsigned slot = 0; slot < z; ++slot) {
                Addr a;
                LeafId l;
                std::memcpy(&a, meta.data() + 16 * slot, 8);
                std::memcpy(&l, meta.data() + 16 * slot + 8, 8);
                if (a == invalidAddr)
                    continue;
                check(l < params_.tree.numLeaves(), [&] {
                    std::ostringstream os;
                    os << "bucket " << seq << " slot " << slot
                       << ": block " << a << " has leaf " << l
                       << " out of range";
                    return os.str();
                });
                check(l >= params_.tree.numLeaves() ||
                          oram::pathBucket(l, level, L).index == index,
                      [&] {
                          std::ostringstream os;
                          os << "bucket (" << level << "," << index
                             << "): block " << a << " leaf " << l
                             << " path does not pass through it";
                          return os.str();
                      });
                check(seen.insert(a).second, [&] {
                    std::ostringstream os;
                    os << "block " << a
                       << " stored twice in the tree";
                    return os.str();
                });
                if (check_posmap) {
                    check(a < posMap_.size() && posMap_[a] == l, [&] {
                        std::ostringstream os;
                        os << "block " << a << ": tree leaf " << l
                           << " disagrees with PosMap";
                        return os.str();
                    });
                }
            }
        }
    }

    // 3. Shadow stash: bounded, leaves in range, piece-resident
    //    entries backed by a piece in EVERY slice, no tree duplicate.
    check(shadow_.size() <= params_.tree.stashCapacity, [&] {
        std::ostringstream os;
        os << "shadow stash " << shadow_.size() << " exceeds capacity "
           << params_.tree.stashCapacity;
        return os.str();
    });
    std::unordered_set<std::size_t> referenced;
    for (const auto &kv : shadow_) {
        const Addr a = kv.first;
        const ShadowEntry &e = kv.second;
        check(e.leaf < params_.tree.numLeaves(), [&] {
            std::ostringstream os;
            os << "shadow block " << a << ": leaf " << e.leaf
               << " out of range";
            return os.str();
        });
        check(seen.insert(a).second, [&] {
            std::ostringstream os;
            os << "block " << a << " in both tree and shadow stash";
            return os.str();
        });
        if (check_posmap) {
            check(a < posMap_.size() && posMap_[a] == e.leaf, [&] {
                std::ostringstream os;
                os << "shadow block " << a << ": leaf " << e.leaf
                   << " disagrees with PosMap";
                return os.str();
            });
        }
        if (!e.cpuResident) {
            check(e.stashIdx < stashSlots_ &&
                      referenced.insert(e.stashIdx).second,
                  [&] {
                      std::ostringstream os;
                      os << "shadow block " << a
                         << ": bad or shared stash slot " << e.stashIdx;
                      return os.str();
                  });
            for (unsigned j = 0; j < params_.slices; ++j) {
                check(e.stashIdx < slices_[j].held.size() &&
                          slices_[j].held[e.stashIdx],
                      [&] {
                          std::ostringstream os;
                          os << "shadow block " << a << ": slice " << j
                             << " missing its stash piece";
                          return os.str();
                      });
            }
        }
    }

    // 4. Stash-slot allocator: every slot is either free or referenced
    //    by exactly one piece-resident shadow entry.
    for (std::size_t idx : freeSlots_) {
        check(idx < stashSlots_ && referenced.find(idx) == referenced.end(),
              [&] {
                  std::ostringstream os;
                  os << "stash slot " << idx << " both free and in use";
                  return os.str();
              });
    }
    check(referenced.size() + freeSlots_.size() == stashSlots_, [&] {
        std::ostringstream os;
        os << "stash slots leaked: " << referenced.size() << " in use + "
           << freeSlots_.size() << " free != " << stashSlots_;
        return os.str();
    });

    if (checks_run != nullptr)
        *checks_run += checks;
    return violations;
}

void
SplitOram::tamperSlice(unsigned slice, std::uint64_t bucket_seq,
                       unsigned slot, std::size_t byte_index)
{
    if (bucket_seq >= params_.tree.numBuckets() ||
        slot >= params_.tree.bucketBlocks || byte_index >= dataShareBytes_)
        throw std::out_of_range("SplitOram::tamperSlice: no such share byte");
    slices_.at(slice).tree.at(dataOffset(bucket_seq, slot) + byte_index) ^=
        0x01;
}

std::vector<std::pair<Addr, BlockData>>
SplitOram::residentBlocks() const
{
    std::vector<std::pair<Addr, BlockData>> out;
    const unsigned z = params_.tree.bucketBlocks;
    const unsigned s = params_.slices;
    const unsigned L = params_.tree.levels;
    std::vector<std::uint8_t> meta(static_cast<std::size_t>(z) * 16);
    for (unsigned level = 0; level <= L; ++level) {
        const std::uint64_t level_width = std::uint64_t{1} << level;
        for (std::uint64_t index = 0; index < level_width; ++index) {
            const std::uint64_t seq =
                layout_.bucketSeq({level, index});
            const std::uint64_t ctr = slices_[0].counter[seq];
            for (unsigned j = 0; j < s; ++j)
                mergeShare(meta,
                           window(slices_[j].tree, metaOffset(seq),
                                  metaShareBytes_),
                           j, s);
            cipher_.transformBuffer(meta.data(), meta.size(),
                                    metaNonce(seq), ctr);
            for (unsigned slot = 0; slot < z; ++slot) {
                Addr a;
                std::memcpy(&a, meta.data() + 16 * slot, 8);
                if (a == invalidAddr)
                    continue;
                BlockData d{};
                for (unsigned j = 0; j < s; ++j)
                    mergeShare(d,
                               window(slices_[j].tree,
                                      dataOffset(seq, slot),
                                      dataShareBytes_),
                               j, s);
                cipher_.transformBuffer(d.data(), blockBytes,
                                        dataNonce(seq, slot), ctr);
                out.emplace_back(a, d);
            }
        }
    }
    for (const auto &kv : shadow_) {
        const ShadowEntry &e = kv.second;
        if (e.cpuResident) {
            out.emplace_back(kv.first, e.data);
            continue;
        }
        BlockData d{};
        for (unsigned j = 0; j < s; ++j) {
            SD_ASSERT(slices_[j].held[e.stashIdx]);
            mergeShare(d,
                       window(slices_[j].stash,
                              e.stashIdx * dataShareBytes_,
                              dataShareBytes_),
                       j, s);
        }
        cipher_.transformBuffer(d.data(), blockBytes,
                                dataNonce(e.srcSeq, e.srcSlot),
                                e.srcCounter);
        out.emplace_back(kv.first, d);
    }
    return out;
}

} // namespace secdimm::sdimm
