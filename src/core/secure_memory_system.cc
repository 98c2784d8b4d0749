#include "core/secure_memory_system.hh"

#include <cstring>

#include "fault/fault_injector.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"
#include "verify/channel_observer.hh"

namespace secdimm::core
{

namespace
{

/** Tree depth whose ~50%-utilized capacity covers @p blocks. */
unsigned
levelsForBlocks(std::uint64_t blocks, unsigned z)
{
    // capacity = z * 2^L / 2  =>  L = ceil(log2(2 * blocks / z)).
    unsigned levels = 2;
    while ((static_cast<std::uint64_t>(z) << levels) / 2 < blocks)
        ++levels;
    return levels;
}

} // namespace

SecureMemorySystem::SecureMemorySystem(const Options &options)
    : options_(options),
      audits_(verify::AuditSettings::fromEnv(options.audits))
{
    const std::uint64_t want_blocks =
        divCeil(options.capacityBytes, blockBytes);
    SD_ASSERT(want_blocks >= 1);

    oram::OramParams params;
    params.stashCapacity = options.stashCapacity;

    switch (options_.protocol) {
      case Protocol::PathOram: {
        params.levels = levelsForBlocks(want_blocks, params.bucketBlocks);
        pathOram_ = std::make_unique<oram::PathOram>(
            params, crypto::makeKey(0xdeed, options.seed),
            crypto::makeKey(0xfeed, options.seed * 3 + 1),
            options.seed);
        capacityBlocks_ = params.capacityBlocks();
        break;
      }
      case Protocol::Freecursive: {
        oram::RecursiveOram::Params rp;
        rp.data = params;
        rp.data.levels =
            levelsForBlocks(want_blocks, params.bucketBlocks);
        recursive_ = std::make_unique<oram::RecursiveOram>(
            rp, options.seed);
        capacityBlocks_ = recursive_->capacityBlocks();
        break;
      }
      case Protocol::Independent: {
        SD_ASSERT(isPowerOfTwo(options_.numSdimms));
        const std::uint64_t per_sdimm =
            divCeil(want_blocks, options_.numSdimms);
        params.levels =
            levelsForBlocks(per_sdimm, params.bucketBlocks);
        sdimm::IndependentOram::Params ip;
        ip.perSdimm = params;
        ip.numSdimms = options_.numSdimms;
        independent_ =
            std::make_unique<sdimm::IndependentOram>(ip, options.seed);
        capacityBlocks_ = independent_->capacityBlocks();
        break;
      }
      case Protocol::Split: {
        SD_ASSERT(blockBytes % options_.numSdimms == 0);
        params.levels = levelsForBlocks(want_blocks, params.bucketBlocks);
        sdimm::SplitOram::Params sp;
        sp.tree = params;
        sp.slices = options_.numSdimms;
        split_ = std::make_unique<sdimm::SplitOram>(sp, options.seed);
        capacityBlocks_ = split_->capacityBlocks();
        break;
      }
      case Protocol::IndepSplit: {
        SD_ASSERT(isPowerOfTwo(options_.numSdimms));
        SD_ASSERT(blockBytes % options_.slicesPerGroup == 0);
        const std::uint64_t per_group =
            divCeil(want_blocks, options_.numSdimms);
        params.levels =
            levelsForBlocks(per_group, params.bucketBlocks);
        sdimm::IndepSplitOram::Params cp;
        cp.perGroupTree = params;
        cp.groups = options_.numSdimms;
        cp.slicesPerGroup = options_.slicesPerGroup;
        indepSplit_ =
            std::make_unique<sdimm::IndepSplitOram>(cp, options.seed);
        capacityBlocks_ = indepSplit_->capacityBlocks();
        break;
      }
    }

    if (options_.faultPlan.enabled()) {
        injector_ =
            std::make_unique<fault::FaultInjector>(options_.faultPlan);
        switch (options_.protocol) {
          case Protocol::PathOram:
            pathOram_->setFaultInjector(injector_.get());
            break;
          case Protocol::Freecursive:
            recursive_->setFaultInjector(injector_.get());
            break;
          case Protocol::Independent:
            independent_->setFaultInjector(injector_.get(),
                                           options_.degradationPolicy);
            break;
          case Protocol::Split:
            split_->setFaultInjector(injector_.get());
            break;
          case Protocol::IndepSplit:
            indepSplit_->setFaultInjector(injector_.get(),
                                          options_.degradationPolicy);
            break;
        }
    }
}

SecureMemorySystem::~SecureMemorySystem() = default;

std::uint64_t
SecureMemorySystem::capacityBytes() const
{
    return capacityBlocks_ * blockBytes;
}

BlockData
SecureMemorySystem::accessBlock(Addr block_index, const BlockData *replace)
{
    if (block_index >= capacityBlocks_) {
        fatal("SecureMemorySystem: block %llu out of range (capacity "
              "%llu blocks)",
              static_cast<unsigned long long>(block_index),
              static_cast<unsigned long long>(capacityBlocks_));
    }
    const oram::OramOp op =
        replace != nullptr ? oram::OramOp::Write : oram::OramOp::Read;
    BlockData result{};
    switch (options_.protocol) {
      case Protocol::PathOram:
        result = pathOram_->access(block_index, op, replace);
        break;
      case Protocol::Freecursive:
        result = recursive_->access(block_index, op, replace);
        break;
      case Protocol::Independent:
        result = independent_->access(block_index, op, replace);
        break;
      case Protocol::Split:
        result = split_->access(block_index, op, replace);
        break;
      case Protocol::IndepSplit:
        result = indepSplit_->access(block_index, op, replace);
        break;
    }
    clearTraces();
    if (audits_.enabled && ++accessesSinceAudit_ >= audits_.interval) {
        accessesSinceAudit_ = 0;
        const verify::AuditReport report = auditNow();
        ++auditsRun_;
        auditViolations_ += report.violations.size();
        if (!report.ok()) {
            fatal("SecureMemorySystem invariant audit failed: %s",
                  report.summary().c_str());
        }
    }
    return result;
}

void
SecureMemorySystem::clearTraces()
{
    switch (options_.protocol) {
      case Protocol::PathOram:
        pathOram_->clearLeafTrace();
        break;
      case Protocol::Freecursive:
        for (unsigned t = 0; t <= recursive_->posmapLevels(); ++t)
            recursive_->tree(t).clearLeafTrace();
        break;
      case Protocol::Independent:
        independent_->clearBusTrace();
        for (unsigned i = 0; i < independent_->numSdimms(); ++i)
            independent_->buffer(i).oram().clearLeafTrace();
        break;
      case Protocol::Split:
        split_->clearLeafTrace();
        break;
      case Protocol::IndepSplit:
        indepSplit_->clearBusTrace();
        for (unsigned g = 0; g < indepSplit_->groups(); ++g)
            indepSplit_->group(g).clearLeafTrace();
        break;
    }
}

BlockData
SecureMemorySystem::readBlock(Addr block_index)
{
    return accessBlock(block_index, nullptr);
}

void
SecureMemorySystem::writeBlock(Addr block_index, const BlockData &data)
{
    accessBlock(block_index, &data);
}

void
SecureMemorySystem::read(Addr byte_addr, void *out, std::size_t len)
{
    std::uint8_t *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        const Addr block = byte_addr / blockBytes;
        const std::size_t off = byte_addr % blockBytes;
        const std::size_t n = std::min(len, blockBytes - off);
        const BlockData b = readBlock(block);
        std::memcpy(dst, b.data() + off, n);
        dst += n;
        byte_addr += n;
        len -= n;
    }
}

void
SecureMemorySystem::write(Addr byte_addr, const void *data,
                          std::size_t len)
{
    const std::uint8_t *src = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        const Addr block = byte_addr / blockBytes;
        const std::size_t off = byte_addr % blockBytes;
        const std::size_t n = std::min(len, blockBytes - off);
        BlockData b{};
        if (off != 0 || n != blockBytes)
            b = readBlock(block); // Read-modify-write.
        std::memcpy(b.data() + off, src, n);
        writeBlock(block, b);
        src += n;
        byte_addr += n;
        len -= n;
    }
}

std::uint64_t
SecureMemorySystem::accessCount() const
{
    switch (options_.protocol) {
      case Protocol::PathOram:
        return pathOram_->stats().accesses +
               pathOram_->stats().dummyAccesses;
      case Protocol::Freecursive:
        return recursive_->stats().treeAccesses;
      case Protocol::Independent: {
        std::uint64_t total = 0;
        for (unsigned i = 0; i < independent_->numSdimms(); ++i)
            total += independent_->buffer(i).stats().accessOps;
        return total;
      }
      case Protocol::Split:
        return split_->stats().accesses + split_->stats().dummyAccesses;
      case Protocol::IndepSplit: {
        std::uint64_t total = 0;
        for (unsigned g = 0; g < indepSplit_->groups(); ++g) {
            total += indepSplit_->group(g).stats().accesses +
                     indepSplit_->group(g).stats().dummyAccesses;
        }
        return total;
      }
    }
    return 0;
}

verify::AuditReport
SecureMemorySystem::auditNow() const
{
    switch (options_.protocol) {
      case Protocol::PathOram:
        // Driven via access(): the internal PosMap is authoritative.
        return verify::auditPathOram(*pathOram_, /*check_posmap=*/true);
      case Protocol::Freecursive:
        return verify::auditRecursiveOram(*recursive_);
      case Protocol::Independent:
        return verify::auditIndependentOram(*independent_);
      case Protocol::Split:
        return verify::auditSplitOram(*split_, /*check_posmap=*/true);
      case Protocol::IndepSplit:
        return verify::auditIndepSplitOram(*indepSplit_);
    }
    return verify::AuditReport{};
}

unsigned
SecureMemorySystem::attachObserver(verify::ChannelObserver &observer)
{
    switch (options_.protocol) {
      case Protocol::PathOram:
        observer.attach(pathOram_->store());
        return 1;
      case Protocol::Freecursive: {
        const unsigned trees = recursive_->posmapLevels() + 1;
        for (unsigned t = 0; t < trees; ++t)
            observer.attach(recursive_->tree(t).store());
        return trees;
      }
      case Protocol::Independent:
      case Protocol::Split:
      case Protocol::IndepSplit:
        return 0; // Visible trace exposed via busTrace()/leafTrace().
    }
    return 0;
}

util::MetricsRegistry
SecureMemorySystem::metrics() const
{
    util::MetricsRegistry m;
    m.setCounter("core.accesses", accessCount());
    m.setCounter("core.capacity_blocks", capacityBlocks_);
    m.setCounter("core.audits_run", auditsRun_);
    m.setCounter("core.audit_violations", auditViolations_);
    switch (options_.protocol) {
      case Protocol::PathOram:
        pathOram_->exportMetrics(m, "oram.data");
        break;
      case Protocol::Freecursive:
        recursive_->exportMetrics(m, "oram");
        break;
      case Protocol::Independent:
        independent_->exportMetrics(m, "sdimm");
        break;
      case Protocol::Split:
        split_->exportMetrics(m, "sdimm.split");
        break;
      case Protocol::IndepSplit:
        indepSplit_->exportMetrics(m, "sdimm.indep_split");
        break;
    }
    // Aggregate crypto work across whichever backend is active (see
    // docs/METRICS.md "crypto.*").
    crypto::CryptoTotals ct;
    switch (options_.protocol) {
      case Protocol::PathOram:
        pathOram_->collectCrypto(ct);
        break;
      case Protocol::Freecursive:
        recursive_->collectCrypto(ct);
        break;
      case Protocol::Independent:
        independent_->collectCrypto(ct);
        break;
      case Protocol::Split:
        split_->collectCrypto(ct);
        break;
      case Protocol::IndepSplit:
        indepSplit_->collectCrypto(ct);
        break;
    }
    m.setGauge("crypto.impl_id",
               static_cast<double>(
                   static_cast<int>(crypto::activeAesImpl())));
    m.setCounter("crypto.aes_blocks", ct.aesBlocks);
    m.setCounter("crypto.ctr_bytes", ct.ctrBytes);
    m.setCounter("crypto.mac_tags", ct.macTags);
    m.setCounter("crypto.mac_batch_calls", ct.macBatchCalls);
    m.setCounter("crypto.mac_batch_tags", ct.macBatchTags);
    if (injector_)
        injector_->exportMetrics(m, "fault");
    return m;
}

bool
SecureMemorySystem::integrityOk() const
{
    switch (options_.protocol) {
      case Protocol::PathOram:
        return pathOram_->integrityOk();
      case Protocol::Freecursive:
        return recursive_->integrityOk();
      case Protocol::Independent:
        return independent_->integrityOk();
      case Protocol::Split:
        return split_->integrityOk();
      case Protocol::IndepSplit:
        return indepSplit_->integrityOk();
    }
    return false;
}

} // namespace secdimm::core
