/**
 * @file
 * block_indepsplit: serve::ShardedSecureMemory with four shards on
 * Protocol::IndepSplit (Fig 7e: two groups of 2-way Split per shard),
 * 64 MiB in total.  One client thread keeps a fixed window of async
 * submitRead/submitWrite requests in flight, 50/50, at uniform block
 * addresses, and checks every read against a shadow copy.
 *
 * Traced stages, one layer lower each:
 *   serve  the workload itself (request spans, counter deltas)
 *   core   SecureMemorySystem::readBlock/writeBlock on one shard-sized
 *          IndepSplit instance (1 thread); its self time is the sdimm
 *          protocol's work outside crypto
 *   crypto CtrCipher/Pmmac with the per-access counts the serve stage
 *          measured
 */

#include <cstdio>
#include <deque>
#include <future>
#include <memory>

#include "bench.hh"
#include "serve/sharded_memory.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

using namespace secdimm;

constexpr unsigned kShards = 4;
constexpr unsigned kSetups = 3;
constexpr unsigned kWindows = 30;
/** Requests in flight: two per shard, so each worker has its next
 *  request queued while the latency stays one or two accesses deep. */
constexpr unsigned kWindow = 8;
/** Longest the client waits before looking at every request again. */
constexpr std::chrono::microseconds kPoll{50};

serve::ShardedSecureMemory::Options
serviceOptions(std::uint64_t seed)
{
    serve::ShardedSecureMemory::Options o;
    o.shard.protocol = core::SecureMemorySystem::Protocol::IndepSplit;
    o.shard.capacityBytes = 64ULL << 20;
    o.shard.numSdimms = 2;
    o.shard.slicesPerGroup = 2;
    o.shard.seed = seed;
    o.numShards = kShards;
    return o;
}

/** Contents of @p block after its @p version-th write (0 = never
 *  written, which reads as zeros). */
BlockData
contents(Addr block, std::uint32_t version)
{
    BlockData d{};
    if (version == 0)
        return d;
    std::uint64_t h = block * 0x9e3779b97f4a7c15ULL + version;
    for (std::size_t i = 0; i < d.size(); ++i) {
        if (i % 8 == 0)
            h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9ULL;
        d[i] = static_cast<std::uint8_t>(h >> ((i % 8) * 8));
    }
    return d;
}

/** What the client saw during one measured phase. */
struct Phase
{
    explicit Phase(double seconds)
    {
        // Room for 100k requests/s, so the sample log grows with the
        // work done and not by doubling.
        ops.reserve(static_cast<std::size_t>(seconds * 1e5));
    }
    std::vector<OpSample> ops;
    std::uint64_t attempted = 0, failed = 0, mismatches = 0;
};

/**
 * Keep kWindow requests in flight for @p seconds.  The client waits
 * on the oldest request for at most kPoll, then collects every request
 * that is ready and refills the window; a request is timed from submit
 * until the client sees it ready, so within kPoll of completion.
 */
void
runWindow(serve::ShardedSecureMemory &svc,
          std::vector<std::uint32_t> &shadow, Rng &rng, double seconds,
          SpanLog *log, Phase &out)
{
    struct InFlight
    {
        Addr block;
        bool write;
        std::uint32_t version; ///< Written, or expected by a read.
        Clock::time_point submitted;
        std::future<BlockData> read;
        std::future<void> written;
        bool waitFor(std::chrono::microseconds d) const
        {
            return (write ? written.wait_for(d) : read.wait_for(d)) ==
                   std::future_status::ready;
        }
        bool ready() const { return waitFor(std::chrono::microseconds(0)); }
    };
    std::deque<InFlight> inflight;
    std::vector<Span> spans;
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration<double>(seconds);
    auto submit = [&] {
        InFlight f;
        f.block = rng.nextBelow(shadow.size());
        f.write = rng.nextBool(0.5);
        if (f.write)
            f.version = ++shadow[f.block];
        else
            f.version = shadow[f.block];
        ++out.attempted;
        f.submitted = Clock::now();
        if (f.write)
            f.written =
                svc.submitWrite(f.block, contents(f.block, f.version));
        else
            f.read = svc.submitRead(f.block);
        inflight.push_back(std::move(f));
    };
    auto complete = [&](InFlight &f, Clock::time_point now) {
        try {
            if (f.write) {
                f.written.get();
            } else if (f.read.get() != contents(f.block, f.version)) {
                ++out.failed;
                ++out.mismatches;
                return;
            }
        } catch (const std::exception &) {
            ++out.failed;
            return;
        }
        out.ops.push_back({static_cast<float>(secondsBetween(t0, now)),
                           static_cast<float>(usBetween(f.submitted, now)),
                           f.write});
        if (log != nullptr)
            spans.push_back({f.write ? "serve.write" : "serve.read",
                             log->newId(), 0, f.submitted, now});
    };

    while (Clock::now() < end) {
        while (inflight.size() < kWindow)
            submit();
        inflight.front().waitFor(kPoll);
        const auto now = Clock::now();
        for (auto it = inflight.begin(); it != inflight.end();) {
            if (it->ready()) {
                complete(*it, now);
                it = inflight.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &f : inflight) {
        // Settle the tail; it is outside the measured window.
        try {
            if (f.write)
                f.written.get();
            else if (f.read.get() != contents(f.block, f.version)) {
                ++out.mismatches;
                ++out.failed;
            }
        } catch (const std::exception &) {
            ++out.failed;
        }
    }
    if (log != nullptr)
        log->absorb(spans);
}

void
tally(const Phase &p, Report &report)
{
    report.attempted += p.attempted;
    report.failed += p.failed;
    if (p.mismatches != 0)
        report.note(std::to_string(p.mismatches) +
                    " block reads did not match the shadow copy");
}

} // namespace

void
runBlockIndepSplit(const Args &args, Report &report)
{
    const auto opt = serviceOptions(args.seed);
    std::unique_ptr<serve::ShardedSecureMemory> svc;
    const double setup_s = measureSetup(
        args.trace ? 1 : kSetups,
        [&] { svc = std::make_unique<serve::ShardedSecureMemory>(opt); },
        report);
    std::vector<std::uint32_t> shadow(svc->capacityBlocks(), 0);
    Rng rng(args.seed * 1000003 + 11);
    report.note("block: " + std::to_string(svc->capacityBytes() >> 20) +
                " MiB over " + std::to_string(kShards) +
                " IndepSplit shards, window " + std::to_string(kWindow));
    Phase warm(kWarmupS);
    runWindow(*svc, shadow, rng, kWarmupS, nullptr, warm);
    tally(warm, report);

    if (!args.trace) {
        Phase p(args.seconds);
        runWindow(*svc, shadow, rng, args.seconds, nullptr, p);
        tally(p, report);
        if (!svc->integrityOk())
            report.fail("block: service integrity check failed");
        reportPhase(p.ops, args.seconds, kWindows,
                    {"block_accesses_per_s", "block_read", "block_write"},
                    report);
        report.e2e("setup_s", setup_s, "s");
        return;
    }

    // Traced run: alternate short untraced and traced phases.
    constexpr int kRounds = 4;
    const double slice = args.seconds / (2 * kRounds);
    double untraced_n = 0, traced_n = 0, traced_us = 0;
    const util::MetricsRegistry before = svc->metrics();
    const double cpu0 = cpuSeconds();
    const auto wall0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
        Phase u(slice);
        runWindow(*svc, shadow, rng, slice, nullptr, u);
        tally(u, report);
        untraced_n += static_cast<double>(u.ops.size());

        Phase t(slice);
        runWindow(*svc, shadow, rng, slice, &report.spans, t);
        tally(t, report);
        traced_n += static_cast<double>(t.ops.size());
        traced_us += meanUs(t.ops) * static_cast<double>(t.ops.size());
    }
    const double cores_busy = ratio(cpuSeconds() - cpu0,
                                    secondsBetween(wall0, Clock::now()));
    const util::MetricsRegistry after = svc->metrics();
    if (!svc->integrityOk())
        report.fail("block: service integrity check failed");
    svc.reset();

    const Delta d(before, after);
    const double requests = d.counter("serve.requests");
    const double request_us = ratio(traced_us, traced_n);

    const double core_us = runCoreStage(
        serve::ShardedSecureMemory::shardOptions(opt, 0), args.seed,
        args.seconds / 4, report.spans, report);
    const double crypto_us = runCryptoStage(d, args.seconds / 8, report);
    reportServeCounts(d, report);
    runSimStage(args.seed, report);

    const double appends_dummy =
        d.counter("sdimm.indep_split.appends_dummy");
    const double appends_real = d.counter("sdimm.indep_split.appends_real");
    // A request's blocking path is its own access plus the accesses
    // queued ahead of it on its shard: kWindow / kShards accesses when
    // the load is even and every worker stays busy.
    const double accounted = kWindow / double(kShards) * core_us;

    report.layer("serve.request_us", request_us, "us");
    report.layer("serve.queue_wait_us", request_us - core_us, "us");
    report.layer("cpu_cores_busy", cores_busy, "cores");
    report.layer("core.access_us", core_us, "us");
    report.layer("core.self_us", core_us - crypto_us, "us");
    report.layer("sdimm.channel_bytes_per_access",
                 ratio(d.counterSum("sdimm.indep_split.g", ".channel_bytes"),
                       requests),
                 "B");
    report.layer("sdimm.local_bytes_per_access",
                 ratio(d.counterSum("sdimm.indep_split.g", ".local_bytes"),
                       requests),
                 "B");
    report.layer("sdimm.append_dummy_ratio",
                 ratio(appends_dummy, appends_dummy + appends_real),
                 "ratio");
    report.layer("unattributed_ratio", 1.0 - ratio(accounted, request_us),
                 "ratio");
    report.layer("tracing_overhead_ratio",
                 ratio(untraced_n, traced_n) - 1.0, "ratio");
}

} // namespace perfbench
