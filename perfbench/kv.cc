/**
 * @file
 * kv_zipf: app::ObliviousKVStore over four Path ORAM shards, one
 * shared population of 20k keys, zipfian theta 0.99 with 80% gets (5%
 * of them to never-inserted keys), four closed-loop clients.
 *
 * Traced stages, one layer lower each:
 *   app    ObliviousKVStore::get/put                     (4 clients)
 *   serve  ShardedSecureMemory submitRead/submitWrite of the same
 *          per-op shape: B reads of one slot, then B writes (4 clients)
 *   core   SecureMemorySystem::readBlock/writeBlock on one shard-sized
 *          instance                                      (1 thread)
 *   oram   BucketStore::readBuckets/writeBuckets at the shard's depth
 *   crypto CtrCipher/Pmmac with the per-access counts the app stage
 *          measured
 */

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "app/kv_store.hh"
#include "app/kv_workload.hh"
#include "bench.hh"
#include "oram/bucket_store.hh"
#include "oram/oram_params.hh"
#include "oram/tree_layout.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

using namespace secdimm;

constexpr unsigned kClients = 4;
constexpr unsigned kShards = 4;
constexpr unsigned kSetups = 3;
constexpr unsigned kWindows = 30;

app::KvWorkloadSpec
spec()
{
    app::KvWorkloadSpec s;
    s.kind = app::KvWorkloadKind::Zipfian;
    s.keys = 20000;
    s.zipfTheta = 0.99;
    s.getFraction = 0.8;
    s.missFraction = 0.05;
    s.valueBytes = 96;
    return s;
}

app::ObliviousKVStore::Options
storeOptions(std::uint64_t seed)
{
    app::ObliviousKVStore::Options opt;
    opt.serve.shard.protocol =
        core::SecureMemorySystem::Protocol::PathOram;
    opt.serve.shard.seed = seed;
    opt.serve.numShards = kShards;
    opt.serve.queueCapacity = 128;
    opt.serve.maxBatch = 8;
    opt.capacityKeys = spec().keys;
    opt.seed = seed;
    const std::uint64_t record = 6 + opt.maxKeyBytes + opt.maxValueBytes;
    const std::uint64_t bps = (record + blockBytes - 1) / blockBytes;
    const std::uint64_t slots =
        opt.capacityKeys + opt.capacityKeys / 4 + 4;
    opt.serve.shard.capacityBytes = slots * bps * blockBytes;
    return opt;
}

/**
 * Every (key, value) pair the preload or a put has written.  A get
 * must return one of them; puts register before they are issued, so a
 * concurrent get may observe them.
 */
class WrittenSet
{
  public:
    void add(const std::string &k, const std::string &v)
    {
        Part &p = part(k);
        std::lock_guard<std::mutex> lk(p.mu);
        p.set.insert(hash(k, v));
    }
    bool has(const std::string &k, const std::string &v)
    {
        Part &p = part(k);
        std::lock_guard<std::mutex> lk(p.mu);
        return p.set.count(hash(k, v)) != 0;
    }

  private:
    struct Part
    {
        std::mutex mu;
        std::unordered_set<std::uint64_t> set;
    };
    static std::uint64_t hash(const std::string &k, const std::string &v)
    {
        const std::uint64_t a = std::hash<std::string>{}(k);
        const std::uint64_t b = std::hash<std::string>{}(v);
        return a ^ (b * 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    }
    Part &part(const std::string &k)
    {
        return parts_[std::hash<std::string>{}(k) % parts_.size()];
    }
    std::array<Part, 16> parts_;
};

/** What one client saw during a measured phase. */
struct ClientLog
{
    std::vector<OpSample> ops;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    std::vector<Span> spans;
};

std::unique_ptr<app::ObliviousKVStore>
buildStore(std::uint64_t seed, WrittenSet &written)
{
    auto store =
        std::make_unique<app::ObliviousKVStore>(storeOptions(seed));
    const std::vector<app::KvOp> pre =
        app::KvWorkloadGenerator(spec(), seed).preload();
    for (const auto &op : pre)
        written.add(op.key, op.value);
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < kClients; ++c)
        ts.emplace_back([&, c] {
            for (std::size_t i = c; i < pre.size(); i += kClients)
                store->put(pre[i].key, pre[i].value);
        });
    for (auto &t : ts)
        t.join();
    store->drain();
    return store;
}

/** One app op from @p gen, checked and recorded in @p cl. */
void
appOp(app::ObliviousKVStore &store, WrittenSet &written,
      app::KvWorkloadGenerator &gen, Clock::time_point t0, SpanLog *log,
      ClientLog &cl)
{
    const app::KvOp op = gen.next();
    if (op.put)
        written.add(op.key, op.value);
    std::optional<std::string> got;
    ++cl.attempted;
    const auto s = Clock::now();
    try {
        if (op.put)
            store.put(op.key, op.value);
        else
            got = store.get(op.key);
    } catch (const std::exception &e) {
        ++cl.failed;
        cl.problems.push_back(std::string("op threw: ") + e.what());
        return;
    }
    const auto e = Clock::now();
    if (!op.put) {
        const bool ok = op.expectAbsent ? !got.has_value()
                                        : got && written.has(op.key, *got);
        if (!ok) {
            ++cl.failed;
            cl.problems.push_back("wrong value for " + op.key);
            return;
        }
    }
    cl.ops.push_back({static_cast<float>(secondsBetween(t0, e)),
                      static_cast<float>(usBetween(s, e)), op.put});
    if (log != nullptr)
        cl.spans.push_back(
            {op.put ? "app.put" : "app.get", log->newId(), 0, s, e});
}

/**
 * Run @p clients app clients for @p seconds.  Client c draws from
 * gens[c], which continues across phases so each phase sees fresh ops.
 */
void
appPhase(app::ObliviousKVStore &store, WrittenSet &written,
         std::vector<app::KvWorkloadGenerator> &gens, unsigned clients,
         double seconds, SpanLog *log, std::vector<ClientLog> &out)
{
    out.assign(clients, ClientLog{});
    for (auto &cl : out) // Room for 25k ops/s per client.
        cl.ops.reserve(static_cast<std::size_t>(seconds * 25000));
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration<double>(seconds);
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < clients; ++c)
        ts.emplace_back([&, c] {
            while (Clock::now() < end)
                appOp(store, written, gens[c], t0, log, out[c]);
            if (log != nullptr)
                log->absorb(out[c].spans);
        });
    for (auto &t : ts)
        t.join();
}

/** Fold the clients' logs into the report; returns every sample. */
std::vector<OpSample>
collect(std::vector<ClientLog> &logs, Report &report)
{
    std::vector<OpSample> all;
    std::size_t n = 0;
    for (const auto &cl : logs)
        n += cl.ops.size();
    all.reserve(n);
    for (auto &cl : logs) {
        report.attempted += cl.attempted;
        report.failed += cl.failed;
        for (std::size_t i = 0; i < cl.problems.size() && i < 5; ++i)
            report.note("kv: " + cl.problems[i]);
        all.insert(all.end(), cl.ops.begin(), cl.ops.end());
        cl.ops = {}; // Free as we go: keep the log out of the peak RSS.
    }
    return all;
}

/** Largest per-shard stash high-water mark. */
double
stashMax(app::ObliviousKVStore &store)
{
    double m = 0;
    for (unsigned s = 0; s < kShards; ++s)
        m = std::max<double>(
            m, store.service().shardMetrics(s).counter(
                   "oram.data.stash.max"));
    return m;
}

/** What one serve-stage client saw. */
struct ServeLog
{
    Samples opUs, requestUs;
    std::uint64_t failed = 0;
    std::vector<Span> spans;
};

/**
 * The app's per-op block shape sent straight to the service: B reads
 * of one uniform slot, then B writes of the same contents back.
 * Writing back what was read keeps every slot's record intact.
 */
void
serveOp(app::ObliviousKVStore &store, Rng &rng, SpanLog &log,
        ServeLog &out)
{
    serve::ShardedSecureMemory &svc = store.service();
    const unsigned B = store.blocksPerSlot();
    const std::uint64_t slot = rng.nextBelow(store.slotCount());
    std::vector<std::future<BlockData>> reads(B);
    std::vector<std::future<void>> writes(B);
    std::vector<BlockData> data(B);
    std::vector<Clock::time_point> sub(B);
    const std::uint64_t op_id = log.newId();
    const auto s = Clock::now();
    try {
        for (unsigned b = 0; b < B; ++b) {
            sub[b] = Clock::now();
            reads[b] = svc.submitRead(slot * B + b);
        }
        for (unsigned b = 0; b < B; ++b) {
            data[b] = reads[b].get();
            const auto t = Clock::now();
            out.requestUs.add(usBetween(sub[b], t));
            out.spans.push_back(
                {"serve.read", log.newId(), op_id, sub[b], t});
        }
        for (unsigned b = 0; b < B; ++b) {
            sub[b] = Clock::now();
            writes[b] = svc.submitWrite(slot * B + b, data[b]);
        }
        for (unsigned b = 0; b < B; ++b) {
            writes[b].get();
            const auto t = Clock::now();
            out.requestUs.add(usBetween(sub[b], t));
            out.spans.push_back(
                {"serve.write", log.newId(), op_id, sub[b], t});
        }
    } catch (const std::exception &) {
        ++out.failed;
        return;
    }
    const auto e = Clock::now();
    out.opUs.add(usBetween(s, e));
    out.spans.push_back({"serve.op", op_id, 0, s, e});
}

/** @p clients serve-stage clients for @p seconds, merged. */
ServeLog
servePhase(app::ObliviousKVStore &store, std::uint64_t seed,
           unsigned clients, double seconds, SpanLog &log, Report &report)
{
    std::vector<ServeLog> logs(clients);
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < clients; ++c)
        ts.emplace_back([&, c] {
            Rng rng(seed * 7919 + c);
            while (Clock::now() < end)
                serveOp(store, rng, log, logs[c]);
        });
    for (auto &t : ts)
        t.join();
    ServeLog all;
    for (auto &l : logs) {
        all.opUs.append(l.opUs);
        all.requestUs.append(l.requestUs);
        all.failed += l.failed;
        log.absorb(l.spans);
    }
    report.attempted += all.opUs.size() + all.failed;
    report.failed += all.failed;
    report.note(describe("serve stage op", all.opUs));
    report.note(describe("serve stage request", all.requestUs));
    return all;
}

/**
 * App self time: one client alternates an app op with a serve-stage op
 * of the same shape, so both sides see the same conditions and
 * neither waits behind other clients (queueing is the serve layer's
 * share).  Returns the difference of the mean op times.
 */
double
appSelfPhase(app::ObliviousKVStore &store, WrittenSet &written,
             app::KvWorkloadGenerator &gen, std::uint64_t seed,
             double seconds, SpanLog &log, Report &report)
{
    ClientLog app_log;
    ServeLog serve_log;
    Rng rng(seed * 7919 + 99);
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration<double>(seconds);
    while (Clock::now() < end) {
        appOp(store, written, gen, t0, &log, app_log);
        serveOp(store, rng, log, serve_log);
    }
    log.absorb(app_log.spans);
    log.absorb(serve_log.spans);
    std::vector<ClientLog> logs{std::move(app_log)};
    const double app_us = meanUs(collect(logs, report));
    report.attempted += serve_log.opUs.size() + serve_log.failed;
    report.failed += serve_log.failed;
    report.note("one client: app op mean " + std::to_string(app_us) +
                " us, serve op mean " +
                std::to_string(serve_log.opUs.mean()) + " us");
    return app_us - serve_log.opUs.mean();
}

/** BucketStore path reads and writes at the shard tree's depth. */
std::pair<double, double>
oramPhase(const app::ObliviousKVStore::Options &opt, std::uint64_t seed,
          double seconds, SpanLog &log, Report &report)
{
    const auto shard =
        serve::ShardedSecureMemory::shardOptions(opt.serve, 0);
    oram::OramParams params;
    params.levels = oram::levelsForCapacity(
        (shard.capacityBytes + blockBytes - 1) / blockBytes,
        params.bucketBlocks);
    oram::TreeLayout layout(params.levels, params.linesPerBucket());
    oram::BucketStore store(layout.numBuckets(), params.bucketBlocks,
                            crypto::makeKey(1, seed),
                            crypto::makeKey(2, seed));
    const std::size_t n = params.levels + 1;
    std::vector<std::uint64_t> seqs(n);
    std::vector<oram::BucketReadResult> got;
    std::vector<oram::Bucket> buckets;
    Rng rng(seed * 17 + 3);
    Samples rd, wr;
    std::vector<Span> spans;
    bool authentic = true;
    const StageClock clock(seconds);
    while (clock.running()) {
        const LeafId leaf = rng.nextBelow(params.numLeaves());
        for (unsigned l = 0; l < n; ++l)
            seqs[l] = layout.bucketSeq(
                oram::pathBucket(leaf, l, params.levels));
        const auto t0 = Clock::now();
        store.readBuckets(seqs.data(), n, got);
        const auto t1 = Clock::now();
        buckets.clear();
        for (auto &r : got) {
            authentic &= r.authentic;
            buckets.push_back(std::move(r.bucket));
        }
        const auto t2 = Clock::now();
        store.writeBuckets(seqs.data(), buckets.data(), n);
        const auto t3 = Clock::now();
        if (!clock.recording(t0))
            continue;
        rd.add(usBetween(t0, t1));
        wr.add(usBetween(t2, t3));
        spans.push_back({"oram.read_path", log.newId(), 0, t0, t1});
        spans.push_back({"oram.write_path", log.newId(), 0, t2, t3});
    }
    log.absorb(spans);
    if (!authentic)
        report.fail("oram stage: a bucket failed authentication");
    report.note("oram stage: " + std::to_string(params.levels) +
                " levels per shard tree");
    report.note(describe("oram stage read path", rd));
    report.note(describe("oram stage write path", wr));
    return {rd.mean(), wr.mean()};
}

} // namespace

void
runKvZipf(const Args &args, Report &report)
{
    const auto opt = storeOptions(args.seed);
    std::unique_ptr<WrittenSet> written;
    std::unique_ptr<app::ObliviousKVStore> store;
    const double setup_s = measureSetup(
        args.trace ? 1 : kSetups,
        [&] {
            written = std::make_unique<WrittenSet>();
            store = buildStore(args.seed, *written);
        },
        report);
    report.note("kv: " + std::to_string(spec().keys) + " keys, " +
                std::to_string(store->slotCount()) + " slots of " +
                std::to_string(store->blocksPerSlot()) + " blocks over " +
                std::to_string(kShards) + " shards (" +
                std::to_string(store->service().capacityBytes() >> 10) +
                " KiB), " + std::to_string(kClients) + " clients");

    std::vector<app::KvWorkloadGenerator> gens;
    for (unsigned c = 0; c < kClients; ++c)
        gens.emplace_back(spec(), args.seed * 1000 + 1 + c);
    std::vector<ClientLog> logs;
    appPhase(*store, *written, gens, kClients, kWarmupS, nullptr, logs);
    collect(logs, report);

    if (!args.trace) {
        appPhase(*store, *written, gens, kClients, args.seconds, nullptr, logs);
        const std::vector<OpSample> ops = collect(logs, report);
        if (!store->integrityOk())
            report.fail("kv: service integrity check failed");
        reportPhase(ops, args.seconds, kWindows,
                    {"kv_ops_per_s", "kv_get", "kv_put"}, report);
        report.e2e("setup_s", setup_s, "s");
        return;
    }

    // Traced run.  The app stage alternates short untraced and traced
    // phases so the tracing overhead is measured on the same store.
    constexpr int kRounds = 4;
    const double slice = args.seconds / (4 * kRounds);
    double untraced_ops = 0, traced_ops = 0, traced_us = 0;
    const util::MetricsRegistry before = store->metrics();
    const double cpu0 = cpuSeconds();
    const auto wall0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
        appPhase(*store, *written, gens, kClients, slice, nullptr, logs);
        untraced_ops += static_cast<double>(collect(logs, report).size());
        appPhase(*store, *written, gens, kClients, slice, &report.spans,
                 logs);
        const std::vector<OpSample> ops = collect(logs, report);
        traced_us += meanUs(ops) * static_cast<double>(ops.size());
        traced_ops += static_cast<double>(ops.size());
    }
    const double cores_busy = ratio(cpuSeconds() - cpu0,
                                    secondsBetween(wall0, Clock::now()));
    const util::MetricsRegistry after = store->metrics();
    const Delta d(before, after);
    const double traced_op_us = ratio(traced_us, traced_ops);
    const double kv_ops = d.counter("kv.gets") + d.counter("kv.puts") +
                          d.counter("kv.erases");

    const double app_self =
        appSelfPhase(*store, *written, gens[0], args.seed, args.seconds / 8,
                     report.spans, report);
    const ServeLog sv = servePhase(*store, args.seed, kClients,
                                   args.seconds / 4, report.spans, report);
    const double stash = stashMax(*store);
    if (!store->integrityOk())
        report.fail("kv: service integrity check failed");
    store.reset();

    const double core_us = runCoreStage(
        serve::ShardedSecureMemory::shardOptions(opt.serve, 0), args.seed,
        args.seconds / 4, report.spans, report);
    const auto [read_path, write_path] =
        oramPhase(opt, args.seed, args.seconds / 8, report.spans, report);
    const double crypto_us = runCryptoStage(d, args.seconds / 8, report);
    reportServeCounts(d, report);

    const double path_us = read_path + write_path;
    // An op blocks on two phases (B parallel reads, then B parallel
    // writes), so two requests lie on its blocking path.
    const double accounted = app_self + 2 * sv.requestUs.mean();
    report.note("app op mean " + std::to_string(traced_op_us) + " us");

    report.layer("app.op_self_us", app_self, "us");
    report.layer("app.blocks_per_op",
                 ratio(d.counter("kv.blocks_read") +
                           d.counter("kv.blocks_written"),
                       kv_ops),
                 "blocks");
    report.layer("app.dummy_op_ratio",
                 ratio(d.counter("kv.dummy_ops"), kv_ops), "ratio");
    report.layer("serve.request_us", sv.requestUs.mean(), "us");
    report.layer("serve.queue_wait_us", sv.requestUs.mean() - core_us, "us");
    report.layer("cpu_cores_busy", cores_busy, "cores");
    report.layer("core.access_us", core_us, "us");
    report.layer("core.self_us", core_us - path_us, "us");
    report.layer("oram.read_path_us", read_path, "us");
    report.layer("oram.write_path_us", write_path, "us");
    report.layer("oram.self_us", path_us - crypto_us, "us");
    report.layer("oram.stash_max", stash, "blocks");
    report.layer("unattributed_ratio", 1.0 - ratio(accounted, traced_op_us),
                 "ratio");
    report.layer("tracing_overhead_ratio",
                 ratio(untraced_ops, traced_ops) - 1.0, "ratio");
}

} // namespace perfbench
