/**
 * @file
 * End-to-end throughput of the oblivious KV store (src/app) over the
 * sharded service: ops/sec, bytes moved on the block channel, and
 * p50/p99 op latency for each workload shape x shard count.  Every
 * KV op costs exactly blocksPerSlot() block accesses regardless of
 * hit/miss/kind (the obliviousness invariant), so the bytes column
 * is flat per op and the interesting axes are shard parallelism and
 * key-popularity shape (contention on hot keys serializes same-key
 * ops).
 *
 * Workloads come from the engine in src/app/kv_workload.hh -- the
 * same specs trace_replay --workload= and the chaos campaigns replay.
 * Scale with SDIMM_KV_BENCH_OPS (ops per client, default 400) and
 * SDIMM_KV_BENCH_CLIENTS (default 4).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_store.hh"
#include "app/kv_workload.hh"
#include "bench/common.hh"
#include "crypto/cpu_features.hh"

using namespace secdimm;

namespace
{

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    if (const char *v = std::getenv(name))
        return std::strtoull(v, nullptr, 0);
    return fallback;
}

/** A workload shape: spec template, cloned per client tenant. */
struct Shape
{
    const char *name;
    app::KvWorkloadSpec spec;
};

std::vector<Shape>
shapes()
{
    std::vector<Shape> out;

    app::KvWorkloadSpec zipf;
    zipf.kind = app::KvWorkloadKind::Zipfian;
    zipf.zipfTheta = 0.99;
    zipf.missFraction = 0.05;
    out.push_back({"zipfian", zipf});

    app::KvWorkloadSpec hot;
    hot.kind = app::KvWorkloadKind::HotSet;
    hot.hotOpFraction = 0.9;
    hot.hotKeyFraction = 0.1;
    out.push_back({"hotset", hot});

    app::KvWorkloadSpec scan;
    scan.kind = app::KvWorkloadKind::Scan;
    scan.scanLen = 32;
    scan.getFraction = 0.95;
    out.push_back({"scan", scan});

    // Two-tenant blend: a zipfian point-lookup tenant over a scan
    // tenant, 3:1.
    app::KvWorkloadSpec mix;
    mix.kind = app::KvWorkloadKind::Mix;
    app::KvWorkloadSpec t0 = zipf, t1 = scan;
    t0.tenant = "a";
    t1.tenant = "b";
    mix.tenants = {t0, t1};
    mix.weights = {3.0, 1.0};
    out.push_back({"mix", mix});

    return out;
}

/** Give every tenant in @p spec a client-unique namespace. */
void
retenant(app::KvWorkloadSpec &spec, unsigned client)
{
    spec.tenant = "c" + std::to_string(client) + spec.tenant;
    for (auto &t : spec.tenants)
        retenant(t, client);
}

std::uint64_t
population(const app::KvWorkloadSpec &spec)
{
    if (spec.kind != app::KvWorkloadKind::Mix)
        return spec.keys;
    std::uint64_t total = 0;
    for (const auto &t : spec.tenants)
        total += population(t);
    return total;
}

double
percentile(std::vector<double> &xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(xs.size() - 1));
    return xs[idx];
}

struct Point
{
    double opsPerSec = 0.0;
    double wallMs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    std::uint64_t channelBytes = 0;
    std::uint64_t ops = 0;
};

Point
runPoint(const Shape &shape, unsigned shards, unsigned clients,
         std::uint64_t ops_per_client, bench::JsonReport &report)
{
    // Per-client tenants keep populations disjoint; size capacity for
    // all of them plus the engine's miss keys never inserting.
    std::vector<app::KvWorkloadSpec> specs;
    std::uint64_t capacity = 0;
    for (unsigned c = 0; c < clients; ++c) {
        app::KvWorkloadSpec s = shape.spec;
        s.keys = 24;
        for (auto &t : s.tenants)
            t.keys = 12;
        retenant(s, c);
        capacity += population(s);
        specs.push_back(std::move(s));
    }

    app::ObliviousKVStore::Options opt;
    opt.serve.shard.protocol =
        core::SecureMemorySystem::Protocol::PathOram;
    opt.serve.shard.seed = 1;
    opt.serve.numShards = shards;
    opt.serve.queueCapacity = 128;
    opt.serve.maxBatch = 8;
    opt.capacityKeys = capacity;
    opt.seed = 1;
    const std::uint64_t record = 6 + opt.maxKeyBytes + opt.maxValueBytes;
    const std::uint64_t bps = (record + blockBytes - 1) / blockBytes;
    const std::uint64_t slots = capacity + capacity / 4 + 4;
    opt.serve.shard.capacityBytes = slots * bps * blockBytes;
    app::ObliviousKVStore store(opt);

    for (unsigned c = 0; c < clients; ++c) {
        app::KvWorkloadGenerator gen(specs[c], 100 + c);
        for (const app::KvOp &op : gen.preload())
            store.put(op.key, op.value);
    }
    store.drain();

    std::vector<std::vector<double>> latencies(clients);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < clients; ++c) {
        ts.emplace_back([&, c] {
            app::KvWorkloadGenerator gen(specs[c], 200 + c);
            auto &lat = latencies[c];
            lat.reserve(ops_per_client);
            for (std::uint64_t i = 0; i < ops_per_client; ++i) {
                const app::KvOp op = gen.next();
                const auto s = std::chrono::steady_clock::now();
                if (op.put)
                    store.put(op.key, op.value);
                else
                    (void)store.get(op.key);
                const auto e = std::chrono::steady_clock::now();
                lat.push_back(
                    std::chrono::duration<double, std::micro>(e - s)
                        .count());
            }
        });
    }
    for (auto &t : ts)
        t.join();
    store.drain();
    const auto t1 = std::chrono::steady_clock::now();

    std::vector<double> all;
    for (auto &l : latencies)
        all.insert(all.end(), l.begin(), l.end());

    const util::MetricsRegistry m = store.metrics();
    Point p;
    p.ops = ops_per_client * clients;
    p.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    p.opsPerSec =
        p.wallMs > 0 ? static_cast<double>(p.ops) / (p.wallMs / 1e3)
                     : 0.0;
    p.p50Us = percentile(all, 0.50);
    p.p99Us = percentile(all, 0.99);
    // Blocks the measured ops moved on the store<->service channel
    // (preload excluded: counters snapshot minus preload cost would
    // need a second snapshot, so count from op arithmetic -- every op
    // is exactly blocksPerSlot() block accesses).
    p.channelBytes = p.ops * store.blocksPerSlot() * blockBytes;

    const std::string name =
        std::string(shape.name) + "_shards" + std::to_string(shards);
    report.add(name, m);
    report.set(name, "ops_per_sec", p.opsPerSec);
    report.set(name, "wall_ms", p.wallMs);
    report.set(name, "latency_p50_us", p.p50Us);
    report.set(name, "latency_p99_us", p.p99Us);
    report.setCount(name, "channel_bytes", p.channelBytes);
    report.setCount(name, "ops", p.ops);
    report.setCount(name, "clients", clients);
    report.setCount(name, "shards", shards);
    report.setCount(name, "aes_impl_id",
                    static_cast<std::uint64_t>(
                        static_cast<int>(crypto::activeAesImpl())));
    return p;
}

} // namespace

int
main()
{
    bench::header("oblivious KV store throughput",
                  "application layer over the sharded service "
                  "(Pyramid-style KV-over-ORAM); ROADMAP app lever");
    const std::uint64_t ops = envOr("SDIMM_KV_BENCH_OPS", 400);
    const unsigned clients =
        static_cast<unsigned>(envOr("SDIMM_KV_BENCH_CLIENTS", 4));
    std::printf("hardware concurrency: %u threads; %llu ops per "
                "client, %u clients\n\n",
                std::thread::hardware_concurrency(),
                static_cast<unsigned long long>(ops), clients);

    bench::JsonReport report("kv_throughput");
    std::printf("%-10s %-7s %12s %10s %10s %10s %14s\n", "workload",
                "shards", "ops/sec", "p50 us", "p99 us", "wall ms",
                "channel bytes");
    for (const Shape &shape : shapes()) {
        for (unsigned shards : {2u, 4u}) {
            const Point p =
                runPoint(shape, shards, clients, ops, report);
            std::printf("%-10s %-7u %12.0f %10.0f %10.0f %10.1f %14llu\n",
                        shape.name, shards, p.opsPerSec, p.p50Us,
                        p.p99Us, p.wallMs,
                        static_cast<unsigned long long>(
                            p.channelBytes));
        }
    }
    std::printf("\n(every op moves the same blocksPerSlot blocks -- "
                "hit or miss, get or put;\n that flatness IS the "
                "obliviousness invariant, tested in tests/app)\n");
    return 0;
}
