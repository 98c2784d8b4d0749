/**
 * @file
 * Entry point of the end-to-end benchmark:
 *
 *   perfbench --workload <kv_zipf|block_indepsplit>
 *             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
 *
 * Prints human-readable lines (host fingerprint, seeds, every metric
 * with its unit and sample counts), then, as the last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}.  With
 * --trace 0 the metrics are the end-to-end ones, with --trace 1 the
 * per-layer ones.  perfbench/METRICS.md defines each of them.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "crypto/cpu_features.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/pmmac.hh"
#include "util/rng.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

/** Seed reserved for checking later performance claims; never used
 *  while tuning the benchmark or a change. */
constexpr std::uint64_t heldOutSeed = 104729;

/* ---- Samples -------------------------------------------------------- */

double
Samples::mean() const
{
    if (xs_.empty())
        return 0.0;
    double s = 0;
    for (double x : xs_)
        s += x;
    return s / static_cast<double>(xs_.size());
}

double
Samples::percentile(double q) const
{
    if (xs_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(xs_.begin(), xs_.end());
        sorted_ = true;
    }
    const double n = static_cast<double>(xs_.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, xs_.size());
    return xs_[rank - 1];
}

double
Samples::tail(double *q_out) const
{
    const double n = static_cast<double>(xs_.size());
    double q = 0.99;
    if (n * (1.0 - q) < 10.0)
        q = n > 10.0 ? 1.0 - 10.0 / n : 1.0;
    if (q_out != nullptr)
        *q_out = q;
    return percentile(q);
}

std::string
describe(const std::string &what, const Samples &s)
{
    double q = 0;
    const double t = s.tail(&q);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: p50 %.2f us, p%.4g %.2f us, mean %.2f us, n=%zu",
                  what.c_str(), s.percentile(0.5), q * 100.0, t,
                  s.mean(), s.size());
    return buf;
}

double
meanUs(const std::vector<OpSample> &ops)
{
    double sum = 0;
    for (const OpSample &o : ops)
        sum += o.us;
    return ratio(sum, static_cast<double>(ops.size()));
}

void
reportPhase(const std::vector<OpSample> &ops, double seconds,
            unsigned windows, const PhaseNames &names, Report &report)
{
    const double w = seconds / windows;
    std::vector<double> counts(windows, 0.0);
    std::vector<Samples> win(windows);
    Samples all, rd, wr;
    for (const OpSample &o : ops) {
        all.add(o.us);
        (o.write ? wr : rd).add(o.us);
        const auto i = static_cast<long>(o.at / w);
        if (i < 0 || i >= static_cast<long>(windows))
            continue;
        counts[static_cast<std::size_t>(i)] += 1;
        win[static_cast<std::size_t>(i)].add(o.us);
    }
    Samples rate, p50, tail;
    double q_min = 1, q = 0;
    for (unsigned i = 0; i < windows; ++i) {
        rate.add(counts[i] / w);
        p50.add(win[i].percentile(0.5));
        tail.add(win[i].tail(&q));
        q_min = std::min(q_min, q);
    }
    const double good_rate = rate.percentile(kGoodQuantile);
    const double good_p50 = p50.percentile(1 - kGoodQuantile);
    const double good_tail = tail.percentile(1 - kGoodQuantile);

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%u windows of %.2f s; reported: window rate p%.0f, "
                  "window p50 and p%.4g at p%.0f (median window: %.6g/s, "
                  "%.6g us, %.6g us)",
                  windows, w, kGoodQuantile * 100, q_min * 100,
                  (1 - kGoodQuantile) * 100, rate.percentile(0.5),
                  p50.percentile(0.5), tail.percentile(0.5));
    report.note(buf);
    report.note(std::string(names.rate) + " = " +
                std::to_string(good_rate) + " 1/s");
    for (const auto &[name, s] :
         {std::pair<const char *, const Samples *>{names.read, &rd},
          {names.write, &wr}}) {
        double qs = 0;
        const double t = s->tail(&qs);
        std::snprintf(buf, sizeof(buf),
                      "%s_p50_us = %.6g us, %s_p99_us = %.6g us (whole "
                      "phase: n=%zu, tail at p%.4g)",
                      name, s->percentile(0.5), name, t, s->size(),
                      qs * 100);
        report.note(buf);
    }
    report.e2e("throughput_per_s", good_rate, "1/s");
    report.e2e("latency_p50_us", good_p50, "us");
    report.e2e("latency_p99_us", good_tail, "us");
}

/* ---- spans ---------------------------------------------------------- */

std::uint64_t
SpanLog::newId()
{
    return nextId_.fetch_add(1, std::memory_order_relaxed);
}

void
SpanLog::absorb(std::vector<Span> &spans)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    spans.clear();
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "name,id,parent,start_ns,end_ns\n";
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch_)
            .count();
    };
    for (const Span &s : spans_)
        out << s.name << ',' << s.id << ',' << s.parent << ','
            << ns(s.start) << ',' << ns(s.end) << '\n';
    return static_cast<bool>(out);
}

/* ---- process probes ------------------------------------------------- */

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/* ---- counter deltas ------------------------------------------------- */

namespace
{

bool
matches(const std::string &name, const std::string &prefix,
        const std::string &suffix)
{
    return name.size() >= prefix.size() + suffix.size() &&
           name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

double
Delta::counter(const std::string &name) const
{
    return static_cast<double>(after_.counter(name)) -
           static_cast<double>(before_.counter(name));
}

double
Delta::imbalance(const std::string &prefix,
                 const std::string &suffix) const
{
    double max = 0, sum = 0, n = 0;
    for (const auto &[name, v] : after_.counters()) {
        if (!matches(name, prefix, suffix))
            continue;
        const double d = static_cast<double>(v) -
                         static_cast<double>(before_.counter(name));
        max = std::max(max, d);
        sum += d;
        n += 1;
    }
    return ratio(max, ratio(sum, n));
}

double
Delta::counterSum(const std::string &prefix,
                  const std::string &suffix) const
{
    double s = 0;
    for (const auto &[name, v] : after_.counters()) {
        if (!matches(name, prefix, suffix))
            continue;
        s += static_cast<double>(v) -
             static_cast<double>(before_.counter(name));
    }
    return s;
}

double
Delta::histogramMean(const std::string &prefix,
                     const std::string &suffix) const
{
    double n = 0, sum = 0;
    for (const auto &[name, h] : after_.histograms()) {
        if (!matches(name, prefix, suffix))
            continue;
        const auto *b = before_.findHistogram(name);
        n += static_cast<double>(h.count()) -
             (b ? static_cast<double>(b->count()) : 0.0);
        sum += h.sum() - (b ? b->sum() : 0.0);
    }
    return ratio(sum, n);
}

/* ---- report --------------------------------------------------------- */

void
Report::fail(const std::string &why)
{
    correct = false;
    note("CHECK FAILED: " + why);
}

void
Report::note(const std::string &line)
{
    std::printf("# %s\n", line.c_str());
    std::fflush(stdout);
}

const std::vector<std::pair<std::string, std::string>> &
perLayerNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"app.op_self_us", "us"},
        {"app.blocks_per_op", "blocks"},
        {"app.dummy_op_ratio", "ratio"},
        {"serve.request_us", "us"},
        {"serve.queue_wait_us", "us"},
        {"serve.stall_ns_per_request", "ns"},
        {"serve.batch_size_mean", "requests"},
        {"serve.shard_imbalance", "ratio"},
        {"cpu_cores_busy", "cores"},
        {"core.access_us", "us"},
        {"core.self_us", "us"},
        {"core.accesses_per_request", "accesses"},
        {"oram.read_path_us", "us"},
        {"oram.write_path_us", "us"},
        {"oram.self_us", "us"},
        {"oram.stash_max", "blocks"},
        {"sdimm.channel_bytes_per_access", "B"},
        {"sdimm.local_bytes_per_access", "B"},
        {"sdimm.append_dummy_ratio", "ratio"},
        {"crypto.aes_blocks_per_access", "blocks"},
        {"crypto.mac_tags_per_access", "tags"},
        {"crypto.ctr_us_per_access", "us"},
        {"crypto.mac_us_per_access", "us"},
        {"sim.records_per_s", "1/s"},
        {"sim.cycles_per_miss", "cycles"},
        {"sim.normalized_time", "ratio"},
        {"sim.orams_per_miss", "accesses"},
        {"sim.off_dimm_lines_per_miss", "lines"},
        {"sim.probes_per_miss", "probes"},
        {"dram.row_hit_rate", "ratio"},
        {"dram.avg_read_latency", "cycles"},
        {"trace.host_us_per_record", "us"},
        {"oram.host_us_per_oram", "us"},
        {"sdimm.host_us_per_oram", "us"},
        {"unattributed_ratio", "ratio"},
        {"tracing_overhead_ratio", "ratio"},
        {"op_fail_ratio", "ratio"},
    };
    return names;
}

/* ---- set-up -------------------------------------------------------- */

double
measureSetup(unsigned repeats, const std::function<void()> &setup,
             Report &report)
{
    Samples secs;
    for (unsigned i = 0; i + 1 < repeats; ++i) {
        int fds[2];
        if (pipe(fds) != 0) {
            report.fail("set-up: pipe failed");
            break;
        }
        const pid_t pid = fork();
        if (pid == 0) {
            close(fds[0]);
            const auto t0 = Clock::now();
            setup();
            const double s = secondsBetween(t0, Clock::now());
            const bool ok = write(fds[1], &s, sizeof s) == sizeof s;
            _exit(ok ? 0 : 1);
        }
        close(fds[1]);
        double s = -1;
        if (pid < 0 || read(fds[0], &s, sizeof s) != sizeof s)
            s = -1;
        close(fds[0]);
        int status = 0;
        if (pid > 0)
            waitpid(pid, &status, 0);
        if (s < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            report.fail("set-up in a child process failed");
        else
            secs.add(s);
    }
    const auto t0 = Clock::now();
    setup();
    secs.add(secondsBetween(t0, Clock::now()));
    report.note("set-up: median of " + std::to_string(secs.size()) +
                " runs " + std::to_string(secs.percentile(0.5)) + " s");
    return secs.percentile(0.5);
}

/* ---- core stage ---------------------------------------------------- */

double
runCoreStage(const secdimm::core::SecureMemorySystem::Options &shard,
             std::uint64_t seed, double seconds, SpanLog &log,
             Report &report)
{
    using namespace secdimm;
    core::SecureMemorySystem mem(shard);
    const std::uint64_t blocks = mem.capacityBytes() / blockBytes;
    Rng rng(seed * 31 + 7);
    Samples us;
    std::vector<Span> spans;
    BlockData d{};
    const StageClock clock(seconds);
    while (clock.running()) {
        const Addr a = rng.nextBelow(blocks);
        const bool write = rng.nextBool(0.5);
        const auto s = Clock::now();
        if (write) {
            d[0] = static_cast<std::uint8_t>(a);
            mem.writeBlock(a, d);
        } else {
            d = mem.readBlock(a);
        }
        const auto e = Clock::now();
        if (!clock.recording(s))
            continue;
        us.add(usBetween(s, e));
        spans.push_back({write ? "core.write" : "core.read", log.newId(),
                         0, s, e});
    }
    log.absorb(spans);
    if (!mem.integrityOk())
        report.fail("core stage: integrity check failed");
    report.note(describe("core stage access", us));
    return us.mean();
}

/* ---- crypto stage --------------------------------------------------- */

double
runCryptoStage(const Delta &d, double seconds, Report &report)
{
    using namespace secdimm;
    const double requests = d.counter("serve.requests");
    const double ctr_bytes = ratio(d.counter("crypto.ctr_bytes"), requests);
    const double mac_tags = ratio(d.counter("crypto.mac_tags"), requests);
    const double batch_tags =
        ratio(d.counter("crypto.mac_batch_tags"), requests);
    // Tags per batched call, and bytes MACed per tag taken as bytes
    // encrypted per tag (a bucket image for Path ORAM, a link message
    // for the SDIMM protocols).
    const auto batch_n = static_cast<std::size_t>(std::max(
        1.0, std::round(ratio(d.counter("crypto.mac_batch_tags"),
                              d.counter("crypto.mac_batch_calls")))));
    const std::size_t payload = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(ratio(ctr_bytes, mac_tags) /
                                             16.0)) *
            16,
        16, 4096);

    crypto::CtrCipher ctr(crypto::makeKey(0x11, 0x22));
    crypto::Pmmac mac(crypto::makeKey(0x33, 0x44));
    std::vector<std::uint8_t> arena(payload * batch_n, 0x5a);
    std::vector<crypto::PmmacItem> items(batch_n);
    std::vector<crypto::Tag64> tags(batch_n);
    for (std::size_t i = 0; i < batch_n; ++i)
        items[i] = crypto::PmmacItem{i, 1, arena.data() + payload * i,
                                     payload};

    // Fractional per-request counts carry over between requests.
    double ctr_carry = 0, batch_carry = 0, single_carry = 0;
    const double single = std::max(0.0, mac_tags - batch_tags);
    Samples ctr_us, mac_us;
    std::vector<Span> spans;
    std::uint64_t counter = 0;
    const StageClock clock(seconds);
    while (clock.running()) {
        ++counter;
        ctr_carry += ctr_bytes;
        auto bytes = static_cast<std::size_t>(ctr_carry);
        ctr_carry -= static_cast<double>(bytes);
        const auto t0 = Clock::now();
        for (std::uint64_t chunk = 0; bytes > 0; ++chunk) {
            const std::size_t n = std::min(bytes, arena.size());
            ctr.transformBuffer(arena.data(), n, chunk, counter);
            bytes -= n;
        }
        const auto t1 = Clock::now();
        batch_carry += batch_tags;
        single_carry += single;
        while (batch_carry >= 1.0) {
            const auto n = static_cast<std::size_t>(
                std::min<double>(batch_carry, batch_n));
            mac.tagBatch(items.data(), n, tags.data());
            batch_carry -= static_cast<double>(n);
        }
        for (; single_carry >= 1.0; single_carry -= 1.0)
            tags[0] = mac.tag(counter, 1, arena.data(), payload);
        const auto t2 = Clock::now();
        if (!clock.recording(t0))
            continue;
        ctr_us.add(usBetween(t0, t1));
        mac_us.add(usBetween(t1, t2));
        spans.push_back({"crypto.ctr", report.spans.newId(), 0, t0, t1});
        spans.push_back({"crypto.mac", report.spans.newId(), 0, t1, t2});
    }
    report.spans.absorb(spans);

    report.layer("crypto.aes_blocks_per_access",
                 ratio(d.counter("crypto.aes_blocks"), requests), "blocks");
    report.layer("crypto.mac_tags_per_access", mac_tags, "tags");
    report.layer("crypto.ctr_us_per_access", ctr_us.mean(), "us");
    report.layer("crypto.mac_us_per_access", mac_us.mean(), "us");
    return ctr_us.mean() + mac_us.mean();
}

void
reportServeCounts(const Delta &d, Report &report)
{
    const double requests = d.counter("serve.requests");
    report.layer("serve.stall_ns_per_request",
                 ratio(d.counterSum("serve.s", ".stall_ns"), requests),
                 "ns");
    report.layer("serve.batch_size_mean",
                 d.histogramMean("serve.s", ".batch_size"), "requests");
    report.layer("serve.shard_imbalance",
                 d.imbalance("serve.s", ".accesses"), "ratio");
    report.layer("core.accesses_per_request",
                 ratio(d.counter("core.accesses"), requests), "accesses");
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<kv_zipf|block_indepsplit> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *endp = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &endp, 10);
            if (*endp != '\0')
                usage("--seed takes a whole number");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &endp);
            if (*endp != '\0' || !(a.seconds >= 1 && a.seconds <= 60))
                usage("--seconds takes a number in [1, 60]");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace takes 0 or 1");
            a.trace = v[0] == '1';
        } else if (k == "--spans") {
            a.spansPath = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Report report;

    report.note("workload " + args.workload + ", seed " +
                std::to_string(args.seed) + " (held-out seed " +
                std::to_string(heldOutSeed) + "), " +
                jsonNumber(args.seconds) + " s, trace " +
                (args.trace ? "1" : "0"));
    report.note(std::string("host: ") +
                std::to_string(std::thread::hardware_concurrency()) +
                " cores, aes " +
                secdimm::crypto::aesImplName(
                    secdimm::crypto::activeAesImpl()) +
                ", compiler " + __VERSION__ + ", build " +
                PERFBENCH_BUILD_TYPE);

    if (args.workload == "kv_zipf")
        runKvZipf(args, report);
    else if (args.workload == "block_indepsplit")
        runBlockIndepSplit(args, report);
    else
        usage(("unknown workload " + args.workload).c_str());

    report.e2e("peak_rss_mb", peakRssMb(), "MB");
    const double fail_ratio = ratio(static_cast<double>(report.failed),
                                    static_cast<double>(report.attempted));
    report.layer("op_fail_ratio", fail_ratio, "ratio");
    if (report.attempted == 0)
        report.fail("no operation was attempted");
    if (report.failed != 0)
        report.fail(std::to_string(report.failed) + " of " +
                    std::to_string(report.attempted) +
                    " operations failed");

    // Every per-layer name appears in every traced run; layers the
    // workload does not exercise did no work and report 0.
    std::map<std::string, Report::Metric> layers;
    for (const auto &m : report.perLayer) {
        bool known = false;
        for (const auto &[n, u] : perLayerNames())
            known |= n == m.name && u == m.unit;
        if (!known) {
            std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                         m.name.c_str());
            return 3;
        }
        layers[m.name] = m;
    }
    std::vector<Report::Metric> per_layer;
    for (const auto &[n, u] : perLayerNames()) {
        auto it = layers.find(n);
        per_layer.push_back(it != layers.end() ? it->second
                                               : Report::Metric{n, 0, u});
    }

    if (args.trace && !args.spansPath.empty()) {
        if (report.spans.write(args.spansPath))
            report.note(std::to_string(report.spans.size()) +
                        " spans written to " + args.spansPath);
        else
            report.note("could not write spans to " + args.spansPath);
    }

    std::printf("# op_fail_ratio = %s (%llu of %llu)\n",
                jsonNumber(fail_ratio).c_str(),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const auto &m : report.endToEnd)
        std::printf("# e2e   %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (args.trace)
        for (const auto &m : per_layer)
            std::printf("# layer %-32s %16.6g %s\n", m.name.c_str(),
                        m.value, m.unit.c_str());

    const auto &out = args.trace ? per_layer : report.endToEnd;
    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + out[i].name + "\": {\"value\": " +
                jsonNumber(out[i].value) + ", \"unit\": \"" +
                out[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
