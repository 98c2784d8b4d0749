/**
 * @file
 * Simulator stage: the cycle model for the Figure 9 pair on the mcf
 * profile at the paper's 24 levels with 7 cached levels -- Freecursive
 * on two channels against INDEP-SPLIT -- plus a NonSecure run of the
 * same records.  It is the only stage on dram, trace and the sdimm
 * timing backends.  Host time comes from a record source that
 * timestamps every record the core model pulls; simulated statistics
 * come from core::runWorkloadFromSource and must repeat bit-exactly
 * when the pair runs again with the same seed.
 */

#include <cstdio>

#include "bench.hh"
#include "core/simulator.hh"
#include "core/system_config.hh"
#include "trace/workload.hh"

namespace perfbench
{

namespace
{

using namespace secdimm;

constexpr std::uint64_t kWarmup = 20000;
/** Measured records per design and repetition (about 1.5 s each). */
constexpr std::uint64_t kMeasure = 500;
constexpr unsigned kRepetitions = 2;
constexpr double kPaperNormalizedTime = 0.526;

/**
 * The profile's TraceGenerator (seeded exactly as core::runWorkload
 * seeds it), timestamping each measured record as it is pulled.
 */
class TimedSource : public trace::RecordSource
{
  public:
    TimedSource(const trace::WorkloadProfile &profile, std::uint64_t seed)
        : gen_(profile, seed ^ 0xabcdef)
    {
    }

    trace::TraceRecord next() override
    {
        if (pulled_++ >= kWarmup)
            at_.push_back(Clock::now());
        return gen_.next();
    }

    const std::vector<Clock::time_point> &pulledAt() const { return at_; }

  private:
    trace::TraceGenerator gen_;
    std::uint64_t pulled_ = 0;
    std::vector<Clock::time_point> at_;
};

struct SimRun
{
    core::SimResult result;
    double measureS = 0; ///< First measured record to return.
};

const trace::WorkloadProfile &
mcf()
{
    for (const auto &p : trace::spec2006Profiles())
        if (p.name == "mcf")
            return p;
    throw std::runtime_error("mcf profile missing");
}

/** Simulate @p measure records on @p cfg; one span per record, under
 *  one span for the run. */
SimRun
simulate(const core::SystemConfig &cfg, std::uint64_t seed,
         std::uint64_t measure, SpanLog &log, const char *span_name)
{
    TimedSource src(mcf(), seed);
    core::SimLengths lengths;
    lengths.warmupRecords = kWarmup;
    lengths.measureRecords = measure;
    SimRun run;
    const auto start = Clock::now();
    run.result = core::runWorkloadFromSource(cfg, src, lengths, seed);
    const auto end = Clock::now();
    const auto &at = src.pulledAt();
    if (at.empty())
        throw std::runtime_error("simulator pulled no measured record");
    run.measureS = secondsBetween(at.front(), end);
    std::vector<Span> spans;
    const std::uint64_t parent = log.newId();
    for (std::size_t k = 0; k < at.size(); ++k)
        spans.push_back({"trace.record", log.newId(), parent, at[k],
                         k + 1 < at.size() ? at[k + 1] : end});
    spans.push_back({span_name, parent, 0, start, end});
    log.absorb(spans);
    return run;
}

core::SystemConfig
freecursive2ch()
{
    core::SystemConfig cfg =
        core::makeConfig(core::DesignPoint::Freecursive, 24, 7);
    cfg.cpuChannels = 2;
    cfg.cpuGeom.channels = 2;
    return cfg;
}

/** Sum of the counters, or mean of the gauges, named dram.*<suffix>. */
double
dramStat(const util::MetricsRegistry &m, const std::string &suffix,
         bool gauge_mean)
{
    double sum = 0, n = 0;
    auto visit = [&](const std::string &name, double v) {
        if (name.rfind("dram.", 0) == 0 && name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            sum += v;
            n += 1;
        }
    };
    if (gauge_mean) {
        for (const auto &[name, v] : m.gauges())
            visit(name, v);
        return ratio(sum, n);
    }
    for (const auto &[name, v] : m.counters())
        visit(name, static_cast<double>(v));
    return sum;
}

} // namespace

void
runSimStage(std::uint64_t seed, Report &report)
{
    const core::SystemConfig fc_cfg = freecursive2ch();
    const core::SystemConfig is_cfg =
        core::makeConfig(core::DesignPoint::IndepSplit, 24, 7);
    SimRun fc, is;
    double fc_s = 0, is_s = 0;
    for (unsigned rep = 0; rep < kRepetitions; ++rep) {
        SimRun f = simulate(fc_cfg, seed, kMeasure, report.spans,
                            "sim.freecursive");
        SimRun i = simulate(is_cfg, seed, kMeasure, report.spans,
                            "sim.indep_split");
        report.attempted += 2;
        if (rep > 0 && (f.result.metrics.toJson() !=
                            fc.result.metrics.toJson() ||
                        i.result.metrics.toJson() !=
                            is.result.metrics.toJson())) {
            ++report.failed;
            report.fail("simulated statistics differ between repetitions");
        }
        fc_s += f.measureS;
        is_s += i.measureS;
        fc = std::move(f);
        is = std::move(i);
    }
    // The trace layer alone: the same record stream into plain DRAM.
    const SimRun ns =
        simulate(core::makeConfig(core::DesignPoint::NonSecure, 24, 7),
                 seed, kMeasure * 20, report.spans, "sim.nonsecure");
    ++report.attempted;

    const core::SimResult &f = fc.result;
    const core::SimResult &i = is.result;
    const double normalized = ratio(static_cast<double>(i.core.cycles),
                                    static_cast<double>(f.core.cycles));
    const double misses = static_cast<double>(i.core.llcMisses);
    const double records_per_s =
        ratio(2.0 * kMeasure * kRepetitions, fc_s + is_s);
    char line[320];
    std::snprintf(line, sizeof(line),
                  "sim: mcf, 24 levels, 7 cached, %llu warm-up + %llu "
                  "measured records, %u repetitions (statistics "
                  "identical: %s); sim_records_per_s = %.1f, "
                  "sim_cycles_per_miss = %.2f, sim_normalized_time = %.4f "
                  "(paper %.3f)",
                  static_cast<unsigned long long>(kWarmup),
                  static_cast<unsigned long long>(kMeasure), kRepetitions,
                  report.correct ? "yes" : "no", records_per_s,
                  i.cyclesPerMiss(), normalized, kPaperNormalizedTime);
    report.note(line);

    const double row_hits = dramStat(i.metrics, ".row_hits", false);
    const double row_misses = dramStat(i.metrics, ".row_misses", false);
    report.layer("sim.records_per_s", records_per_s, "1/s");
    report.layer("sim.cycles_per_miss", i.cyclesPerMiss(), "cycles");
    report.layer("sim.normalized_time", normalized, "ratio");
    report.layer("sim.orams_per_miss", i.avgOramsPerMiss, "accesses");
    report.layer("sim.off_dimm_lines_per_miss",
                 ratio(static_cast<double>(i.offDimmLines), misses),
                 "lines");
    report.layer("sim.probes_per_miss",
                 ratio(static_cast<double>(i.probes), misses), "probes");
    report.layer("dram.row_hit_rate",
                 ratio(row_hits, row_hits + row_misses), "ratio");
    report.layer("dram.avg_read_latency",
                 dramStat(i.metrics, ".avg_read_latency", true), "cycles");
    report.layer("trace.host_us_per_record",
                 ratio(ns.measureS * 1e6, kMeasure * 20.0), "us");
    report.layer("oram.host_us_per_oram",
                 ratio(fc_s * 1e6, static_cast<double>(f.accessOrams) *
                                       kRepetitions),
                 "us");
    report.layer("sdimm.host_us_per_oram",
                 ratio(is_s * 1e6, static_cast<double>(i.accessOrams) *
                                       kRepetitions),
                 "us");
}

} // namespace perfbench
