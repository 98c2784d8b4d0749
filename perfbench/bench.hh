/**
 * @file
 * Shared pieces of the end-to-end benchmark: timing samples and
 * percentiles, the per-run report, spans, CPU/RSS probes, and
 * counter deltas around a measured phase.
 *
 * Every workload fills one Report.  End-to-end metrics come from the
 * untraced measurement; per-layer metrics come from the traced run,
 * which calls each layer's public API one level lower per stage and
 * records a span around every call (see perfbench/METRICS.md).
 */

#ifndef SECUREDIMM_PERFBENCH_BENCH_HH
#define SECUREDIMM_PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/secure_memory_system.hh"
#include "util/metrics.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/**
 * Time limit of a single-thread stage.  Its first quarter warms the
 * caches (and a core that just came off the multi-threaded phase) and
 * is not recorded.
 */
class StageClock
{
  public:
    explicit StageClock(double seconds)
        : warm_(Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds / 4))),
          end_(Clock::now() +
               std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds)))
    {
    }
    bool running() const { return Clock::now() < end_; }
    bool recording(Clock::time_point t) const { return t >= warm_; }

  private:
    Clock::time_point warm_, end_;
};

/** Command-line arguments shared by every workload. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath; ///< Where the traced run writes its spans.
};

/** A timing sample set; summaries follow the benchmark's rules. */
class Samples
{
  public:
    void add(double v) { xs_.push_back(v); }
    void append(const Samples &o)
    {
        xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end());
    }
    std::size_t size() const { return xs_.size(); }
    double mean() const;
    /** Nearest-rank percentile, q in [0, 1]. */
    double percentile(double q) const;
    /**
     * p99 when at least 10 samples lie beyond it; otherwise the
     * highest percentile that has 10 samples beyond it.  @p q_out
     * receives the percentile actually used.
     */
    double tail(double *q_out) const;

  private:
    mutable std::vector<double> xs_;
    mutable bool sorted_ = false;
};

/** One traced call: name, interval, and the span that caused it. */
struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/**
 * Span sink.  Threads keep their own vectors and hand them over once
 * at the end of a stage, so recording costs one push_back per call.
 */
class SpanLog
{
  public:
    std::uint64_t newId();
    void absorb(std::vector<Span> &spans);
    /** Write every span as CSV (name,id,parent,start_ns,end_ns). */
    bool write(const std::string &path) const;
    std::size_t size() const { return spans_.size(); }

  private:
    std::atomic<std::uint64_t> nextId_{1};
    std::mutex mu_; ///< Guards spans_.
    std::vector<Span> spans_;
    Clock::time_point epoch_ = Clock::now();
};

/** (user + system) CPU seconds this process has used. */
double cpuSeconds();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Counter and histogram differences between two snapshots. */
class Delta
{
  public:
    Delta(const secdimm::util::MetricsRegistry &before,
          const secdimm::util::MetricsRegistry &after)
        : before_(before), after_(after)
    {
    }

    double counter(const std::string &name) const;
    /** Sum of the deltas of every counter named prefix*suffix. */
    double counterSum(const std::string &prefix,
                      const std::string &suffix) const;
    /** Mean of the samples gained by every histogram named
     *  prefix*suffix (0 if none). */
    double histogramMean(const std::string &prefix,
                         const std::string &suffix) const;
    /** Largest delta of the counters named prefix*suffix over their
     *  mean (1 = perfectly even). */
    double imbalance(const std::string &prefix,
                     const std::string &suffix) const;

  private:
    const secdimm::util::MetricsRegistry &before_;
    const secdimm::util::MetricsRegistry &after_;
};

/** a / b, or 0 when b is 0 (a layer that did no work). */
inline double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

/** Everything a run reports. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    SpanLog spans; ///< Filled by the traced run only.

    void e2e(const std::string &n, double v, const std::string &u)
    {
        endToEnd.push_back({n, v, u});
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        perLayer.push_back({n, v, u});
    }
    /** Record a failed output check; the run reports correct=false. */
    void fail(const std::string &why);
    /** Human-readable line printed before the result. */
    void note(const std::string &line);
};

/** Latency summary line: median and tail with sample counts. */
std::string describe(const std::string &what, const Samples &s);

/** Untraced warm-up before any measured phase: lets caches fill and
 *  lazy set-up finish. */
constexpr double kWarmupS = 2.0;

/** One completed operation of a closed-loop phase. */
struct OpSample
{
    float at; ///< Completion, seconds since the phase began.
    float us; ///< Latency.
    bool write;
};

double meanUs(const std::vector<OpSample> &ops);

/**
 * The host this runs on is shared: other tenants slow whole stretches
 * of a run by 20% and more, while the program does the same work in
 * every stretch.  So a measured phase is cut into equal windows, each
 * window gets its own rate, p50 and p99, and the reported value is the
 * kGoodQuantile-best window: a high quantile of the window rates and
 * a low quantile of the window latencies.  That tracks the program
 * rather than its neighbours, and repeats across runs where the
 * median of a disturbed run does not.
 */
constexpr double kGoodQuantile = 0.8;

/** The workload's own names for its metrics (e.g. kv_ops_per_s,
 *  kv_get, kv_put). */
struct PhaseNames
{
    const char *rate;
    const char *read;
    const char *write;
};

/**
 * Report throughput_per_s, latency_p50_us and latency_p99_us of a
 * measured phase of @p seconds cut into @p windows windows, and print
 * the workload's own names with whole-phase read and write latencies.
 */
void reportPhase(const std::vector<OpSample> &ops, double seconds,
                 unsigned windows, const PhaseNames &names,
                 Report &report);

void runKvZipf(const Args &args, Report &report);
void runBlockIndepSplit(const Args &args, Report &report);
/**
 * The simulator stage of the traced block_indepsplit run: the Fig 9
 * pair on the cycle model (sim.*, dram.*, host time per record and per
 * accessORAM).  The pair runs twice and must repeat bit-exactly.
 */
void runSimStage(std::uint64_t seed, Report &report);

/**
 * Crypto stage shared by both functional workloads: replay one
 * request's CTR and MAC work, with the per-request counts of @p d,
 * through crypto:: for @p seconds.  Reports the crypto.* metrics and
 * returns the CTR + MAC time per request in us.
 */
double runCryptoStage(const Delta &d, double seconds, Report &report);

/**
 * Report the counter-delta metrics both functional workloads share:
 * serve.stall_ns_per_request, serve.batch_size_mean,
 * serve.shard_imbalance and core.accesses_per_request.
 */
void reportServeCounts(const Delta &d, Report &report);

/**
 * Time @p setup, which builds the workload's state, @p repeats times
 * and return the median in seconds.  All but the last run in forked
 * children, so the repeats leave nothing behind in this process: its
 * peak RSS is that of one set-up plus the measured phase.  Call before
 * this process starts any thread.
 */
double measureSetup(unsigned repeats, const std::function<void()> &setup,
                    Report &report);

/**
 * Core stage shared by both functional workloads: single-thread
 * readBlock/writeBlock (50/50, uniform addresses) on one instance
 * built from @p shard.  Returns the mean access time in us.
 */
double runCoreStage(const secdimm::core::SecureMemorySystem::Options &shard,
                    std::uint64_t seed, double seconds, SpanLog &log,
                    Report &report);

/** Per-layer metrics every workload prints; a layer that does no
 *  work on the workload reports 0. */
const std::vector<std::pair<std::string, std::string>> &perLayerNames();

} // namespace perfbench

#endif // SECUREDIMM_PERFBENCH_BENCH_HH
