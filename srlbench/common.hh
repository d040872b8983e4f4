/**
 * @file
 * Shared plumbing of the srlbench program: run arguments, the result
 * line, host timing, latency percentiles, peak RSS, and the in-memory
 * span recorder that the traced run (--trace 1) uses to attribute host
 * time to srlsim's modules.
 *
 * Spans are recorded only around calls into srlsim's public functions,
 * from the benchmark's own files: the program itself is not
 * instrumented.
 */

#ifndef SRLBENCH_COMMON_HH
#define SRLBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace srlbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Command-line arguments every workload receives. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** main() entry: the origin of setup_s. */
    Clock::time_point process_start;
};

/** What one workload run reports (the last stdout line). */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> value; names and units come from the metric lists. */
    std::map<std::string, double> metrics;

    void set(const std::string &name, double value) { metrics[name] = value; }
};

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/**
 * Tail of @p v: the highest whole percentile p such that at least ten
 * samples lie above it (nearest-rank). With fewer than 40 samples
 * there is no tail, and the median is returned with @p pct = 50.
 */
double tailValue(std::vector<double> v, int &pct);

/** Peak resident set of this process (and of its reaped children). */
double peakRssMb();
double peakChildRssMb();

/**
 * One recorded span: [t0, t1] of a call into layer @p name. Spans of
 * one operation share @p op; nesting follows from their intervals.
 */
struct Span
{
    std::string name;
    double t0 = 0.0; ///< seconds since the tracer's origin
    double t1 = 0.0;
    std::uint64_t op = 0; ///< operation the span belongs to
};

/**
 * Thread-safe in-memory span log. Disabled tracers record nothing and
 * cost one branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** Record a finished span. */
    void record(const std::string &name, Clock::time_point t0,
                Clock::time_point t1, std::uint64_t op);

    /** Total seconds of spans named @p name. */
    double total(const std::string &name) const;

    /** Write all spans as a Chrome trace (one lane per operation). */
    void writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

/** RAII span: records [construction, destruction] when enabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t op)
        : tracer_(tracer), name_(name), op_(op), t0_(Clock::now())
    {
    }
    ~ScopedSpan()
    {
        if (tracer_.enabled())
            tracer_.record(name_, t0_, Clock::now(), op_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    const char *name_;
    std::uint64_t op_;
    Clock::time_point t0_;
};

/**
 * Closed loop of @p threads workers over operations [0, n): each worker
 * takes the next index only after its previous call returned. All
 * workers are joined before this returns; the first exception thrown
 * by @p fn is rethrown then.
 */
void closedLoop(std::size_t n, unsigned threads,
                const std::function<void(std::size_t op)> &fn);

/**
 * @p items in the order of round @p round of a run with seed @p seed:
 * a Fisher-Yates shuffle driven by a PCG stream keyed by both, so each
 * round takes its own order and a run averages over many.
 */
std::vector<std::size_t> roundOrder(std::vector<std::size_t> items,
                                    std::uint64_t seed, std::uint64_t round);

/** Load threads the benchmark uses: one per core, at most 4. */
unsigned loadThreads();

/** Directory for the benchmark's scratch files (inside the checkout). */
std::string workDir();

/** The workloads; each fills @p out and returns normally. */
void runFig6Sweep(const Args &args, Outcome &out);
void runSampledSmarts(const Args &args, Outcome &out);
void runServedCampaign(const Args &args, Outcome &out);

/**
 * Every end-to-end and per-layer metric name, so each run prints the
 * full set whatever the workload (a layer a workload does not use
 * reads 0 in its traced run).
 */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

} // namespace srlbench

#endif // SRLBENCH_COMMON_HH
