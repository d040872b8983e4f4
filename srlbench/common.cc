#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <cmath>
#include <cstdio>

#include "common/random.hh"

namespace srlbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tailValue(std::vector<double> v, int &pct)
{
    pct = 50;
    if (v.size() < 40)
        return median(std::move(v));
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    for (int p = 99; p > 50; --p) {
        // Nearest rank: the value at rank ceil(p/100 * n).
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(static_cast<double>(p) / 100.0 *
                      static_cast<double>(n)));
        if (n - rank >= 10) {
            pct = p;
            return v[rank - 1];
        }
    }
    return median(std::move(v));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
peakChildRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
Tracer::record(const std::string &name, Clock::time_point t0,
               Clock::time_point t1, std::uint64_t op)
{
    if (!enabled_)
        return;
    Span s{name, secondsBetween(origin_, t0), secondsBetween(origin_, t1),
           op};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

double
Tracer::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.t1 - s.t0;
    return sum;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "srlbench: cannot write %s\n", path.c_str());
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f}\n",
                     i ? "," : "", s.name.c_str(),
                     static_cast<unsigned long long>(s.op), s.t0 * 1e6,
                     (s.t1 - s.t0) * 1e6);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

void
closedLoop(std::size_t n, unsigned threads,
           const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error; // guarded by error_mutex
    const auto worker = [&] {
        try {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
            next = n; // stop the other workers early
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < threads; ++w)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

std::vector<std::size_t>
roundOrder(std::vector<std::size_t> items, std::uint64_t seed,
           std::uint64_t round)
{
    srl::Random rng(srl::splitmix64(seed ^ srl::splitmix64(round + 1)));
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1],
                  items[rng.below(static_cast<std::uint32_t>(i))]);
    return items;
}

unsigned
loadThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

std::string
workDir()
{
    return ".bench_build/srlbench/work";
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> k{
        {"detail_uops_per_s", "uops/s"}, {"sampled_uops_per_s", "uops/s"},
        {"campaign_s", "s"},             {"op_p50_ms", "ms"},
        {"op_tail_ms", "ms"},            {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return k;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> k{
        // fig6_sweep: the detailed pipeline and what it calls.
        {"core.run_s", "s"},
        {"core.run_s.baseline", "s"},
        {"core.run_s.srl", "s"},
        {"core.run_s.hierarchical", "s"},
        {"core.run_s.ideal", "s"},
        {"core.ns_per_ticked_cycle", "ns"},
        {"core.skipped_cycle_ratio", "ratio"},
        {"core.sim_cycles", "count"},
        {"core.construct_s", "s"},
        {"lsq.redone_stores", "count"},
        {"lsq.srl_stalled_loads", "count"},
        {"lsq.indexed_forwards", "count"},
        {"lsq.mem_violations", "count"},
        {"memsys.mem_misses", "count"},
        {"predictor.branch_mispredicts", "count"},
        {"workload.gen_s", "s"},
        {"workload.prewarm_s", "s"},
        {"obs.events.core", "count"},
        {"obs.events.checkpoint", "count"},
        {"obs.events.sdb", "count"},
        {"obs.events.srl", "count"},
        {"obs.events.lcf", "count"},
        {"obs.events.fwd_cache", "count"},
        {"obs.events.load_buffer", "count"},
        {"obs.events.memory", "count"},
        {"obs.overhead_ratio", "ratio"},
        // sampled_smarts: fast-forward, handoff and detail tiers.
        {"ff.pure_s", "s"},
        {"ff.warm_s", "s"},
        {"detail.run_s", "s"},
        {"snapshot.build_ms", "ms"},
        {"snapshot.adopt_ms", "ms"},
        {"snapshot.payload_mb", "MB"},
        {"sampled.producer_s", "s"},
        {"sampled.worker_s", "s"},
        {"sampled.overlap_ratio", "ratio"},
        // served_campaign: daemon, cache and codec.
        {"service.lookup_ms", "ms"},
        {"service.store_ms", "ms"},
        {"service.codec_ms", "ms"},
        {"service.hits", "count"},
        {"service.misses", "count"},
        {"service.coalesced", "count"},
        {"service.busy_retries", "count"},
        {"service.queue_peak", "count"},
        {"service.hit_p50_ms", "ms"},
        {"service.miss_p50_ms", "ms"},
        // Every workload: traced rounds against untraced ones.
        {"trace.overhead_ratio", "ratio"},
    };
    return k;
}

} // namespace srlbench
