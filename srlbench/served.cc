/**
 * @file
 * served_campaign: a closed loop of clients against the serve_tool
 * daemon over its unix socket, starting every round from an empty
 * on-disk result cache.
 *
 * The design points are the canonical 11-point SRL design-space sweep
 * (service::canonicalSweepSpecs) for two suites, SFP2K and WEB, at
 * 20k uops, with run seeds derived from --seed. Each distinct point is
 * requested kRepeats times. Each round shuffles the request list by
 * --seed and the round number, and kClients clients take alternate
 * entries of it, each sending its next request only when the previous
 * one returned. First requests compute
 * and store cache entries while repeats read them back or coalesce
 * onto the computation in flight.
 *
 * One operation is one request. A round launches a fresh daemon on an
 * empty cache, runs the campaign, reads the daemon's counters, and
 * stops it with SIGTERM; rounds repeat until --seconds have passed.
 *
 * Checks: every served record is byte-identical to a direct runSweep
 * of the same point; the daemon counts one miss per distinct point and
 * hits plus coalesced equal to the repeats; SIGTERM drains the daemon,
 * which exits 0. A daemon still running when the benchmark leaves (on
 * any path) is killed and reaped, and dies with the benchmark.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "checks.hh"
#include "common.hh"
#include "common/chash.hh"
#include "runner/sweep.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "service/service.hh"

namespace srlbench
{

namespace
{

constexpr std::uint64_t kUops = 20000;
constexpr unsigned kRepeats = 4;
constexpr unsigned kClients = 2;    // one thread + one connection each
constexpr unsigned kDaemonJobs = 2; // simulations the daemon runs at once
const char *const kSuites[] = {"SFP2K", "WEB"};

namespace fs = std::filesystem;

std::string
selfDir()
{
    char buf[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        throw std::runtime_error("cannot locate the benchmark binary");
    buf[n] = '\0';
    return fs::path(buf).parent_path().string();
}

bool
socketAccepts(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const bool ok = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) == 0;
    ::close(fd);
    return ok;
}

/**
 * One serve_tool process. The destructor kills and reaps a daemon that
 * was not stopped, and the daemon gets SIGKILL should the benchmark
 * die first, so none outlives the run.
 */
class Daemon
{
  public:
    Daemon(const std::string &exe, const std::string &socket,
           const std::string &cache_dir)
    {
        const std::string jobs = std::to_string(kDaemonJobs);
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0)
                ::dup2(devnull, STDERR_FILENO);
            ::execl(exe.c_str(), exe.c_str(), "--socket", socket.c_str(),
                    "--cache-dir", cache_dir.c_str(), "--jobs", jobs.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        const auto t0 = Clock::now();
        while (!socketAccepts(socket)) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("serve_tool exited at start-up");
            }
            if (secondsSince(t0) > 30.0)
                throw std::runtime_error("serve_tool socket never ready");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** SIGTERM, wait for the drain. @return true iff it exited 0. */
    bool
    stop()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        const pid_t r = ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
};

double
counter(const srl::stats::StatsReport &rep, const std::string &run,
        const std::string &key)
{
    for (const auto &r : rep.runs)
        if (r.name == run && r.hasMetric(key))
            return r.metric(key);
    throw std::runtime_error("daemon stats lack " + run + "." + key);
}

struct Request
{
    std::size_t point = 0; ///< index into the distinct points
    double latency_ms = 0.0;
    bool cached = false; ///< answered from the cache or coalesced
    std::string record;  ///< the served record, encoded
    std::size_t variant = 0; ///< index into its point's distinct records
    std::uint64_t busy = 0;
    std::string failure;
};

} // namespace

void
runServedCampaign(const Args &args, Outcome &out)
{
    // ---- set-up: the campaign's points and request order, a daemon ----
    std::uint64_t base_seed = srl::splitmix64(args.seed ^ 0xca4a16);
    base_seed = base_seed ? base_seed : 1;
    std::vector<srl::service::PointSpec> specs;
    for (const char *suite : kSuites) {
        for (auto spec :
             srl::service::canonicalSweepSpecs(suite, kUops, base_seed)) {
            spec.name = std::string(suite) + "/" + spec.name;
            specs.push_back(std::move(spec));
        }
    }
    const std::size_t distinct = specs.size();
    const std::size_t per_suite = distinct / std::size(kSuites);
    std::vector<std::size_t> requests; // each point kRepeats times
    for (unsigned r = 0; r < kRepeats; ++r)
        for (std::size_t p = 0; p < distinct; ++p)
            requests.push_back(p);

    const std::string exe = selfDir() + "/serve_tool";
    const std::string root = workDir() + "/served";
    const std::string socket = root + "/srv.sock";
    fs::remove_all(root);
    fs::create_directories(root);

    // ---- timed rounds ----
    Tracer tracer(args.trace);
    const std::size_t n = requests.size();
    std::vector<Request> all; // every request of every round
    // Distinct served records of each point (one unless the daemon
    // is nondeterministic).
    std::vector<std::vector<std::string>> variants(distinct);
    std::vector<double> latencies_ms, hit_ms, miss_ms;
    std::vector<double> untraced_walls, traced_walls;
    std::vector<double> detail_rates, served_rates; // per round, uops/s
    double setup_s = 0.0;
    double hits = 0, misses = 0, coalesced = 0, busy = 0, queue_peak = 0;
    std::uint64_t rounds = 0;
    double peak_rss = 0.0;
    const auto timed_start = Clock::now();
    // A traced run needs an untraced and a traced round at least.
    const std::uint64_t min_rounds = args.trace ? 2 : 1;
    while (rounds < min_rounds || secondsSince(timed_start) < args.seconds) {
        const bool traced_round = args.trace && rounds % 2 == 1;
        const std::string cache_dir =
            root + "/cache-" + std::to_string(rounds);
        Daemon daemon(exe, socket, cache_dir);
        if (rounds == 0)
            setup_s = secondsSince(args.process_start);

        const std::vector<std::size_t> order =
            roundOrder(requests, args.seed, rounds);
        std::vector<Request> reqs(n);
        const auto r0 = Clock::now();
        std::vector<std::thread> clients;
        std::mutex error_mutex;
        std::string client_error; // guarded by error_mutex
        for (unsigned c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                try {
                    srl::service::Client client;
                    if (!client.connect(socket))
                        throw std::runtime_error("cannot connect");
                    for (std::size_t i = c; i < n; i += kClients) {
                        Request &q = reqs[i];
                        q.point = order[i];
                        const auto t0 = Clock::now();
                        const srl::stats::StatsReport rep =
                            client.runSweep({specs[q.point]}, base_seed);
                        const auto t1 = Clock::now();
                        q.latency_ms = secondsBetween(t0, t1) * 1e3;
                        if (traced_round)
                            tracer.record("service.request", t0, t1,
                                          rounds * n + i);
                        q.cached = client.lastCachedResults() > 0;
                        q.busy = client.lastBusyRetries();
                        if (rep.runs.size() != 1)
                            q.failure = "daemon returned " +
                                        std::to_string(rep.runs.size()) +
                                        " records";
                        else
                            q.record =
                                srl::service::encodeRecord(rep.runs[0]);
                    }
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    client_error = e.what();
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
        const double wall = secondsSince(r0);
        if (!client_error.empty())
            throw std::runtime_error("client: " + client_error);

        // The daemon's own counters, then a SIGTERM drain.
        srl::service::Client probe;
        if (!probe.connect(socket))
            throw std::runtime_error("cannot reconnect for stats");
        const srl::stats::StatsReport st = probe.fetchStats();
        probe.close();
        const bool drained = daemon.stop();

        const double h = counter(st, "result_cache", "hits");
        const double m = counter(st, "result_cache", "misses");
        const double co = counter(st, "result_cache", "coalesced");
        std::string round_failure;
        if (!drained)
            round_failure = "daemon did not exit 0 after SIGTERM";
        else if (m != static_cast<double>(distinct))
            round_failure = "daemon computed " + std::to_string(m) +
                            " points, campaign has " +
                            std::to_string(distinct) + " distinct";
        else if (h + co != static_cast<double>(n - distinct))
            round_failure = "hits + coalesced = " + std::to_string(h + co) +
                            ", repeats = " + std::to_string(n - distinct);
        else if (fs::exists(socket))
            round_failure = "daemon left its socket behind";
        if (!round_failure.empty())
            std::fprintf(stderr, "srlbench: FAIL round %llu: %s\n",
                         static_cast<unsigned long long>(rounds),
                         round_failure.c_str());

        for (std::size_t i = 0; i < n; ++i) {
            Request &q = reqs[i];
            if (!round_failure.empty() && q.failure.empty())
                q.failure = round_failure;
            if (!traced_round) {
                latencies_ms.push_back(q.latency_ms);
                (q.cached ? hit_ms : miss_ms).push_back(q.latency_ms);
            }
            busy += static_cast<double>(q.busy);
            // Keep each distinct record once, not once per request.
            auto &v = variants[q.point];
            q.variant = static_cast<std::size_t>(
                std::find(v.begin(), v.end(), q.record) - v.begin());
            if (q.variant == v.size())
                v.push_back(std::move(q.record));
            q.record = std::string();
        }
        all.insert(all.end(), std::make_move_iterator(reqs.begin()),
                   std::make_move_iterator(reqs.end()));
        (traced_round ? traced_walls : untraced_walls).push_back(wall);
        if (!traced_round) {
            detail_rates.push_back(m * static_cast<double>(kUops) / wall);
            served_rates.push_back(static_cast<double>(n * kUops) / wall);
        }
        hits += h;
        misses += m;
        coalesced += co;
        queue_peak =
            std::max(queue_peak, counter(st, "service", "queue_peak"));
        fs::remove_all(cache_dir);
        // Peak RSS of the set-up and one round: later rounds repeat it.
        if (rounds == 0)
            peak_rss = peakRssMb() + peakChildRssMb();
        ++rounds;
    }

    // ---- checks (untimed): served records against direct runSweep ----
    std::vector<std::string> direct;
    for (std::size_t s = 0; s < std::size(kSuites); ++s) {
        const std::vector<srl::service::PointSpec> suite_specs(
            specs.begin() + static_cast<std::ptrdiff_t>(s * per_suite),
            specs.begin() + static_cast<std::ptrdiff_t>((s + 1) * per_suite));
        const srl::stats::StatsReport rep = srl::runner::runSweep(
            srl::service::materializePoints(suite_specs),
            {loadThreads(), base_seed, true});
        for (const auto &rec : rep.runs)
            direct.push_back(srl::service::encodeRecord(rec));
    }
    std::uint64_t failed = 0;
    for (Request &q : all) {
        const std::string &got = variants[q.point].at(q.variant);
        if (q.failure.empty() && got != direct.at(q.point))
            q.failure = checkServedRecord(
                srl::stats::StatsReport::fromJson(got).runs.at(0),
                srl::stats::StatsReport::fromJson(direct[q.point]).runs.at(0));
        if (q.failure.empty())
            continue;
        if (failed++ < 5)
            std::fprintf(stderr, "srlbench: FAIL request for %s: %s\n",
                         specs[q.point].name.c_str(), q.failure.c_str());
    }
    out.attempted = all.size();
    out.failed = failed;
    std::printf("served_campaign: %llu rounds x %zu requests (%zu distinct "
                "points), %llu requests fail their checks\n",
                static_cast<unsigned long long>(rounds), n, distinct,
                static_cast<unsigned long long>(failed));

    // ---- end-to-end metrics ----
    int tail_pct = 50;
    const double per_round = static_cast<double>(rounds);
    out.set("setup_s", setup_s);
    out.set("detail_uops_per_s", median(detail_rates));
    out.set("sampled_uops_per_s", median(served_rates));
    out.set("campaign_s", median(untraced_walls));
    out.set("op_p50_ms", median(latencies_ms));
    out.set("op_tail_ms", tailValue(latencies_ms, tail_pct));
    out.set("peak_rss_mb", peak_rss);
    std::printf("served_campaign: campaign %.3f s, request p50 %.2f ms, "
                "p%d %.2f ms (%zu samples); hit p50 %.2f ms, miss p50 "
                "%.2f ms\n",
                median(untraced_walls), median(latencies_ms), tail_pct,
                out.metrics["op_tail_ms"], latencies_ms.size(),
                median(hit_ms), median(miss_ms));
    if (!args.trace)
        return;

    // ---- per-layer metrics ----
    out.set("service.hits", hits / per_round);
    out.set("service.misses", misses / per_round);
    out.set("service.coalesced", coalesced / per_round);
    out.set("service.busy_retries", busy / per_round);
    out.set("service.queue_peak", queue_peak);
    out.set("service.hit_p50_ms", median(hit_ms));
    out.set("service.miss_p50_ms", median(miss_ms));
    out.set("trace.overhead_ratio",
            median(traced_walls) / median(untraced_walls) - 1.0);

    // The cache and codec layers, called in-process on this campaign's
    // records: a store into an empty cache, a lookup of each entry,
    // and a record encode + decode.
    const std::string probe_dir = root + "/probe-cache";
    fs::remove_all(probe_dir);
    srl::service::ResultCache cache({probe_dir, 0});
    std::vector<srl::stats::RunRecord> records;
    for (const std::string &bytes : direct)
        records.push_back(srl::stats::StatsReport::fromJson(bytes).runs.at(0));
    for (std::size_t p = 0; p < records.size(); ++p) {
        const srl::chash::Hash128 key =
            srl::chash::hashBytes(specs[p].name.data(), specs[p].name.size());
        {
            ScopedSpan s(tracer, "service.store", p);
            cache.getOrCompute(key, [&] { return records[p]; });
        }
        srl::stats::RunRecord back;
        {
            ScopedSpan s(tracer, "service.lookup", p);
            if (!cache.lookup(key, back))
                throw std::runtime_error("probe cache lost an entry");
        }
        {
            ScopedSpan s(tracer, "service.codec", p);
            const std::string bytes = srl::service::encodeRecord(back);
            if (srl::stats::StatsReport::fromJson(bytes).runs.size() != 1)
                throw std::runtime_error("codec round trip failed");
        }
    }
    fs::remove_all(probe_dir);
    const double np = static_cast<double>(records.size());
    out.set("service.store_ms", tracer.total("service.store") * 1e3 / np);
    out.set("service.lookup_ms", tracer.total("service.lookup") * 1e3 / np);
    out.set("service.codec_ms", tracer.total("service.codec") * 1e3 / np);
    tracer.writeChromeTrace(workDir() + "/spans-served_campaign.json");
}

} // namespace srlbench
