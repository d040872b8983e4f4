/**
 * @file
 * The sweep daemon: a long-running server that executes design-point
 * simulations on demand over a unix socket, backed by the
 * content-addressed result cache. Start it once, point any number of
 * `sweep_tool --server` clients at it, and identical points simulate
 * exactly once — across clients, across batches, and (through the disk
 * store) across daemon restarts.
 *
 *   serve_tool --socket /tmp/srlsim.sock --cache-dir /tmp/srlsim-cache
 *
 * Options:
 *   --socket PATH      unix socket to listen on (required)
 *   --cache-dir DIR    result store directory (default: in-memory
 *                      coalescing only, nothing persisted)
 *   --jobs N           concurrent simulations (default: all hardware
 *                      threads)
 *   --queue-depth N    max queued jobs before busy backpressure
 *                      (default 64)
 *   --retry-ms N       retry hint sent with busy responses (default 200)
 *   --max-entries N    cap on stored cache entries, oldest evicted
 *                      (default 0 = unbounded)
 *   --ckpt-dir DIR     srlsim-ckpt-v1 checkpoint directory for sampled
 *                      points: shard requests restore from (and save
 *                      into) this store
 *   --sample-jobs N    detail workers per sampled point (DESIGN.md
 *                      §14); a server-side throughput knob only —
 *                      sampled results (and cache keys) are identical
 *                      at any value (default 1)
 *   --stats-out FILE   write the service/cache counters report
 *                      (srlsim-stats-v1) on exit
 *
 * SIGTERM / SIGINT trigger a graceful drain: the listener stops
 * accepting, every admitted job runs to completion and delivers its
 * result, connections are closed, and the counters report is written.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/result_cache.hh"
#include "service/server.hh"
#include "service/service.hh"

using namespace srl;

namespace
{

service::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->requestStop();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--cache-dir DIR] [--jobs N] "
                 "[--queue-depth N] [--retry-ms N] [--max-entries N] "
                 "[--ckpt-dir DIR] [--sample-jobs N] "
                 "[--stats-out FILE]\n",
                 argv0);
    std::exit(1);
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return;
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string cache_dir;
    std::string stats_out;
    service::ServiceOptions svc_opts;
    std::size_t max_entries = 0;

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            if (std::strcmp(argv[i], name) != 0 || i + 1 >= argc)
                return static_cast<const char *>(nullptr);
            return static_cast<const char *>(argv[++i]);
        };
        if (const char *v = arg("--socket")) {
            socket_path = v;
        } else if (const char *v = arg("--cache-dir")) {
            cache_dir = v;
        } else if (const char *v = arg("--jobs")) {
            svc_opts.jobs =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (const char *v = arg("--queue-depth")) {
            svc_opts.queue_depth = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--retry-ms")) {
            svc_opts.retry_after_ms =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (const char *v = arg("--max-entries")) {
            max_entries = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--ckpt-dir")) {
            svc_opts.ckpt_dir = v;
        } else if (const char *v = arg("--sample-jobs")) {
            svc_opts.sample_jobs =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (const char *v = arg("--stats-out")) {
            stats_out = v;
        } else {
            usage(argv[0]);
        }
    }
    if (socket_path.empty())
        usage(argv[0]);

    service::ResultCache cache({cache_dir, max_entries});
    service::SweepService svc(cache, svc_opts);
    service::Server server(svc, {socket_path});
    if (!server.start())
        return 1;

    g_server = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);

    std::fprintf(stderr,
                 "serve_tool: listening on %s (cache: %s, jobs: %u)\n",
                 socket_path.c_str(),
                 cache_dir.empty() ? "<none>" : cache_dir.c_str(),
                 svc_opts.jobs);

    const std::uint64_t served = server.run();

    const stats::StatsReport rep = svc.statsReport();
    if (!stats_out.empty())
        writeFile(stats_out, rep.toJson());

    const auto &c = cache.counters();
    std::fprintf(stderr,
                 "serve_tool: drained; %llu connections, "
                 "%llu hits / %llu misses / %llu coalesced\n",
                 static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(c.hits),
                 static_cast<unsigned long long>(c.misses),
                 static_cast<unsigned long long>(c.coalesced));
    std::remove(socket_path.c_str());
    return 0;
}
