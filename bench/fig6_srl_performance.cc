/**
 * @file
 * Figure 6 — SRL performance comparison: percent speedup over the
 * 48-entry-STQ baseline of (a) the SRL design (1K SRL + 2K LCF 3-PAX +
 * 256x4 forwarding cache + indexed forwarding), (b) the hierarchical
 * store queue (48 L1 + 1K/8-cycle CAM L2 + MTB), and (c) an ideal
 * 1K-entry 3-cycle store queue.
 *
 * All (config, suite) points run in one parallel sweep batch through
 * the runner (`--jobs N` controls workers; the default uses every
 * hardware thread).
 *
 * Expected shape (paper): SRL competitive with the hierarchical design
 * across suites, ahead on WS, slightly behind on SINT2K/WEB/MM/SERVER,
 * and within ~6% of the ideal STQ.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace srl;
    const bench::BenchArgs args = bench::parseArgs(argc, argv);

    std::printf("=== Figure 6: SRL vs hierarchical vs ideal "
                "(%% speedup over 48-entry STQ) ===\n");
    bench::printSuiteHeader("configuration", args.suites);

    const std::vector<std::pair<std::string, core::ProcessorConfig>>
        configs = {
            {"baseline", core::baselineConfig()},
            {"SRL", core::srlConfig()},
            {"Hierarchical STQ", core::hierarchicalConfig()},
            {"Ideal STQ", core::idealConfig()},
        };
    bench::runAndPrintSpeedups(configs, args);
    return 0;
}
