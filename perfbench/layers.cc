/**
 * @file
 * perf_layers: the per-layer half of the trngd benchmark.
 *
 * Builds the workload's pool members in-process from the same config
 * file the daemon reads and times calls into each layer's public
 * functions from outside, recording one span (id, parent, name, start,
 * end) per call. Spans stay in memory and are written to --spans when
 * the run ends; the metrics are printed as one JSON object.
 *
 *   core        first EntropySource::generate (profiling included),
 *               then steady generate() calls: host and simulated Mb/s
 *   controller  one ACT/READ/WRITE/PRE round over the member's
 *               sampling words through ctrl::CommandScheduler
 *   dram        one reduced-tRCD dram::DramDevice::read
 *   trng        ConditioningPipeline::process on a 256-bit take, and
 *               Session::read against a trng::Service whose members
 *               are "replay" sources (pre-generated bits), so no
 *               harvest cost reaches the serving layers
 *   net         a net::Server over that replay-backed service; the
 *               harness prints "PORT <n>" and serves until stdin
 *               closes, while run.py points the load generator at it
 *
 * Checks (exit 1 when one fails): a one-member replay-backed service
 * returns the replay stream bit-exact and in order, and two fresh
 * members built from the same seeds produce identical bits and
 * identical simulated time.
 *
 *   perf_layers --config keys.conf --seconds 6 --readers 4 \
 *       --bulk-readers 1 --spans spans.csv
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "controller/scheduler.hh"
#include "core/drange.hh"
#include "dram/device.hh"
#include "net/server.hh"
#include "replay_source.hh"
#include "trng/conditioning.hh"
#include "trng/registry.hh"
#include "trng/service.hh"

using namespace drange;

namespace {

using Clock = std::chrono::steady_clock;

/** Bulk read size: the largest bulk request of the workloads (4 KiB). */
constexpr std::size_t kBulkBits = 4096 * 8;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------ spans

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; //!< 0: a top-level span.
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t durationNs() const { return end_ns - start_ns; }
};

/** In-memory span log; thread-safe, written out once at the end. */
class SpanLog
{
  public:
    std::uint32_t open(const char *name, std::uint32_t parent)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.id = static_cast<std::uint32_t>(spans_.size() + 1);
        s.parent = parent;
        s.name = name;
        s.start_ns = nowNs();
        spans_.push_back(s);
        return s.id;
    }

    /** @return the closed span's duration. */
    std::int64_t close(std::uint32_t id)
    {
        const std::int64_t end = nowNs();
        const std::lock_guard<std::mutex> lock(mu_);
        Span &s = spans_[id - 1];
        s.end_ns = end;
        return s.durationNs();
    }

    /** Record an already-timed call. */
    void add(const char *name, std::uint32_t parent, std::int64_t start,
             std::int64_t end)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.id = static_cast<std::uint32_t>(spans_.size() + 1);
        s.parent = parent;
        s.name = name;
        s.start_ns = start;
        s.end_ns = end;
        spans_.push_back(s);
    }

    void write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + path);
        std::fprintf(f, "id,parent,name,start_ns,end_ns\n");
        for (const Span &s : spans_)
            std::fprintf(f, "%u,%u,%s,%lld,%lld\n", s.id, s.parent,
                         s.name, static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.end_ns));
        std::fclose(f);
    }

  private:
    std::mutex mu_;
    std::vector<Span> spans_;
};

SpanLog g_spans;

/** Read results land here so the timed calls cannot be elided. */
volatile std::uint64_t g_sink = 0;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options
{
    std::string config;
    std::string spans = "spans.csv";
    double seconds = 6;
    int readers = 1;       //!< Concurrent 256-bit readers.
    int bulk_readers = 1;  //!< Concurrent bulk readers.
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perf_layers --config FILE [--seconds S] "
                 "[--readers N] [--bulk-readers N] "
                 "[--spans FILE]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const char *v = argv[i + 1];
        if (a == "--config")
            o.config = v;
        else if (a == "--spans")
            o.spans = v;
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--readers")
            o.readers = std::max(1, std::atoi(v));
        else if (a == "--bulk-readers")
            o.bulk_readers = std::max(1, std::atoi(v));
        else
            usage();
    }
    if (o.config.empty() || argc % 2 == 0 || o.seconds <= 0)
        usage();
    return o;
}

void
check(bool ok, const std::string &what)
{
    if (!ok)
        throw std::runtime_error("check failed: " + what);
}

// ------------------------------------------------------------- core

struct CoreResult
{
    double init_s = 0;
    double harvest_host_mbps = 0;
    double harvest_sim_mbps = 0;
};

/** First generate() of three fresh members (the median is init_s;
 * two of them must agree bit for bit), then steady generate() calls
 * on one of them for @p budget_s. */
CoreResult
measureCore(const trng::PoolMemberConfig &member, double budget_s)
{
    CoreResult r;
    const std::uint32_t top = g_spans.open("core", 0);
    constexpr std::size_t kFirstBits = 4096;
    constexpr std::size_t kBatchBits = 1u << 16;

    std::vector<std::unique_ptr<trng::EntropySource>> fresh;
    std::vector<double> init_s;
    for (int i = 0; i < 3; ++i) {
        fresh.push_back(trng::Registry::make(member.source,
                                             member.params));
        const std::uint32_t span = g_spans.open("core.init", top);
        (void)fresh.back()->generate(kFirstBits);
        init_s.push_back(static_cast<double>(g_spans.close(span)) / 1e9);
    }
    r.init_s = median(init_s);

    // Same seeds, same bits, same simulated time.
    const util::BitStream a = fresh[0]->generate(kBatchBits);
    const double a_sim = fresh[0]->stats().sim_ns;
    const util::BitStream b = fresh[1]->generate(kBatchBits);
    const double b_sim = fresh[1]->stats().sim_ns;
    check(a.size() == b.size() && a.words() == b.words(),
          "two members with the same seeds produced different bits");
    check(a_sim == b_sim, "two members with the same seeds took "
                          "different simulated time");

    trng::EntropySource &src = *fresh[2];
    double host_ns = 0, sim_ns = 0;
    std::uint64_t bits = 0;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(budget_s * 1e9);
    while (nowNs() < deadline || bits == 0) {
        const std::uint32_t span = g_spans.open("core.generate", top);
        const util::BitStream out = src.generate(kBatchBits);
        host_ns += static_cast<double>(g_spans.close(span));
        sim_ns += src.stats().sim_ns;
        bits += out.size();
    }
    r.harvest_host_mbps = static_cast<double>(bits) / host_ns * 1e3;
    r.harvest_sim_mbps = static_cast<double>(bits) / sim_ns * 1e3;
    g_spans.close(top);
    return r;
}

// ----------------------------------------------- controller + dram

/** The member's device and engine, configured like the "drange"
 * source does from the same keys. */
struct Engine
{
    std::unique_ptr<dram::DramDevice> device;
    std::unique_ptr<core::DRangeTrng> trng;
};

Engine
buildEngine(const trng::Params &p)
{
    check(p.getString("manufacturer", "A") == "A",
          "the harness builds manufacturer A devices only");
    dram::DeviceConfig dc = dram::DeviceConfig::make(
        dram::Manufacturer::A,
        static_cast<std::uint64_t>(p.getInt("seed", 1)),
        static_cast<std::uint64_t>(p.getInt("noise_seed", 0)));
    if (const std::int64_t rows = p.getInt("rows_per_bank", 0); rows > 0)
        dc.geometry.rows_per_bank = static_cast<int>(rows);
    core::DRangeConfig cfg;
    cfg.banks = static_cast<int>(p.getInt("banks", cfg.banks));
    cfg.profile_rows =
        static_cast<int>(p.getInt("profile_rows", cfg.profile_rows));
    cfg.profile_words =
        static_cast<int>(p.getInt("profile_words", cfg.profile_words));
    cfg.identify.screen_iterations = static_cast<int>(p.getInt(
        "screen_iterations", cfg.identify.screen_iterations));
    cfg.identify.samples =
        static_cast<int>(p.getInt("samples", cfg.identify.samples));
    for (const std::string &key : p.keys())
        check(key == "seed" || key == "noise_seed" ||
                  key == "rows_per_bank" || key == "banks" ||
                  key == "profile_rows" || key == "profile_words" ||
                  key == "screen_iterations" || key == "samples" ||
                  key == "chunk_bits",
              "the harness does not map member key \"" + key + "\"");
    Engine e;
    e.device = std::make_unique<dram::DramDevice>(dc);
    e.trng = std::make_unique<core::DRangeTrng>(*e.device, cfg);
    e.trng->initialize();
    e.trng->enterSamplingMode();
    return e;
}

/** Median microseconds of one sampling round through the scheduler. */
double
measureController(Engine &e, double budget_s)
{
    const std::uint32_t top = g_spans.open("controller", 0);
    ctrl::CommandScheduler &sched = e.trng->scheduler();
    const auto &sel = e.trng->selection();
    std::vector<double> us;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(budget_s * 1e9);
    while ((nowNs() < deadline && us.size() < 20000) || us.empty()) {
        const std::int64_t start = nowNs();
        for (int d = 0; d < 2; ++d) {
            for (const core::BankSelection &s : sel) {
                sched.activate(s.bank, s.words[d].row);
                std::uint64_t value = 0;
                sched.read(s.bank, s.words[d].word, value);
                g_sink = g_sink + value;
            }
            for (const core::BankSelection &s : sel)
                sched.write(s.bank, s.words[d].word, s.pattern_word[d]);
            for (const core::BankSelection &s : sel)
                sched.precharge(s.bank);
        }
        sched.refreshTick();
        const std::int64_t end = nowNs();
        g_spans.add("controller.round", top, start, end);
        us.push_back(static_cast<double>(end - start) / 1e3);
    }
    g_spans.close(top);
    return median(us);
}

/** Median nanoseconds of one first-after-ACT read at reduced tRCD. */
double
measureDram(Engine &e, double budget_s)
{
    const std::uint32_t top = g_spans.open("dram", 0);
    dram::DramDevice &dev = *e.device;
    const auto &sel = e.trng->selection();
    const double trcd = e.trng->config().reduced_trcd_ns;
    double t = e.trng->scheduler().now() + 1000.0;
    std::vector<double> ns;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(budget_s * 1e9);
    std::size_t i = 0;
    while ((nowNs() < deadline && ns.size() < 50000) || ns.empty()) {
        const core::BankSelection &s = sel[i % sel.size()];
        const int d = static_cast<int>((i / sel.size()) % 2);
        ++i;
        dev.activate(t, s.bank, s.words[d].row);
        t += trcd;
        const std::int64_t start = nowNs();
        g_sink = g_sink + dev.read(t, s.bank, s.words[d].word);
        const std::int64_t end = nowNs();
        g_spans.add("dram.read", top, start, end);
        ns.push_back(static_cast<double>(end - start));
        t += 20.0;
        dev.write(t, s.bank, s.words[d].word, s.pattern_word[d]);
        t += 40.0;
        dev.precharge(t, s.bank);
        t += 40.0;
    }
    g_spans.close(top);
    return median(ns);
}

// ------------------------------------------------------------- trng

double
measureSha256(double budget_s)
{
    const std::uint32_t top = g_spans.open("trng.sha256", 0);
    trng::ConditioningPipeline pipe = trng::makePipeline({"sha256"});
    const util::BitStream take = perfbench::replayStream(7, 256);
    std::vector<double> us;
    std::size_t out_bits = 0;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(budget_s * 1e9);
    while ((nowNs() < deadline && us.size() < 50000) || us.empty()) {
        util::BitStream in = take;
        const std::int64_t start = nowNs();
        out_bits += pipe.process(std::move(in)).size();
        const std::int64_t end = nowNs();
        g_spans.add("trng.sha256.process", top, start, end);
        us.push_back(static_cast<double>(end - start) / 1e3);
    }
    check(out_bits == 256 * us.size(), "sha256 take of 256 bits did "
                                       "not yield 256 bits");
    g_spans.close(top);
    return median(us);
}

/** The workload's service with its pool swapped for replay members. */
trng::ServiceConfig
replayConfig(const trng::ServiceConfig &base, std::size_t members)
{
    trng::ServiceConfig cfg = base;
    cfg.pool.clear();
    for (std::size_t i = 0; i < members; ++i) {
        trng::PoolMemberConfig pm;
        pm.source = "replay";
        pm.label = "replay" + std::to_string(i);
        pm.params.set("seed", static_cast<std::int64_t>(101 + i));
        cfg.pool.push_back(std::move(pm));
    }
    return cfg;
}

void
waitFull(const trng::Service &service)
{
    const std::int64_t deadline = nowNs() + 10'000'000'000LL;
    for (;;) {
        const trng::ServiceStats st = service.stats();
        if (st.reservoir_bits * 10 >= st.reservoir_capacity * 9)
            return;
        check(nowNs() < deadline, "replay reservoir never filled");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/** A one-member replay service hands out the replay stream exactly. */
void
checkReplayBitExact(const trng::ServiceConfig &base)
{
    trng::ServiceConfig cfg = replayConfig(base, 1);
    trng::Service service(std::move(cfg));
    trng::Session session = service.open();
    util::BitStream got;
    for (std::size_t n : {256u, 1000u, 4096u, 77u, 100000u})
        got.append(session.read(n));
    const util::BitStream want = perfbench::replayStream(101, got.size());
    check(got.words() == want.words(),
          "replay-backed service did not return the replay stream "
          "bit-exact and in order");
}

struct ServiceResult
{
    double read_p50_us = 0;
    double reads_per_s = 0;
    double bulk_mbps = 0;
};

/** @p threads closed-loop readers of @p bits each; per-read spans. */
void
closedLoop(trng::Service &service, const trng::SessionConfig &session_cfg,
           int threads, std::size_t bits, double budget_s,
           const char *name, std::uint32_t top, std::vector<double> &us,
           std::uint64_t &reads, double &elapsed_s)
{
    std::mutex mu;
    std::string error;
    std::vector<std::thread> pool;
    const std::int64_t start = nowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(budget_s * 1e9);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            std::vector<double> mine;
            std::string why;
            try {
                trng::Session session = service.open(session_cfg);
                while (nowNs() < deadline) {
                    const std::int64_t s = nowNs();
                    const util::BitStream out = session.read(bits);
                    const std::int64_t e = nowNs();
                    if (out.size() != bits)
                        throw std::runtime_error("short service read");
                    g_spans.add(name, top, s, e);
                    mine.push_back(static_cast<double>(e - s) / 1e3);
                }
            } catch (const std::exception &ex) {
                why = ex.what();
            }
            const std::lock_guard<std::mutex> lock(mu);
            us.insert(us.end(), mine.begin(), mine.end());
            if (!why.empty())
                error = why;
        });
    }
    for (std::thread &t : pool)
        t.join();
    check(error.empty(), std::string(name) + ": " + error);
    elapsed_s = static_cast<double>(nowNs() - start) / 1e9;
    reads = us.size();
}

ServiceResult
measureService(trng::Service &service,
               const trng::SessionConfig &session_cfg, const Options &o,
               double budget_s)
{
    ServiceResult r;
    const std::uint32_t top = g_spans.open("trng.service", 0);
    waitFull(service);
    std::vector<double> us;
    std::uint64_t reads = 0;
    double elapsed = 0;
    closedLoop(service, session_cfg, o.readers, 256, budget_s / 2,
               "trng.service.read256", top, us, reads, elapsed);
    r.read_p50_us = median(us);
    r.reads_per_s = static_cast<double>(reads) / elapsed;

    // Bulk callers read raw sessions on every workload that has them.
    std::vector<double> bulk_us;
    closedLoop(service, trng::SessionConfig{}, o.bulk_readers, kBulkBits,
               budget_s / 2, "trng.service.read_bulk", top, bulk_us, reads,
               elapsed);
    r.bulk_mbps = static_cast<double>(reads) *
                  static_cast<double>(kBulkBits) / elapsed / 1e6;
    g_spans.close(top);
    return r;
}

int
run(const Options &o)
{
    const trng::Params config = trng::Params::fromFile(o.config);
    const trng::ServiceConfig service_cfg =
        trng::ServiceConfig::fromParams(config);
    trng::SessionConfig session_cfg;
    session_cfg.conditioning =
        config.section("session").getList("conditioning");
    session_cfg.stage_params = config.section("session");
    const trng::PoolMemberConfig &member = service_cfg.pool.front();

    // Budget shares of --seconds, by how noisy each figure is.
    const double s = o.seconds;
    const CoreResult core = measureCore(member, 0.30 * s);
    Engine engine = buildEngine(member.params);
    const double round_us = measureController(engine, 0.05 * s);
    const double read_ns = measureDram(engine, 0.05 * s);
    const double sha_us = measureSha256(0.05 * s);
    checkReplayBitExact(service_cfg);

    trng::Service service(replayConfig(service_cfg,
                                       service_cfg.pool.size()));
    const ServiceResult svc =
        measureService(service, session_cfg, o, 0.55 * s);

    // Network plane: serve the replay-backed service until stdin
    // closes; the caller drives it with the load generator.
    waitFull(service);
    net::ServerConfig net_cfg =
        net::ServerConfig::fromParams(config.section("net"));
    net_cfg.tcp_host = "127.0.0.1";
    net_cfg.tcp_port = 0;
    net_cfg.unix_path.clear();
    net::Server server(service, net_cfg, session_cfg);
    server.start();
    const std::uint32_t net_span = g_spans.open("net.serve", 0);
    std::thread loop([&] { server.run(); });
    std::printf("PORT %u\n", static_cast<unsigned>(server.tcpPort()));
    std::fflush(stdout);
    std::string line;
    while (std::getline(std::cin, line)) {
    }
    server.stop();
    loop.join();
    g_spans.close(net_span);
    const net::ServerStats net_stats = server.stats();
    check(net_stats.service_errors == 0 && net_stats.protocol_errors == 0,
          "in-process server reported errors");
    service.close();

    g_spans.write(o.spans);
    std::printf("{\"core.init_s\": %.6f, \"core.harvest_host_mbps\": %.6f, "
                "\"core.harvest_sim_mbps\": %.6f, "
                "\"controller.round_us\": %.6f, "
                "\"dram.reduced_read_ns\": %.3f, "
                "\"trng.sha256_take_us\": %.6f, "
                "\"trng.service_read_p50_us\": %.3f, "
                "\"trng.service_reads_per_s\": %.3f, "
                "\"trng.service_bulk_mbps\": %.3f}\n",
                core.init_s, core.harvest_host_mbps, core.harvest_sim_mbps,
                round_us, read_ns, sha_us, svc.read_p50_us,
                svc.reads_per_s, svc.bulk_mbps);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perf_layers: %s\n", e.what());
        return 1;
    }
}
