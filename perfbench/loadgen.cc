/**
 * @file
 * perf_loadgen: single-threaded closed-loop load generator for trngd.
 *
 * It speaks the framed wire protocol with its own codec over plain
 * non-blocking sockets and one epoll set, and links nothing from the
 * daemon's sources, so a change under src/net/ moves only the server
 * side of a measurement:
 *
 *   request  = 'D' 'r' | u16 priority | u32 bytes wanted   (8 bytes)
 *   response = 'd' 'R' | u16 status   | u32 payload bytes  + payload
 *
 * Two connection classes share the loop: key connections (small
 * requests, the latency class) and bulk connections (multi-KiB
 * requests). Every connection keeps one request outstanding and
 * sends the next one only when the response arrives: a key connection
 * at once, a bulk connection after a seeded think time drawn uniformly
 * from 0 to --bulk-think-us. The run is a 1.5 s warm-up, then the
 * timed window, then a
 * drain in which no new request is sent and every outstanding one must
 * be answered. Each response is checked (status OK, the requested
 * length, strict FIFO pairing); every aligned 256-bit block of every
 * payload goes into a duplicate check; and the ones in every payload
 * bit are counted for the caller's frequency test.
 *
 *   perf_loadgen --port 7777 --seed 1 --seconds 40 --keys 1 --bulk 1 \
 *       --bulk-bytes 2048,3072,4096 --bulk-think-us 40000 \
 *       [--daemon-pid PID]
 *
 * With --daemon-pid the daemon's user+system CPU is read from /proc at
 * the window edges, as is the host's steal share. The result is one
 * JSON object on stdout.
 */

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

constexpr std::size_t kHeader = 8;
constexpr std::uint32_t kKeyBytes = 32; //!< One 256-bit key.
constexpr std::int64_t kWarmupNs = 1'500'000'000;
constexpr std::int64_t kDrainNs = 30'000'000'000;
constexpr std::uint16_t kStatusOk = 0;

struct Options
{
    int port = 0;
    std::uint64_t seed = 1;
    double seconds = 10;
    int keys = 0;
    int bulk = 0;
    std::vector<std::uint32_t> bulk_bytes{4096};
    std::uint64_t bulk_think_us = 0; //!< Upper bound of the think time.
    long daemon_pid = 0;
};

enum Class { kKey = 0, kBulk = 1 };

struct Pending
{
    std::int64_t sent_ns = 0;
    std::uint32_t bytes = 0;
};

struct Conn
{
    int fd = -1;
    Class cls = kKey;
    std::mt19937_64 rng;   //!< Seeded request sizes and pauses.
    std::deque<Pending> outstanding;
    std::string out;        //!< Encoded requests not yet written.
    std::size_t out_pos = 0;
    std::vector<std::uint8_t> in; //!< Bytes of the frame being read.
    std::uint64_t sent = 0;
    std::uint64_t answered = 0;
};

/** Per-class tallies. "window" counts responses completed inside the
 * timed window; the totals cover the whole run. */
struct Tally
{
    std::uint64_t window_responses = 0;
    std::uint64_t window_bits = 0;
    std::vector<std::int64_t> window_lat_ns;
    std::uint64_t total_bits = 0;
    std::uint64_t ones = 0;
};

struct Block
{
    std::array<std::uint64_t, 4> w{};
    bool operator==(const Block &o) const { return w == o.w; }
};

struct BlockHash
{
    std::size_t operator()(const Block &b) const
    {
        // The payload is random; one word is a fine hash.
        return static_cast<std::size_t>(b.w[0] ^ (b.w[3] >> 7));
    }
};

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "perf_loadgen: %s\n", why.c_str());
    std::exit(2);
}

std::vector<std::uint32_t>
parseList(const char *s)
{
    std::vector<std::uint32_t> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(static_cast<std::uint32_t>(std::stoul(item)));
    if (out.empty())
        die("empty size list");
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + a);
        const char *v = argv[++i];
        if (a == "--port")
            o.port = std::atoi(v);
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--keys")
            o.keys = std::atoi(v);
        else if (a == "--bulk")
            o.bulk = std::atoi(v);
        else if (a == "--bulk-bytes")
            o.bulk_bytes = parseList(v);
        else if (a == "--bulk-think-us")
            o.bulk_think_us = std::strtoull(v, nullptr, 10);
        else if (a == "--daemon-pid")
            o.daemon_pid = std::atol(v);
        else
            die("unknown flag " + a);
    }
    if (o.port <= 0 || o.keys + o.bulk <= 0 || o.seconds <= 0)
        die("need --port, at least one connection and --seconds > 0");
    return o;
}

/** CPU time of one process, in seconds. */
struct ProcCpu
{
    double user = 0;
    double sys = 0;
};

/** utime and stime of @p pid, from /proc/PID/stat. */
ProcCpu
procCpuSeconds(long pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(f, line);
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos)
        die("cannot read /proc/" + std::to_string(pid) + "/stat");
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state); utime
    // and stime are fields 14 and 15.
    for (int idx = 3; idx <= 15 && rest >> field; ++idx) {
        if (idx == 14)
            utime = std::atof(field.c_str());
        else if (idx == 15)
            stime = std::atof(field.c_str());
    }
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    return ProcCpu{utime / tick, stime / tick};
}

/** Host-wide CPU ticks from the first line of /proc/stat: all of
 * them, and those stolen by the hypervisor. */
struct HostTicks
{
    double total = 0;
    double steal = 0;
};

HostTicks
hostTicks()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    HostTicks t;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8; ++i) {
        double v = 0;
        f >> v;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
selfCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void
put16(char *p, std::uint16_t v)
{
    p[0] = static_cast<char>(v & 0xff);
    p[1] = static_cast<char>(v >> 8);
}

void
put32(char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

class LoadGen
{
  public:
    explicit LoadGen(const Options &o) : o_(o)
    {
        ep_ = epoll_create1(0);
        if (ep_ < 0)
            die("epoll_create1 failed");
    }

    ~LoadGen()
    {
        for (Conn &c : conns_)
            if (c.fd >= 0)
                close(c.fd);
        if (ep_ >= 0)
            close(ep_);
    }

    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    int run();

  private:
    void connectAll();
    void sendRequest(Conn &c, std::int64_t now);
    void flush(Conn &c);
    void readable(Conn &c);
    void onResponse(Conn &c, std::uint16_t status,
                    const std::uint8_t *payload, std::uint32_t len);
    void fail(const std::string &why)
    {
        if (failures_.size() < 8)
            failures_.push_back(why);
        ++failed_;
    }

    Options o_;
    int ep_ = -1;
    std::vector<Conn> conns_;
    bool sending_ = true;
    std::int64_t t0_ = 0, t1_ = 0; //!< Timed window [t0, t1).
    std::array<Tally, 2> tally_;
    std::unordered_set<Block, BlockHash> seen_;
    std::uint64_t duplicates_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;

    /** A send held back by a connection's think time. */
    struct Due
    {
        std::int64_t at_ns = 0;
        Conn *conn = nullptr;
        bool operator>(const Due &o) const { return at_ns > o.at_ns; }
    };
    std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due_;
};

void
LoadGen::connectAll()
{
    std::mt19937_64 seeder(o_.seed);
    const int total = o_.keys + o_.bulk;
    conns_.resize(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i) {
        Conn &c = conns_[static_cast<std::size_t>(i)];
        c.cls = i < o_.keys ? kKey : kBulk;
        c.rng.seed(seeder());
        c.fd = socket(AF_INET, SOCK_STREAM, 0);
        if (c.fd < 0)
            die("socket failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(o_.port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (connect(c.fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) != 0)
            die(std::string("connect failed: ") + std::strerror(errno));
        const int one = 1;
        setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = static_cast<std::uint32_t>(i);
        if (epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev) != 0)
            die("epoll_ctl failed");
    }
}

void
LoadGen::sendRequest(Conn &c, std::int64_t now)
{
    std::uint32_t bytes = kKeyBytes;
    if (c.cls == kBulk)
        bytes = o_.bulk_bytes[c.rng() % o_.bulk_bytes.size()];
    char frame[kHeader];
    frame[0] = 'D';
    frame[1] = 'r';
    put16(frame + 2, 1);
    put32(frame + 4, bytes);
    c.out.append(frame, kHeader);
    c.outstanding.push_back(Pending{now, bytes});
    ++c.sent;
    ++attempted_;
}

void
LoadGen::flush(Conn &c)
{
    while (c.out_pos < c.out.size()) {
        const ssize_t n = send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            die(std::string("send failed: ") + std::strerror(errno));
        }
        c.out_pos += static_cast<std::size_t>(n);
    }
    if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
    }
    // One 8-byte request per connection never fills a loopback send
    // buffer; anything left is retried on the next pass.
}

void
LoadGen::onResponse(Conn &c, std::uint16_t status,
                    const std::uint8_t *payload, std::uint32_t len)
{
    const std::int64_t now = nowNs();
    if (c.outstanding.empty()) {
        fail("response without a request");
        return;
    }
    const Pending req = c.outstanding.front();
    c.outstanding.pop_front();
    ++c.answered;
    if (status != kStatusOk) {
        fail("status " + std::to_string(status) + ": " +
             std::string(reinterpret_cast<const char *>(payload), len));
    } else if (len != req.bytes) {
        fail("asked " + std::to_string(req.bytes) + " bytes, got " +
             std::to_string(len));
    } else {
        Tally &t = tally_[c.cls];
        t.total_bits += 8ull * len;
        for (std::uint32_t i = 0; i < len; ++i)
            t.ones += static_cast<unsigned>(__builtin_popcount(payload[i]));
        for (std::uint32_t off = 0; off + 32 <= len; off += 32) {
            Block b;
            std::memcpy(b.w.data(), payload + off, 32);
            if (!seen_.insert(b).second)
                ++duplicates_;
        }
        if (req.sent_ns >= t0_ && now < t1_) {
            ++t.window_responses;
            t.window_bits += 8ull * len;
            t.window_lat_ns.push_back(now - req.sent_ns);
        }
    }
    if (!sending_)
        return;
    if (c.cls == kBulk && o_.bulk_think_us > 0) {
        const std::int64_t pause_ns = static_cast<std::int64_t>(
            c.rng() % (o_.bulk_think_us + 1) * 1000);
        due_.push(Due{now + pause_ns, &c});
    } else {
        sendRequest(c, now);
    }
}

void
LoadGen::readable(Conn &c)
{
    std::uint8_t buf[1 << 16];
    for (;;) {
        const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            die(std::string("recv failed: ") + std::strerror(errno));
        }
        if (n == 0) {
            if (!c.outstanding.empty())
                fail("connection closed with " +
                     std::to_string(c.outstanding.size()) +
                     " requests outstanding");
            epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
            close(c.fd);
            c.fd = -1;
            c.outstanding.clear();
            return;
        }
        c.in.insert(c.in.end(), buf, buf + n);
        std::size_t pos = 0;
        while (c.in.size() - pos >= kHeader) {
            const std::uint8_t *h = c.in.data() + pos;
            if (h[0] != 'd' || h[1] != 'R')
                die("bad response magic");
            const std::uint16_t status =
                static_cast<std::uint16_t>(h[2] | (h[3] << 8));
            const std::uint32_t len = get32(h + 4);
            if (c.in.size() - pos < kHeader + len)
                break;
            onResponse(c, status, h + kHeader, len);
            pos += kHeader + len;
        }
        c.in.erase(c.in.begin(),
                   c.in.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    flush(c);
}

std::int64_t
percentile(std::vector<std::int64_t> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Nearest rank.
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

int
LoadGen::run()
{
    connectAll();
    const std::int64_t start = nowNs();
    t0_ = start + kWarmupNs;
    t1_ = t0_ + static_cast<std::int64_t>(o_.seconds * 1e9);
    const std::int64_t drain_deadline = t1_ + kDrainNs;

    for (Conn &c : conns_) {
        sendRequest(c, start);
        flush(c);
    }

    double self_cpu0 = 0, self_cpu1 = 0;
    ProcCpu daemon_cpu0, daemon_cpu1;
    HostTicks host0, host1;
    bool in_window = false;
    epoll_event events[64];
    for (;;) {
        const std::int64_t now = nowNs();
        if (!in_window && sending_ && now >= t0_) {
            in_window = true;
            self_cpu0 = selfCpuSeconds();
            host0 = hostTicks();
            if (o_.daemon_pid > 0)
                daemon_cpu0 = procCpuSeconds(o_.daemon_pid);
        }
        if (sending_ && now >= t1_) {
            sending_ = false;
            self_cpu1 = selfCpuSeconds();
            host1 = hostTicks();
            if (o_.daemon_pid > 0)
                daemon_cpu1 = procCpuSeconds(o_.daemon_pid);
        }
        while (!due_.empty() && due_.top().at_ns <= now) {
            Conn &c = *due_.top().conn;
            due_.pop();
            if (sending_ && c.fd >= 0) {
                sendRequest(c, now);
                flush(c);
            }
        }
        if (!sending_)
            due_ = {};
        std::size_t open_requests = 0;
        for (const Conn &c : conns_)
            open_requests += c.outstanding.size();
        if (!sending_ && open_requests == 0)
            break;
        if (!sending_ && now >= drain_deadline) {
            fail(std::to_string(open_requests) +
                 " requests unanswered after the drain");
            break;
        }
        std::int64_t next = !in_window ? t0_
                            : sending_ ? t1_
                                       : drain_deadline;
        if (!due_.empty())
            next = std::min(next, due_.top().at_ns);
        const std::int64_t wait_ns = std::max<std::int64_t>(0, next - now);
        const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                               static_cast<long>(wait_ns % 1000000000)};
        const int n = epoll_pwait2(ep_, events, 64, &timeout, nullptr);
        if (n < 0 && errno != EINTR)
            die("epoll_wait failed");
        for (int i = 0; i < n; ++i) {
            Conn &c = conns_[events[i].data.u32];
            if (c.fd >= 0)
                readable(c);
        }
    }

    const double window_s = static_cast<double>(t1_ - t0_) / 1e9;
    std::uint64_t sent = 0, answered = 0;
    for (const Conn &c : conns_) {
        sent += c.sent;
        answered += c.answered;
    }
    if (sent != answered)
        fail("frame accounting: sent " + std::to_string(sent) +
             ", answered " + std::to_string(answered));

    std::printf("{\"attempted\": %llu, \"failed\": %llu, "
                "\"duplicates\": %llu, \"window_s\": %.9f, "
                "\"self_cpu_s\": %.6f, \"daemon_user_cpu_s\": %.6f, "
                "\"daemon_sys_cpu_s\": %.6f, "
                "\"host_steal_share\": %.6f, ",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(duplicates_), window_s,
                self_cpu1 - self_cpu0, daemon_cpu1.user - daemon_cpu0.user,
                daemon_cpu1.sys - daemon_cpu0.sys,
                // The share of host CPU ticks the hypervisor stole.
                host1.total > host0.total
                    ? (host1.steal - host0.steal) / (host1.total - host0.total)
                    : 0.0);
    std::printf("\"errors\": [");
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        std::string msg;
        for (char ch : failures_[i])
            if (ch >= 0x20 && ch != '"' && ch != '\\')
                msg += ch;
        std::printf("%s\"%s\"", i ? ", " : "", msg.c_str());
    }
    std::printf("]");
    const char *names[2] = {"key", "bulk"};
    for (int k = 0; k < 2; ++k) {
        Tally &t = tally_[k];
        const std::size_t samples = t.window_lat_ns.size();
        const std::int64_t p99 = percentile(t.window_lat_ns, 0.99);
        const std::int64_t p50 = percentile(t.window_lat_ns, 0.50);
        std::printf(", \"%s\": {\"window_responses\": %llu, "
                    "\"window_bits\": %llu, \"total_bits\": %llu, "
                    "\"ones\": %llu, \"samples\": %zu, "
                    "\"p50_ns\": %lld, \"p99_ns\": %lld}",
                    names[k],
                    static_cast<unsigned long long>(t.window_responses),
                    static_cast<unsigned long long>(t.window_bits),
                    static_cast<unsigned long long>(t.total_bits),
                    static_cast<unsigned long long>(t.ones), samples,
                    static_cast<long long>(p50),
                    static_cast<long long>(p99));
    }
    std::printf("}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    LoadGen gen(opts);
    return gen.run();
}
