#include "replay_source.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "trng/registry.hh"

namespace perfbench {

namespace {

/** Length of the pre-generated stream (2 MiB); generate() wraps. */
constexpr std::size_t kStreamBits = std::size_t{1} << 24;

using drange::trng::EntropySource;
using drange::trng::Params;
using drange::trng::SourceInfo;
using drange::trng::SourceStats;
using drange::util::BitStream;

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

class ReplaySource final : public EntropySource
{
  public:
    explicit ReplaySource(const Params &params)
    {
        const std::int64_t seed = params.getInt("seed", 1);
        params.rejectUnknown("trng source \"replay\"");
        if (seed < 0)
            throw std::invalid_argument("replay: seed must be >= 0");
        stream_ = replayStream(static_cast<std::uint64_t>(seed),
                               kStreamBits);
    }

    const SourceInfo &info() const override { return info_; }

    BitStream generate(std::size_t num_bits) override
    {
        const auto start = std::chrono::steady_clock::now();
        BitStream out;
        out.reserve(num_bits);
        while (out.size() < num_bits) {
            const std::size_t take =
                std::min(num_bits - out.size(), stream_.size() - pos_);
            if (pos_ % 64 == 0)
                out.appendWords(stream_.words().data() + pos_ / 64, take);
            else
                out.append(stream_.slice(pos_, take));
            pos_ = (pos_ + take) % stream_.size();
        }
        stats_ = SourceStats{};
        stats_.bits = out.size();
        stats_.host_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return out;
    }

    SourceStats stats() const override { return stats_; }

  private:
    SourceInfo info_{"replay", "pre-generated bits (benchmark harness)",
                     true};
    BitStream stream_;
    std::size_t pos_ = 0;
    SourceStats stats_;
};

} // namespace

BitStream
replayStream(std::uint64_t seed, std::size_t num_bits)
{
    std::vector<std::uint64_t> words((num_bits + 63) / 64);
    std::uint64_t state = seed;
    for (std::uint64_t &w : words)
        w = splitmix64(state);
    BitStream out;
    out.appendWords(words, num_bits);
    return out;
}

} // namespace perfbench

DRANGE_TRNG_REGISTER(perfbench_replay, "replay",
                     "pre-generated bits (benchmark harness)",
                     [](const drange::trng::Params &params) {
                         return std::unique_ptr<
                             drange::trng::EntropySource>(
                             std::make_unique<perfbench::ReplaySource>(
                                 params));
                     });
