/**
 * @file
 * The benchmark's "replay" entropy source: pre-generated bits served
 * through the trng::EntropySource interface, so the serving layers
 * (trng::Service, net::Server) can be timed without paying for DRAM
 * simulation. Registered under the name "replay" by
 * replay_source.cc; its one Params key is "seed" (default 1). The
 * stream is 2^24 bits long and generate() wraps around at its end.
 */

#ifndef PERFBENCH_REPLAY_SOURCE_HH
#define PERFBENCH_REPLAY_SOURCE_HH

#include <cstddef>
#include <cstdint>

#include "util/bitstream.hh"

namespace perfbench {

/** The first @p num_bits of the stream a replay source with @p seed
 * serves, computed without the source. */
drange::util::BitStream replayStream(std::uint64_t seed,
                                     std::size_t num_bits);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_SOURCE_HH
