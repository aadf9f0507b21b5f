#include "fleet/device_model.hh"

#include "util/rng.hh"

namespace drange::fleet {

std::vector<Vendor>
Vendor::builtin()
{
    std::vector<Vendor> v(3);

    // Names are move-assigned from temporaries: assigning a literal
    // to an existing std::string trips a GCC 12 -Wrestrict false
    // positive.
    v[0].name = std::string("A");
    v[0].manufacturer = dram::Manufacturer::A;
    // Vendor A parts route addresses straight through (the legacy
    // single-device behaviour).

    v[1].name = std::string("B");
    v[1].manufacturer = dram::Manufacturer::B;
    v[1].mapping.row_kind =
        dram::AddressMapping::RowKind::SubarrayReverse;
    v[1].mapping.bank_rotate = 3;

    v[2].name = std::string("C");
    v[2].manufacturer = dram::Manufacturer::C;
    v[2].mapping.row_kind = dram::AddressMapping::RowKind::XorScramble;
    v[2].mapping.row_xor = 0x2a5;
    v[2].mapping.word_xor = 0x5;

    return v;
}

std::uint64_t
DeviceModel::fingerprint() const
{
    std::uint64_t h = 0x66c6a4aa1cfe5d2cull;
    auto mix = [&h](std::uint64_t v) { h = util::mix64(h ^ v); };
    for (const char c : vendor)
        mix(static_cast<std::uint64_t>(c));
    mix(config.seed);
    mix(static_cast<std::uint64_t>(config.manufacturer));
    mix(static_cast<std::uint64_t>(config.mapping.row_kind));
    mix(config.mapping.row_xor);
    mix(static_cast<std::uint64_t>(config.mapping.bank_rotate));
    mix(config.mapping.word_xor);
    mix(static_cast<std::uint64_t>(config.geometry.banks));
    mix(static_cast<std::uint64_t>(config.geometry.rows_per_bank));
    mix(static_cast<std::uint64_t>(config.geometry.words_per_row));
    // Quantized density factor: two profiles of the same die agree,
    // but an override that changes the density invalidates them.
    mix(static_cast<std::uint64_t>(variability * 1e6));
    return h;
}

} // namespace drange::fleet
