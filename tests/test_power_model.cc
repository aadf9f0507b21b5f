/**
 * @file
 * Unit tests for the DRAMPower-style energy model.
 */

#include <algorithm>
#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "power/power_model.hh"

namespace {

using namespace drange::power;
using drange::ctrl::CommandTrace;
using drange::ctrl::CommandType;

PowerModel
model()
{
    return {PowerSpec::lpddr4(), drange::dram::TimingParams::lpddr4_3200()};
}

TEST(PowerModelTest, EmptyTraceOnlyBackground)
{
    const auto e = model().traceEnergy(CommandTrace{}, 1000.0, 0.0);
    EXPECT_DOUBLE_EQ(e.act_pre_nj, 0.0);
    EXPECT_DOUBLE_EQ(e.read_nj, 0.0);
    EXPECT_GT(e.background_nj, 0.0);
    EXPECT_DOUBLE_EQ(e.total_nj(), e.background_nj);
}

TEST(PowerModelTest, CommandsAddEnergy)
{
    CommandTrace trace = {
        {CommandType::ACT, 0, 0.0},
        {CommandType::RD, 0, 18.0},
        {CommandType::WR, 0, 40.0},
        {CommandType::PRE, 0, 60.0},
        {CommandType::REF, -1, 100.0},
    };
    const auto e = model().traceEnergy(trace, 300.0, 60.0);
    EXPECT_GT(e.act_pre_nj, 0.0);
    EXPECT_GT(e.read_nj, 0.0);
    EXPECT_GT(e.write_nj, 0.0);
    EXPECT_GT(e.refresh_nj, 0.0);
    EXPECT_GT(e.total_nj(), e.background_nj);
}

TEST(PowerModelTest, ActEnergyScalesWithCount)
{
    CommandTrace one = {{CommandType::ACT, 0, 0.0}};
    CommandTrace two = {{CommandType::ACT, 0, 0.0},
                        {CommandType::ACT, 1, 10.0}};
    const auto e1 = model().traceEnergy(one, 100.0, 50.0);
    const auto e2 = model().traceEnergy(two, 100.0, 50.0);
    EXPECT_NEAR(e2.act_pre_nj, 2.0 * e1.act_pre_nj, 1e-9);
}

TEST(PowerModelTest, ActiveStandbyCostsMoreThanPrecharged)
{
    const auto busy = model().traceEnergy(CommandTrace{}, 1000.0, 1000.0);
    const auto idle = model().traceEnergy(CommandTrace{}, 1000.0, 0.0);
    EXPECT_GT(busy.background_nj, idle.background_nj);
}

TEST(PowerModelTest, IdleEnergyIncludesRefresh)
{
    const PowerModel m = model();
    const double with_ref = m.idleEnergyNj(1e6);
    // Pure precharged background, no refresh.
    const double bg_only =
        m.spec().idd2n_ma * 1e6 * m.spec().vdd * 1e-3;
    EXPECT_GT(with_ref, bg_only);
}

TEST(PowerModelTest, EnergyPositiveAndFinite)
{
    const auto e = model().traceEnergy(
        {{CommandType::ACT, 0, 0.0}, {CommandType::PRE, 0, 42.0}},
        100.0, 42.0);
    EXPECT_GT(e.total_nj(), 0.0);
    EXPECT_TRUE(std::isfinite(e.total_nj()));
}

TEST(PowerModelTest, Ddr3SpecDiffers)
{
    const auto lp = PowerSpec::lpddr4();
    const auto d3 = PowerSpec::ddr3();
    EXPECT_GT(d3.vdd, lp.vdd);
    EXPECT_GT(d3.idd0_ma, lp.idd0_ma);
}

} // namespace
