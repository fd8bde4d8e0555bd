// Tests of the Table 1 specs and the synthetic benchmark generator.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include <unistd.h>

#include "benchgen/generator.hpp"

namespace tsc3d::benchgen {
namespace {

TEST(BenchmarkSpec, TableOneHasSixRows) {
  EXPECT_EQ(table1_specs().size(), 6u);
}

TEST(BenchmarkSpec, LookupByName) {
  const BenchmarkSpec& s = spec_by_name("ibm03");
  EXPECT_EQ(s.hard_modules, 290u);
  EXPECT_EQ(s.soft_modules, 999u);
  EXPECT_EQ(s.num_nets, 10279u);
  EXPECT_DOUBLE_EQ(s.power_w, 19.78);
}

TEST(BenchmarkSpec, UnknownNameThrows) {
  EXPECT_THROW((void)spec_by_name("n999"), std::out_of_range);
}

TEST(BenchmarkSpec, DieEdgeFromOutline) {
  EXPECT_NEAR(spec_by_name("n100").die_edge_um(), 4000.0, 1e-9);
  EXPECT_NEAR(spec_by_name("ibm03").die_edge_um(), 8000.0, 1e-9);
}

class GeneratorMatchesSpec : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorMatchesSpec, CountsAndPower) {
  const BenchmarkSpec& spec = spec_by_name(GetParam());
  const Floorplan3D fp = generate(spec, 1);
  EXPECT_EQ(fp.modules().size(), spec.total_modules());
  EXPECT_EQ(fp.nets().size(), spec.num_nets);
  EXPECT_EQ(fp.terminals().size(), spec.num_terminals);
  // Total nominal power at 1.0 V matches the Table 1 column.
  double power = 0.0;
  for (const Module& m : fp.modules()) power += m.power_w;
  EXPECT_NEAR(power, spec.power_w, 1e-6);
  // Hard/soft split.
  std::size_t hard = 0;
  for (const Module& m : fp.modules()) hard += m.soft ? 0 : 1;
  EXPECT_EQ(hard, spec.hard_modules);
  // Outline.
  EXPECT_NEAR(fp.tech().die_width_um, spec.die_edge_um(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GeneratorMatchesSpec,
                         ::testing::Values("n100", "n200", "n300", "ibm01",
                                           "ibm03", "ibm07"));

TEST(Generator, DeterministicForSameSeed) {
  const Floorplan3D a = generate("n100", 7);
  const Floorplan3D b = generate("n100", 7);
  ASSERT_EQ(a.modules().size(), b.modules().size());
  for (std::size_t i = 0; i < a.modules().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.modules()[i].area_um2, b.modules()[i].area_um2);
    EXPECT_DOUBLE_EQ(a.modules()[i].power_w, b.modules()[i].power_w);
  }
  ASSERT_EQ(a.nets().size(), b.nets().size());
  for (std::size_t i = 0; i < a.nets().size(); ++i)
    EXPECT_EQ(a.nets()[i].pins.size(), b.nets()[i].pins.size());
}

TEST(Generator, DifferentSeedsDiffer) {
  const Floorplan3D a = generate("n100", 1);
  const Floorplan3D b = generate("n100", 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.modules().size(); ++i)
    any_diff |= a.modules()[i].area_um2 != b.modules()[i].area_um2;
  EXPECT_TRUE(any_diff);
}

TEST(Generator, UtilizationNearTarget) {
  GeneratorOptions opt;
  opt.target_utilization = 0.55;
  const Floorplan3D fp = generate("n100", 3, opt);
  double area = 0.0;
  for (const Module& m : fp.modules()) area += m.area_um2;
  const double util = area / (2.0 * fp.tech().die_area_um2());
  EXPECT_NEAR(util, 0.55, 1e-9);
}

TEST(Generator, NetDegreesAtLeastTwo) {
  const Floorplan3D fp = generate("n200", 4);
  for (const Net& n : fp.nets()) EXPECT_GE(n.pins.size(), 2u);
}

TEST(Generator, NetPinsReferenceValidObjects) {
  const Floorplan3D fp = generate("ibm01", 5);
  for (const Net& n : fp.nets()) {
    for (const NetPin& p : n.pins) {
      if (p.is_terminal()) {
        EXPECT_LT(p.terminal, fp.terminals().size());
      } else {
        EXPECT_LT(p.module, fp.modules().size());
      }
    }
  }
}

TEST(Generator, NoDuplicateModulePinsWithinNet) {
  const Floorplan3D fp = generate("n100", 6);
  for (const Net& n : fp.nets()) {
    std::set<std::size_t> seen;
    for (const NetPin& p : n.pins) {
      if (p.is_terminal()) continue;
      EXPECT_TRUE(seen.insert(p.module).second)
          << "net " << n.id << " repeats module " << p.module;
    }
  }
}

// A net whose degree exceeds the distinct modules of its clamped index
// window (anchor near either end of the module list) once made
// generate() spin forever.  Each check runs in a forked child under a
// per-seed alarm, so a regression fails instead of hanging the suite.
void generate_all_or_die(const char* name,
                         const std::vector<std::uint64_t>& seeds) {
  for (const std::uint64_t seed : seeds) {
    ::alarm(10);
    (void)generate(name, seed);
  }
  std::exit(0);
}

TEST(GeneratorTermination, FormerlyHangingSeedsGenerate) {
  const std::vector<std::uint64_t> seeds{282703973, 37786718, 420104968};
  EXPECT_EXIT(generate_all_or_die("n100", seeds),
              ::testing::ExitedWithCode(0), "");
  if (HasFailure()) return;
  // The capped nets stay well formed: distinct modules, degree >= 2.
  for (const std::uint64_t seed : seeds) {
    const Floorplan3D fp = generate("n100", seed);
    for (const Net& n : fp.nets()) {
      std::set<std::size_t> modules;
      for (const NetPin& p : n.pins) {
        if (p.is_terminal()) continue;
        EXPECT_TRUE(modules.insert(p.module).second);
      }
      EXPECT_GE(modules.size(), 2u);
    }
  }
}

TEST(GeneratorTermination, N100SeedsOneToTwoThousandGenerate) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 2000; ++s) seeds.push_back(s);
  EXPECT_EXIT(generate_all_or_die("n100", seeds),
              ::testing::ExitedWithCode(0), "");
}

TEST(Generator, TerminalsOnBoundary) {
  const Floorplan3D fp = generate("n100", 8);
  const Rect o = fp.outline();
  for (const Terminal& t : fp.terminals()) {
    const bool on_edge = t.position.x == o.x || t.position.x == o.right() ||
                         t.position.y == o.y || t.position.y == o.top();
    EXPECT_TRUE(on_edge) << t.name;
  }
}

TEST(Generator, HardModulesHaveFixedAspect) {
  const Floorplan3D fp = generate("ibm01", 9);
  for (const Module& m : fp.modules()) {
    if (!m.soft) {
      EXPECT_DOUBLE_EQ(m.min_aspect, m.max_aspect);
    }
  }
}

TEST(Generator, PowerRegimesProduceDensitySpread) {
  // The generator should produce clearly distinct power densities
  // (hot crypto cores vs cool glue logic), not a uniform smear.
  const Floorplan3D fp = generate("n100", 10);
  double lo = 1e300, hi = 0.0;
  for (const Module& m : fp.modules()) {
    const double d = m.power_w / m.area_um2;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi / lo, 3.0);
}

}  // namespace
}  // namespace tsc3d::benchgen
