// Tests for the per-node speed-profile subsystem: generators, key parsing,
// ClusterParams integration, and the availability snapshot's id/cps columns.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "cluster/cluster.hpp"
#include "cluster/speed_profile.hpp"

namespace rtdls::cluster {
namespace {

TEST(SpeedProfile, HomogeneousGeneratorIsAllEqual) {
  const SpeedProfile profile = SpeedProfile::homogeneous(8, 100.0);
  EXPECT_EQ(profile.size(), 8u);
  EXPECT_FALSE(profile.heterogeneous());
  EXPECT_FALSE(profile.heterogeneous_against(100.0));
  EXPECT_TRUE(profile.heterogeneous_against(99.0));
  EXPECT_DOUBLE_EQ(profile.mean_cps(), 100.0);
  EXPECT_DOUBLE_EQ(profile.cv(), 0.0);
}

TEST(SpeedProfile, UniformGeneratorBoundsAndDeterminism) {
  const SpeedProfile a = SpeedProfile::uniform(64, 50.0, 150.0, 7);
  const SpeedProfile b = SpeedProfile::uniform(64, 50.0, 150.0, 7);
  const SpeedProfile c = SpeedProfile::uniform(64, 50.0, 150.0, 8);
  EXPECT_EQ(a.values(), b.values());  // same seed, bit-identical
  EXPECT_NE(a.values(), c.values());
  EXPECT_GE(a.min_cps(), 50.0);
  EXPECT_LE(a.max_cps(), 150.0);
  EXPECT_TRUE(a.heterogeneous());
}

TEST(SpeedProfile, TwoTierCountsAndShuffle) {
  const SpeedProfile profile = SpeedProfile::two_tier(16, 50.0, 200.0, 0.25, 3);
  std::size_t fast = 0;
  std::size_t slow = 0;
  for (double cps : profile.values()) {
    if (cps == 50.0) ++fast;
    if (cps == 200.0) ++slow;
  }
  EXPECT_EQ(fast, 4u);  // round(0.25 * 16)
  EXPECT_EQ(slow, 12u);
  // Different seeds shuffle different ids fast.
  const SpeedProfile other = SpeedProfile::two_tier(16, 50.0, 200.0, 0.25, 4);
  EXPECT_NE(profile.values(), other.values());
  // Degenerate fractions stay valid.
  EXPECT_FALSE(SpeedProfile::two_tier(4, 50.0, 200.0, 0.0, 1).heterogeneous_against(200.0));
  EXPECT_FALSE(SpeedProfile::two_tier(1, 50.0, 200.0, 1.0, 1).heterogeneous());
}

TEST(SpeedProfile, LogNormalPreservesMeanAndCv) {
  const SpeedProfile profile = SpeedProfile::log_normal(20000, 100.0, 0.4, 11);
  EXPECT_NEAR(profile.mean_cps(), 100.0, 2.0);  // law of large numbers
  EXPECT_NEAR(profile.cv(), 0.4, 0.02);
  EXPECT_GT(profile.min_cps(), 0.0);
  // cv == 0 degenerates to homogeneous.
  EXPECT_FALSE(SpeedProfile::log_normal(8, 100.0, 0.0, 11).heterogeneous());
}

TEST(SpeedProfile, CsvRoundTripAndErrors) {
  const SpeedProfile profile = SpeedProfile::from_csv_text("# comment\n100\n 50.5 \n200\n");
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_DOUBLE_EQ(profile.cps(1), 50.5);
  EXPECT_THROW(SpeedProfile::from_csv_text(""), std::invalid_argument);
  EXPECT_THROW(SpeedProfile::from_csv_text("100\nnope\n"), std::invalid_argument);
  EXPECT_THROW(SpeedProfile::from_csv_text("100\n-5\n"), std::invalid_argument);
  EXPECT_THROW(SpeedProfile::from_csv_text("nan\n"), std::invalid_argument);
}

TEST(SpeedProfile, ConstructionRejectsBadValues) {
  EXPECT_THROW(SpeedProfile(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(SpeedProfile({100.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(SpeedProfile({100.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(SpeedProfile::uniform(4, 150.0, 50.0, 1), std::invalid_argument);
  EXPECT_THROW(SpeedProfile::two_tier(4, 50.0, 200.0, 1.5, 1), std::invalid_argument);
  EXPECT_THROW(SpeedProfile::log_normal(4, 100.0, -0.1, 1), std::invalid_argument);
}

TEST(SpeedProfile, KeyParsing) {
  const SpeedProfile uniform = parse_speed_profile("uniform:50,150,7", 16, 100.0);
  EXPECT_EQ(uniform.values(), SpeedProfile::uniform(16, 50.0, 150.0, 7).values());
  const SpeedProfile tiered = parse_speed_profile("two_tier:50,200,0.5", 16, 100.0);
  EXPECT_EQ(tiered.values(), SpeedProfile::two_tier(16, 50.0, 200.0, 0.5, 0).values());
  const SpeedProfile lognorm = parse_speed_profile("lognormal:0.3,5", 16, 100.0);
  EXPECT_EQ(lognorm.values(), SpeedProfile::log_normal(16, 100.0, 0.3, 5).values());

  EXPECT_THROW(parse_speed_profile("warp:9", 16, 100.0), std::invalid_argument);
  EXPECT_THROW(parse_speed_profile("uniform:50", 16, 100.0), std::invalid_argument);
  EXPECT_THROW(parse_speed_profile("uniform:50,150,x", 16, 100.0), std::invalid_argument);
  EXPECT_THROW(parse_speed_profile("lognormal:", 16, 100.0), std::invalid_argument);
  EXPECT_THROW(parse_speed_profile("csv:", 16, 100.0), std::invalid_argument);
}

TEST(SpeedProfile, KeyParsingCsvChecksNodeCount) {
  const std::string path = ::testing::TempDir() + "profile_cps.csv";
  {
    std::ofstream out(path);
    out << "100\n80\n120\n";
  }
  const SpeedProfile profile = parse_speed_profile("csv:" + path, 3, 100.0);
  EXPECT_DOUBLE_EQ(profile.cps(2), 120.0);
  EXPECT_THROW(parse_speed_profile("csv:" + path, 4, 100.0), std::invalid_argument);
}

TEST(ClusterParams, HeterogeneityEngagesOnlyWhenSpeedsDiffer) {
  ClusterParams params{.node_count = 4, .cms = 1.0, .cps = 100.0};
  EXPECT_FALSE(params.heterogeneous());
  EXPECT_DOUBLE_EQ(params.node_cps(2), 100.0);

  // All-equal-to-cps profile: still the homogeneous fast path.
  params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile::homogeneous(4, 100.0));
  EXPECT_TRUE(params.valid());
  EXPECT_FALSE(params.heterogeneous());

  // All-equal but different from the scalar: the profile wins, het engages.
  params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile::homogeneous(4, 50.0));
  EXPECT_TRUE(params.heterogeneous());
  EXPECT_DOUBLE_EQ(params.node_cps(2), 50.0);

  // Profile/N mismatch invalidates the params.
  params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile::homogeneous(5, 100.0));
  EXPECT_FALSE(params.valid());
}

TEST(ClusterParams, AvailabilityRowCarriesIdsAndSpeeds) {
  ClusterParams params{.node_count = 4, .cms = 1.0, .cps = 100.0};
  params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile({40.0, 80.0, 120.0, 160.0}));
  Cluster cluster(params);
  cluster.commit(/*id=*/1, /*task=*/7, 0.0, 0.0, 50.0);
  cluster.commit(/*id=*/3, /*task=*/7, 0.0, 0.0, 20.0);

  AvailabilityRow row;
  cluster.availability_into(10.0, row);
  // Free nodes 0 and 2 floor to now=10 and re-sort by id; busy nodes follow
  // by release time; each position's node has its own speed.
  ASSERT_EQ(row.times.size(), 4u);
  EXPECT_EQ(row.ids, (std::vector<NodeId>{0, 2, 3, 1}));
  EXPECT_EQ(row.times, (std::vector<Time>{10.0, 10.0, 20.0, 50.0}));
  std::vector<double> cps;
  for (const NodeId id : row.ids) cps.push_back(params.node_cps(id));
  EXPECT_EQ(cps, (std::vector<double>{40.0, 120.0, 160.0, 80.0}));

  // Homogeneous clusters keep the lean times-only snapshot, and the same
  // row drops a stale id column when it is refilled from one; so does an
  // attached profile whose every speed equals the scalar cps.
  Cluster plain(ClusterParams{.node_count = 2, .cms = 1.0, .cps = 100.0});
  plain.availability_into(0.0, row);
  EXPECT_EQ(row.times, (std::vector<Time>{0.0, 0.0}));
  EXPECT_TRUE(row.ids.empty());
  ClusterParams all_equal{.node_count = 2, .cms = 1.0, .cps = 100.0};
  all_equal.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile::homogeneous(2, 100.0));
  Cluster equal_speeds(all_equal);
  equal_speeds.availability_into(0.0, row);
  EXPECT_TRUE(row.ids.empty());
}

}  // namespace
}  // namespace rtdls::cluster
