// Unit tests for src/graph: CSR network, BFS, susceptible counting and the
// follower-network generator.

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"
#include "graph/information_network.h"

namespace retina::graph {
namespace {

// A small diamond: 0 -> {1, 2} -> 3  (edge u->v means v follows u).
InformationNetwork Diamond() {
  auto r = InformationNetwork::FromEdges(
      4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_TRUE(r.ok());
  return std::move(r).ValueOrDie();
}

TEST(InformationNetworkTest, EmptyDefault) {
  InformationNetwork net;
  EXPECT_EQ(net.NumNodes(), 0u);
  EXPECT_EQ(net.NumEdges(), 0u);
}

TEST(InformationNetworkTest, FromEdgesRejectsOutOfRange) {
  auto r = InformationNetwork::FromEdges(2, {{0, 5}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(InformationNetworkTest, DropsSelfLoopsAndDuplicates) {
  auto r = InformationNetwork::FromEdges(
      3, {{0, 1}, {0, 1}, {1, 1}, {1, 2}});
  ASSERT_TRUE(r.ok());
  const auto net = std::move(r).ValueOrDie();
  EXPECT_EQ(net.NumEdges(), 2u);
}

TEST(InformationNetworkTest, FollowersAndFollowees) {
  const auto net = Diamond();
  const auto f0 = net.Followers(0);
  EXPECT_EQ(std::vector<NodeId>(f0.begin(), f0.end()),
            (std::vector<NodeId>{1, 2}));
  const auto fe3 = net.Followees(3);
  EXPECT_EQ(std::vector<NodeId>(fe3.begin(), fe3.end()),
            (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(net.FollowerCount(3), 0u);
  EXPECT_EQ(net.FolloweeCount(0), 0u);
}

TEST(InformationNetworkTest, HasEdge) {
  const auto net = Diamond();
  EXPECT_TRUE(net.HasEdge(0, 1));
  EXPECT_TRUE(net.HasEdge(2, 3));
  EXPECT_FALSE(net.HasEdge(1, 0));
  EXPECT_FALSE(net.HasEdge(0, 3));
}

TEST(InformationNetworkTest, BfsDistances) {
  const auto net = Diamond();
  const auto dist = net.BfsDistances(0, 5);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 1, 2}));
}

TEST(InformationNetworkTest, BfsOnChainRespectsDepth) {
  // 0 -> 1 -> 2 -> 3 -> 4
  auto r = InformationNetwork::FromEdges(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ASSERT_TRUE(r.ok());
  const auto net = std::move(r).ValueOrDie();
  const auto dist = net.BfsDistances(0, 2);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], kUnreachable);
}

// -------------------------------------------------------------- Generator --

std::vector<Vec> MakeInterests(size_t n, size_t topics, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> out(n);
  for (auto& v : out) v = rng.Dirichlet(topics, 0.3);
  return out;
}

TEST(GeneratorTest, ProducesRoughlyRequestedDensity) {
  Rng rng(1);
  const size_t n = 500;
  const auto interests = MakeInterests(n, 5, 2);
  std::vector<int> echo(n, -1);
  NetworkGenOptions opts;
  opts.mean_followees = 10.0;
  opts.echo_chamber_density = 0.0;
  const auto net = GenerateFollowerNetwork(interests, echo, opts, &rng);
  EXPECT_EQ(net.NumNodes(), n);
  const double mean_deg =
      static_cast<double>(net.NumEdges()) / static_cast<double>(n);
  EXPECT_GT(mean_deg, 5.0);
  EXPECT_LT(mean_deg, 15.0);
}

TEST(GeneratorTest, PreferentialAttachmentYieldsHeavyTail) {
  Rng rng(3);
  const size_t n = 1500;
  const auto interests = MakeInterests(n, 5, 4);
  std::vector<int> echo(n, -1);
  NetworkGenOptions opts;
  opts.mean_followees = 12.0;
  opts.preferential_weight = 0.9;
  opts.echo_chamber_density = 0.0;
  const auto net = GenerateFollowerNetwork(interests, echo, opts, &rng);
  const DegreeStats stats = ComputeDegreeStats(net);
  // The top 1% of accounts should hold far more than 1% of followers.
  EXPECT_GT(stats.top1pct_share, 0.05);
  EXPECT_GT(stats.max_followers, 5.0 * stats.mean_followers);
}

TEST(GeneratorTest, EchoChamberDensifiesCommunity) {
  Rng rng(5);
  const size_t n = 300;
  const auto interests = MakeInterests(n, 4, 6);
  std::vector<int> echo(n, -1);
  // Users 0..19 form one echo community.
  for (size_t i = 0; i < 20; ++i) echo[i] = 0;
  NetworkGenOptions opts;
  opts.mean_followees = 5.0;
  opts.echo_chamber_density = 0.5;
  const auto net = GenerateFollowerNetwork(interests, echo, opts, &rng);

  // Count intra-community edges among the first 20 users.
  size_t intra = 0;
  for (NodeId u = 0; u < 20; ++u) {
    for (NodeId v : net.Followers(u)) {
      if (v < 20) ++intra;
    }
  }
  // Expected ~ 20*19*0.5 = 190 from densification alone.
  EXPECT_GT(intra, 100u);
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  const auto interests = MakeInterests(200, 4, 7);
  std::vector<int> echo(200, -1);
  NetworkGenOptions opts;
  Rng r1(9), r2(9);
  const auto n1 = GenerateFollowerNetwork(interests, echo, opts, &r1);
  const auto n2 = GenerateFollowerNetwork(interests, echo, opts, &r2);
  ASSERT_EQ(n1.NumEdges(), n2.NumEdges());
  for (NodeId u = 0; u < 200; ++u) {
    const auto a = n1.Followers(u), b = n2.Followers(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(DegreeStatsTest, EmptyNetwork) {
  InformationNetwork net;
  const DegreeStats stats = ComputeDegreeStats(net);
  EXPECT_DOUBLE_EQ(stats.mean_followers, 0.0);
}

}  // namespace
}  // namespace retina::graph
