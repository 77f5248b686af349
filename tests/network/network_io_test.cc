#include "network/network_io.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace teamdisc {
namespace {

ExpertNetwork SampleNet() {
  ExpertNetworkBuilder b;
  b.AddExpert("Alice Smith", {"data mining", "nlp"}, 12.0, 40);
  b.AddExpert("Bob", {}, 3.0, 7);
  b.AddExpert("Carol", {"nlp"}, 1.0, 2);
  TD_CHECK_OK(b.AddEdge(0, 1, 0.5));
  TD_CHECK_OK(b.AddEdge(1, 2, 0.125));
  return b.Finish().ValueOrDie();
}

TEST(NetworkIoTest, SerializeSections) {
  std::string s = SerializeNetwork(SampleNet());
  EXPECT_NE(s.find("format 2"), std::string::npos);
  EXPECT_NE(s.find("experts 3"), std::string::npos);
  EXPECT_NE(s.find("edges 2"), std::string::npos);
  // Spaces in names and skills are percent-escaped, never folded.
  EXPECT_NE(s.find("Alice%20Smith"), std::string::npos);
  EXPECT_NE(s.find("data%20mining,nlp"), std::string::npos);
  EXPECT_EQ(s.find("Alice_Smith"), std::string::npos);
  // Skill-less experts serialize a dash.
  EXPECT_NE(s.find(" Bob -"), std::string::npos);
}

TEST(NetworkIoTest, RoundTripPreservesNamesWithSpaces) {
  // The old writer folded whitespace to '_', so "John Smith" came back as
  // "John_Smith" and the CLI papered over it with an underscore<->space
  // retry. The escaped format must round-trip names exactly.
  ExpertNetworkBuilder b;
  b.AddExpert("John Smith", {"machine learning", "data, wrangling"}, 5.0, 9);
  b.AddExpert("Ada 100% Lovelace", {"machine learning"}, 9.0, 3);
  b.AddExpert("", {}, 2.0, 0);  // empty name must survive too
  TD_CHECK_OK(b.AddEdge(0, 1, 1.25));
  TD_CHECK_OK(b.AddEdge(1, 2, 0.5));
  ExpertNetwork net = b.Finish().ValueOrDie();
  ExpertNetwork parsed = DeserializeNetwork(SerializeNetwork(net)).ValueOrDie();
  ASSERT_EQ(parsed.num_experts(), 3u);
  EXPECT_EQ(parsed.expert(0).name, "John Smith");
  EXPECT_EQ(parsed.expert(1).name, "Ada 100% Lovelace");
  EXPECT_EQ(parsed.expert(2).name, "");
  SkillId ml = parsed.skills().Find("machine learning");
  ASSERT_NE(ml, kInvalidSkill);
  EXPECT_EQ(parsed.ExpertsWithSkill(ml).size(), 2u);
  // Even a comma inside a skill name survives the comma-separated list.
  EXPECT_NE(parsed.skills().Find("data, wrangling"), kInvalidSkill);
}

TEST(NetworkIoTest, SkillNamedDashDoesNotCollideWithEmptySentinel) {
  // "-" as the whole skills field means "no skills"; a skill literally
  // named "-" must therefore serialize escaped, not vanish on round trip.
  ExpertNetworkBuilder b;
  b.AddExpert("solo", {"-"}, 3.0, 1);
  b.AddExpert("none", {}, 2.0, 0);
  TD_CHECK_OK(b.AddEdge(0, 1, 1.0));
  ExpertNetwork parsed =
      DeserializeNetwork(SerializeNetwork(b.Finish().ValueOrDie())).ValueOrDie();
  ASSERT_EQ(parsed.expert(0).skills.size(), 1u);
  EXPECT_NE(parsed.skills().Find("-"), kInvalidSkill);
  EXPECT_TRUE(parsed.expert(1).skills.empty());
}

TEST(NetworkIoTest, RejectsMalformedEscapes) {
  const std::string prefix = "format 2\nexperts 1\n0 1 0 ";
  const std::string suffix = " -\nedges 0\n";
  EXPECT_FALSE(DeserializeNetwork(prefix + "bad%2" + suffix).ok());
  EXPECT_FALSE(DeserializeNetwork(prefix + "bad%zz" + suffix).ok());
  EXPECT_FALSE(DeserializeNetwork(prefix + "trailing%" + suffix).ok());
}

TEST(NetworkIoTest, RejectsUnsupportedFormatVersion) {
  EXPECT_FALSE(DeserializeNetwork("format 3\nexperts 0\nedges 0\n").ok());
  EXPECT_FALSE(DeserializeNetwork("format 0\nexperts 0\nedges 0\n").ok());
  EXPECT_FALSE(DeserializeNetwork("format 1\nexperts 0\nedges 0\n").ok());
  // No format line: the old writer's underscore-folded file is refused
  // rather than read with names that cannot be escaped back.
  EXPECT_TRUE(DeserializeNetwork("# teamdisc expert network v1\n"
                                 "experts 2\n"
                                 "0 4 7 John_Smith data_mining\n"
                                 "1 2 1 100%_done -\n"
                                 "edges 1\n"
                                 "0 1 0.75\n")
                  .status()
                  .IsInvalidArgument());
  // format after the experts header is malformed.
  EXPECT_FALSE(
      DeserializeNetwork("experts 0\nformat 2\nedges 0\n").ok());
}

TEST(NetworkIoTest, RoundTripPreservesEverything) {
  ExpertNetwork net = SampleNet();
  ExpertNetwork parsed = DeserializeNetwork(SerializeNetwork(net)).ValueOrDie();
  EXPECT_EQ(parsed.num_experts(), 3u);
  EXPECT_EQ(parsed.graph().num_edges(), 2u);
  EXPECT_DOUBLE_EQ(parsed.Authority(0), 12.0);
  EXPECT_EQ(parsed.expert(0).num_publications, 40u);
  EXPECT_EQ(parsed.expert(1).name, "Bob");
  EXPECT_TRUE(parsed.expert(1).skills.empty());
  EXPECT_DOUBLE_EQ(parsed.graph().EdgeWeight(1, 2), 0.125);
  SkillId nlp = parsed.skills().Find("nlp");
  ASSERT_NE(nlp, kInvalidSkill);
  EXPECT_EQ(parsed.ExpertsWithSkill(nlp).size(), 2u);
}

TEST(NetworkIoTest, FileRoundTrip) {
  ExpertNetwork net = SampleNet();
  std::string path = testing::TempDir() + "/network_io_test.txt";
  ASSERT_TRUE(SaveNetwork(net, path).ok());
  ExpertNetwork loaded = LoadNetwork(path).ValueOrDie();
  EXPECT_EQ(loaded.num_experts(), net.num_experts());
  EXPECT_EQ(loaded.graph().num_edges(), net.graph().num_edges());
  std::remove(path.c_str());
}

TEST(NetworkIoTest, RejectsCountMismatches) {
  EXPECT_FALSE(
      DeserializeNetwork("format 2\nexperts 2\n0 1 0 a -\nedges 0\n").ok());
  EXPECT_FALSE(DeserializeNetwork(
                   "format 2\nexperts 1\n0 1 0 a -\nedges 2\n0 0 1.0\n")
                   .ok());
}

TEST(NetworkIoTest, RejectsNonDenseIds) {
  EXPECT_FALSE(DeserializeNetwork(
                   "format 2\nexperts 2\n0 1 0 a -\n2 1 0 b -\nedges 0\n")
                   .ok());
}

TEST(NetworkIoTest, RejectsMalformedLines) {
  EXPECT_FALSE(DeserializeNetwork("format 2\nbogus\n").ok());
  EXPECT_FALSE(
      DeserializeNetwork("format 2\nexperts 1\n0 1 0 a\nedges 0\n").ok());
  EXPECT_FALSE(DeserializeNetwork("format 2\nexperts 0\nedges 1\n0 1\n").ok());
  EXPECT_FALSE(DeserializeNetwork("").ok());
  // Missing edges section.
  EXPECT_FALSE(DeserializeNetwork("format 2\nexperts 0\n").ok());
}

TEST(NetworkIoTest, RejectsBadEdgeEndpoint) {
  auto r = DeserializeNetwork(
      "format 2\nexperts 1\n0 1 0 a -\nedges 1\n0 5 1.0\n");
  EXPECT_FALSE(r.ok());
}

TEST(NetworkIoTest, EmptyNetworkRoundTrip) {
  ExpertNetworkBuilder b;
  ExpertNetwork net = b.Finish().ValueOrDie();
  ExpertNetwork parsed = DeserializeNetwork(SerializeNetwork(net)).ValueOrDie();
  EXPECT_EQ(parsed.num_experts(), 0u);
}

TEST(NetworkIoTest, CommentsIgnored) {
  std::string content =
      "# header comment\nformat 2\nexperts 1\n# expert line next\n0 2.5 3 solo "
      "skill_a\nedges 0\n";
  ExpertNetwork net = DeserializeNetwork(content).ValueOrDie();
  EXPECT_EQ(net.num_experts(), 1u);
  EXPECT_DOUBLE_EQ(net.Authority(0), 2.5);
}

}  // namespace
}  // namespace teamdisc
