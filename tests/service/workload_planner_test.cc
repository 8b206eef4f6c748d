// The planner's two contracts: grouping is deterministic and shaped by
// endpoint sharing, and planned execution is byte-identical to core
// PostProcess run query by query — for every algorithm, any thread count,
// and workloads that exercise duplicates, self-pairs, mixed roles, and
// rejections.

#include "service/workload_planner.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/protocol_pipeline.h"
#include "graph/generators.h"
#include "service/query_service.h"
#include "service/workload.h"

namespace cne {
namespace {

BipartiteGraph TestGraph() { return PlantedCommonNeighbors(3, 5, 2, 40, 8); }

std::vector<PlannedQueryRef> MakeRefs(const std::vector<QueryPair>& queries) {
  std::vector<PlannedQueryRef> refs;
  for (size_t i = 0; i < queries.size(); ++i) {
    refs.push_back({queries[i], i, i});
  }
  return refs;
}

WorkloadPlan PlanWorkload(const std::vector<PlannedQueryRef>& refs) {
  static BipartiteGraph graph = TestGraph();
  WorkloadPlanner planner(graph);
  return planner.Plan(refs);
}

TEST(PlanWorkloadTest, OneVsManyCollapsesIntoASingleGroup) {
  std::vector<QueryPair> queries;
  for (VertexId w = 1; w <= 6; ++w) queries.push_back({Layer::kLower, 0, w});
  const auto refs = MakeRefs(queries);
  const WorkloadPlan plan = PlanWorkload(refs);
  ASSERT_EQ(plan.groups.size(), 1u);
  const QueryGroup& group = plan.groups.front();
  EXPECT_EQ(group.source, (LayeredVertex{Layer::kLower, 0}));
  EXPECT_EQ(group.Size(), 6u);
  EXPECT_EQ(group.num_source_as_u, 6u);
  EXPECT_DOUBLE_EQ(plan.AvgGroupSize(), 6.0);
  // Within a role, items keep submission order — here ascending
  // candidates, the shape a top-k front end produces.
  const auto items = plan.Items(group);
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1].candidate, items[i].candidate);
  }
}

TEST(PlanWorkloadTest, SharedEndpointWinsEitherRole) {
  // Vertex 0 appears three times, once as u and twice as w: all three
  // queries join its group, with the roles recorded per item.
  const std::vector<QueryPair> queries = {{Layer::kLower, 0, 1},
                                          {Layer::kLower, 2, 0},
                                          {Layer::kLower, 3, 0}};
  const WorkloadPlan plan = PlanWorkload(MakeRefs(queries));
  ASSERT_EQ(plan.groups.size(), 1u);
  const QueryGroup& group = plan.groups.front();
  EXPECT_EQ(group.source, (LayeredVertex{Layer::kLower, 0}));
  EXPECT_EQ(group.num_source_as_u, 1u);  // only (0, 1) has the source as u
  EXPECT_EQ(group.Size(), 3u);
  // The role partition puts the source-as-u item first.
  EXPECT_TRUE(plan.Items(group)[0].source_is_u);
  EXPECT_FALSE(plan.Items(group)[1].source_is_u);
}

TEST(PlanWorkloadTest, LargestGroupComesFirstDeterministically) {
  const std::vector<QueryPair> queries = {
      {Layer::kLower, 7, 6},  // singleton group
      {Layer::kLower, 2, 1}, {Layer::kLower, 2, 3}, {Layer::kLower, 2, 4},
      {Layer::kLower, 5, 1},  // 1 appears twice, 5 once -> group of 1
  };
  const WorkloadPlan plan = PlanWorkload(MakeRefs(queries));
  ASSERT_EQ(plan.groups.size(), 3u);
  EXPECT_EQ(plan.groups[0].source, (LayeredVertex{Layer::kLower, 2}));
  EXPECT_EQ(plan.groups[0].Size(), 3u);
  // Equal-size groups tie-break on source id: vertex 1 before vertex 7.
  EXPECT_EQ(plan.groups[1].source, (LayeredVertex{Layer::kLower, 1}));
  EXPECT_EQ(plan.groups[2].source, (LayeredVertex{Layer::kLower, 7}));
  EXPECT_EQ(plan.num_queries, queries.size());
}

TEST(PlanWorkloadTest, SelfPairStaysWithU) {
  const std::vector<QueryPair> queries = {{Layer::kLower, 4, 4}};
  const WorkloadPlan plan = PlanWorkload(MakeRefs(queries));
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].source, (LayeredVertex{Layer::kLower, 4}));
  EXPECT_TRUE(plan.Items(plan.groups[0])[0].source_is_u);
  EXPECT_EQ(plan.Items(plan.groups[0])[0].candidate, 4u);
}

TEST(PlanWorkloadTest, ScratchResetsBetweenSubmissions) {
  const BipartiteGraph g = TestGraph();
  WorkloadPlanner planner(g);
  const WorkloadPlan first = planner.Plan(
      MakeRefs({{Layer::kLower, 0, 1}, {Layer::kLower, 0, 2}}));
  ASSERT_EQ(first.groups.size(), 1u);
  EXPECT_EQ(first.groups[0].source, (LayeredVertex{Layer::kLower, 0}));
  // The second submission must not inherit the first one's frequencies:
  // vertex 2 is the shared endpoint now, vertex 0 is absent.
  const WorkloadPlan second = planner.Plan(
      MakeRefs({{Layer::kLower, 1, 2}, {Layer::kLower, 3, 2}}));
  ASSERT_EQ(second.groups.size(), 1u);
  EXPECT_EQ(second.groups[0].source, (LayeredVertex{Layer::kLower, 2}));
  EXPECT_EQ(second.groups[0].num_source_as_u, 0u);
}

// --- The acceptance property: planned ≡ per-query PostProcess, bit for bit.

// Test-local oracle: core PostProcess over the service's released views,
// one query at a time. Admission hands a fresh service's i-th submitted
// query the Laplace substream i of Rng(seed).Fork(1); Naive and OneR
// draw no noise, so the stream only matters for the MultiR family.
double OracleAnswer(const BipartiteGraph& g, const QueryService& service,
                    const QueryPair& q, uint64_t stream) {
  const ServiceOptions& options = service.options();
  const ProtocolPlan plan = MakeProtocolPlan(
      options.algorithm, options.epsilon, options.epsilon1_fraction);
  const DebiasConstants debias = MakeDebiasConstantsForEpsilon(plan.epsilon1);
  const LayeredVertex u{q.layer, q.u};
  const LayeredVertex w{q.layer, q.w};
  ReleasedInputs inputs;
  if (plan.UsesNoisyViewU()) inputs.view_u = &service.store().View(u);
  inputs.view_w = &service.store().View(w);
  if (plan.LaplaceFromU()) inputs.neighbors_u = g.Neighbors(u);
  if (plan.LaplaceFromW()) inputs.neighbors_w = g.Neighbors(w);
  inputs.opposite_size = g.NumVertices(Opposite(q.layer));
  Rng rng = Rng(options.seed).Fork(1).Fork(stream);
  return PostProcess(plan, debias, inputs, rng);
}

constexpr ServiceAlgorithm kAllAlgorithms[] = {
    ServiceAlgorithm::kNaive, ServiceAlgorithm::kOneR,
    ServiceAlgorithm::kMultiRSS, ServiceAlgorithm::kMultiRDS};

std::vector<QueryPair> AdversarialWorkload(const BipartiteGraph& g) {
  // Hot-set reuse plus duplicates, both orientations, and self-pairs;
  // with the MultiR budgets this also produces rejections mid-stream.
  Rng rng(2024);
  std::vector<QueryPair> queries =
      MakeHotSetWorkload(g, Layer::kLower, 120, 6, rng);
  queries.push_back({Layer::kLower, 0, 1});
  queries.push_back({Layer::kLower, 0, 1});  // duplicate
  queries.push_back({Layer::kLower, 1, 0});  // reversed orientation
  queries.push_back({Layer::kLower, 3, 3});  // self-pair
  queries.push_back({Layer::kUpper, 0, 1});  // other layer
  return queries;
}

TEST(PlannedExecutionTest, ByteIdenticalToPostProcessOracleForAllAlgorithms) {
  const BipartiteGraph g = TestGraph();
  const std::vector<QueryPair> workload = AdversarialWorkload(g);
  for (ServiceAlgorithm algorithm : kAllAlgorithms) {
    ServiceOptions base;
    base.algorithm = algorithm;
    base.epsilon = 2.0;
    base.lifetime_budget = 6.0;
    base.seed = 31;

    std::vector<bool> sequential_rejected;
    for (int threads : {1, 2, 8}) {
      ServiceOptions options = base;
      options.num_threads = threads;
      QueryService service(g, options);
      const ServiceReport report = service.Submit(workload);
      ASSERT_EQ(report.answers.size(), workload.size());
      std::vector<bool> rejected;
      for (size_t i = 0; i < workload.size(); ++i) {
        const ServiceAnswer& answer = report.answers[i];
        rejected.push_back(answer.rejected);
        if (answer.rejected) continue;
        // Bitwise equality: counts are exact and the noise substreams are
        // assigned at admission, so execution shape cannot leak in.
        EXPECT_EQ(answer.estimate, OracleAnswer(g, service, workload[i], i))
            << ToString(algorithm) << " query " << i << " threads "
            << threads;
      }
      // Admission runs in submission order on one thread, so the
      // rejection pattern cannot depend on the pool size either.
      if (threads == 1) {
        sequential_rejected = rejected;
      } else {
        EXPECT_EQ(rejected, sequential_rejected)
            << ToString(algorithm) << " threads " << threads;
      }
      EXPECT_EQ(report.answered + report.rejected, workload.size());
      EXPECT_GT(report.answered, 0u) << ToString(algorithm);
      EXPECT_GT(report.groups_formed, 0u);
      EXPECT_GE(report.avg_group_size, 1.0);
    }
  }
}

TEST(PlannedExecutionTest, OneQuerySubmitRunsThroughThePlanner) {
  const BipartiteGraph g = TestGraph();
  const QueryPair query{Layer::kLower, 0, 1};
  for (ServiceAlgorithm algorithm : kAllAlgorithms) {
    ServiceOptions options;
    options.algorithm = algorithm;
    options.epsilon = 2.0;
    options.seed = 17;
    QueryService service(g, options);
    const ServiceReport report = service.Submit({query});
    ASSERT_EQ(report.answers.size(), 1u);
    ASSERT_FALSE(report.answers[0].rejected) << ToString(algorithm);
    EXPECT_EQ(report.groups_formed, 1u) << ToString(algorithm);
    EXPECT_DOUBLE_EQ(report.avg_group_size, 1.0);
    EXPECT_EQ(report.answers[0].estimate, OracleAnswer(g, service, query, 0))
        << ToString(algorithm);
  }
}

TEST(PlannedExecutionTest, PlannerAccountingIsReported) {
  const BipartiteGraph g = TestGraph();
  std::vector<QueryPair> queries;
  for (VertexId w = 1; w <= 6; ++w) queries.push_back({Layer::kLower, 0, w});
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = 1.0;
  QueryService service(g, options);
  const ServiceReport report = service.Submit(queries);
  EXPECT_EQ(report.groups_formed, 1u);
  EXPECT_DOUBLE_EQ(report.avg_group_size, 6.0);
  EXPECT_GE(report.planner_seconds, 0.0);
  EXPECT_EQ(report.rejected, 0u);
}

}  // namespace
}  // namespace cne
