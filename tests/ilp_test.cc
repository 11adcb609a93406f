// Tests for the LP/ILP substrate: simplex against textbook LPs, the 0-1
// branch-and-bound against brute force, the MCKP DP against both, and
// property sweeps on random instances.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "common/status.h"
#include "ilp/ilp.h"

namespace ucudnn::ilp {
namespace {

TEST(SimplexTest, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
  LinearProgram lp;
  lp.objective = {-3.0, -5.0};  // minimize the negation
  lp.constraints = {
      {{1.0, 0.0}, Relation::kLessEqual, 4.0},
      {{0.0, 2.0}, Relation::kLessEqual, 12.0},
      {{3.0, 2.0}, Relation::kLessEqual, 18.0},
  };
  const LpResult r = solve_lp(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.unbounded);
  EXPECT_NEAR(r.objective, -36.0, 1e-6);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
  EXPECT_NEAR(r.x[1], 6.0, 1e-6);
}

TEST(SimplexTest, EqualityAndGreaterEqual) {
  // min x + 2y s.t. x + y = 10, x >= 3 -> x=10? No: y >= 0, minimize picks
  // y=0, x=10 -> obj 10? Check x>=3 satisfied. Optimal: x=10, y=0, obj=10.
  LinearProgram lp;
  lp.objective = {1.0, 2.0};
  lp.constraints = {
      {{1.0, 1.0}, Relation::kEqual, 10.0},
      {{1.0, 0.0}, Relation::kGreaterEqual, 3.0},
  };
  const LpResult r = solve_lp(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 10.0, 1e-6);
  EXPECT_NEAR(r.x[0], 10.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasible) {
  LinearProgram lp;
  lp.objective = {1.0};
  lp.constraints = {
      {{1.0}, Relation::kLessEqual, 1.0},
      {{1.0}, Relation::kGreaterEqual, 2.0},
  };
  const LpResult r = solve_lp(lp);
  EXPECT_FALSE(r.feasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  // min -x with only x >= 0 and a vacuous constraint.
  LinearProgram lp;
  lp.objective = {-1.0};
  lp.constraints = {{{-1.0}, Relation::kLessEqual, 5.0}};
  const LpResult r = solve_lp(lp);
  EXPECT_TRUE(r.unbounded);
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // x - y <= -2 with min x + y -> y >= x + 2, best x=0, y=2.
  LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints = {{{1.0, -1.0}, Relation::kLessEqual, -2.0}};
  const LpResult r = solve_lp(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Classic degenerate LP; Bland's rule must terminate.
  LinearProgram lp;
  lp.objective = {-0.75, 150.0, -0.02, 6.0};
  lp.constraints = {
      {{0.25, -60.0, -0.04, 9.0}, Relation::kLessEqual, 0.0},
      {{0.5, -90.0, -0.02, 3.0}, Relation::kLessEqual, 0.0},
      {{0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0},
  };
  const LpResult r = solve_lp(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, -0.05, 1e-6);
}

// Brute force over all 0/1 assignments (reference for small ILPs).
double brute_force_ilp(const LinearProgram& lp, std::vector<int>* best_x) {
  const std::size_t n = lp.num_vars();
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    bool ok = true;
    for (const auto& con : lp.constraints) {
      double lhs = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (std::uint64_t{1} << i)) lhs += con.coeffs[i];
      }
      if (con.relation == Relation::kLessEqual && lhs > con.rhs + 1e-9) ok = false;
      if (con.relation == Relation::kGreaterEqual && lhs < con.rhs - 1e-9) ok = false;
      if (con.relation == Relation::kEqual && std::abs(lhs - con.rhs) > 1e-9) ok = false;
      if (!ok) break;
    }
    if (!ok) continue;
    double obj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) obj += lp.objective[i];
    }
    if (obj < best) {
      best = obj;
      if (best_x) {
        best_x->assign(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
          (*best_x)[i] = (mask >> i) & 1;
        }
      }
    }
  }
  return best;
}

TEST(BranchBoundTest, SmallKnapsack) {
  // max value knapsack as min of negated values.
  // items (v, w): (60,10), (100,20), (120,30), capacity 50 -> 220.
  LinearProgram lp;
  lp.objective = {-60.0, -100.0, -120.0};
  lp.constraints = {{{10.0, 20.0, 30.0}, Relation::kLessEqual, 50.0}};
  const IlpResult r = solve_binary_ilp(lp);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, -220.0, 1e-6);
  EXPECT_EQ(r.x, (std::vector<int>{0, 1, 1}));
}

TEST(BranchBoundTest, InfeasibleIlp) {
  LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints = {
      {{1.0, 1.0}, Relation::kEqual, 1.0},
      {{1.0, 1.0}, Relation::kGreaterEqual, 2.0},
  };
  const IlpResult r = solve_binary_ilp(lp);
  EXPECT_FALSE(r.feasible);
}

TEST(BranchBoundTest, MatchesBruteForceOnRandomInstances) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> cost(0.1, 10.0);
  std::uniform_int_distribution<int> weight(1, 20);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(trial % 8);
    LinearProgram lp;
    for (std::size_t i = 0; i < n; ++i) lp.objective.push_back(-cost(rng));
    Constraint budget;
    for (std::size_t i = 0; i < n; ++i) {
      budget.coeffs.push_back(static_cast<double>(weight(rng)));
    }
    budget.relation = Relation::kLessEqual;
    budget.rhs = 30.0;
    lp.constraints.push_back(budget);

    const double expected = brute_force_ilp(lp, nullptr);
    const IlpResult r = solve_binary_ilp(lp);
    ASSERT_TRUE(r.feasible) << "trial " << trial;
    EXPECT_NEAR(r.objective, expected, 1e-6) << "trial " << trial;
  }
}

MckpProblem random_mckp(unsigned seed, std::size_t groups, std::size_t items,
                        std::int64_t capacity, std::int64_t max_weight = 40) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> cost(0.5, 20.0);
  std::uniform_int_distribution<std::int64_t> weight(0, max_weight);
  MckpProblem p;
  p.capacity = capacity;
  p.groups.resize(groups);
  for (auto& group : p.groups) {
    for (std::size_t i = 0; i < items; ++i) {
      group.push_back(MckpItem{cost(rng), weight(rng)});
    }
  }
  return p;
}

TEST(MckpTest, HandPickedInstance) {
  // Two groups; the cheap-cost items together exceed capacity, forcing a
  // tradeoff.
  MckpProblem p;
  p.capacity = 10;
  p.groups = {
      {{1.0, 8}, {5.0, 2}},   // group 0: fast-but-heavy vs slow-but-light
      {{2.0, 8}, {4.0, 1}},   // group 1
  };
  const MckpResult r = solve_mckp(p);
  ASSERT_TRUE(r.feasible);
  // Options: (1+4, 9), (5+2, 10), (5+4, 3), (1+2, 16 infeasible).
  EXPECT_NEAR(r.cost, 5.0, 1e-9);
  EXPECT_EQ(r.selection, (std::vector<int>{0, 1}));
}

TEST(MckpTest, InfeasibleWhenEverythingTooHeavy) {
  MckpProblem p;
  p.capacity = 3;
  p.groups = {{{1.0, 5}, {2.0, 4}}};
  const MckpResult r = solve_mckp(p);
  EXPECT_FALSE(r.feasible);
}

TEST(MckpTest, ZeroCapacityNeedsZeroWeightItems) {
  MckpProblem p;
  p.capacity = 0;
  p.groups = {{{3.0, 0}, {1.0, 5}}, {{2.0, 0}}};
  const MckpResult r = solve_mckp(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.cost, 5.0, 1e-9);
  EXPECT_EQ(r.selection, (std::vector<int>{0, 0}));
}

TEST(MckpTest, MatchesBranchAndBoundOnRandomInstances) {
  std::vector<MckpProblem> problems;
  for (unsigned seed = 0; seed < 12; ++seed) {
    problems.push_back(random_mckp(seed, 4, 3, 60));
  }
  // Capacities above 65,536 B, where a grid of 65,536 weight buckets would
  // round weights up; odd weights sit off every even grid.
  for (unsigned seed = 12; seed < 24; ++seed) {
    MckpProblem p = random_mckp(seed, 4, 3, 150'001, 75'000);
    for (auto& group : p.groups) {
      for (auto& item : group) item.weight |= 1;
    }
    problems.push_back(p);
  }
  for (std::size_t seed = 0; seed < problems.size(); ++seed) {
    const MckpProblem& p = problems[seed];
    const MckpResult dp = solve_mckp(p);
    const IlpResult bb = solve_binary_ilp(mckp_to_ilp(p));
    ASSERT_EQ(dp.feasible, bb.feasible) << "seed " << seed;
    if (dp.feasible) {
      EXPECT_NEAR(dp.cost, bb.objective, 1e-6) << "seed " << seed;
    }
  }
}

TEST(MckpTest, SelectionIsConsistentWithCostAndCapacity) {
  for (unsigned seed = 100; seed < 110; ++seed) {
    const MckpProblem p = random_mckp(seed, 6, 5, 100);
    const MckpResult r = solve_mckp(p);
    if (!r.feasible) continue;
    double cost = 0;
    std::int64_t weight = 0;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      ASSERT_GE(r.selection[g], 0);
      const auto& item =
          p.groups[g][static_cast<std::size_t>(r.selection[g])];
      cost += item.cost;
      weight += item.weight;
    }
    EXPECT_NEAR(cost, r.cost, 1e-9);
    EXPECT_LE(weight, p.capacity);
  }
}

TEST(MckpTest, ExactAtByteGranularity) {
  // The two heavy items fill the capacity exactly. Rounded up to a 16 B grid
  // (1 MiB / 65,536 buckets) they would need 32,769 + 32,768 > 65,536 units,
  // and the solve would settle for cost 6.
  constexpr std::int64_t kCapacity = 1 << 20;
  MckpProblem p;
  p.capacity = kCapacity;
  p.groups = {{{1.0, kCapacity / 2 + 8}, {5.0, 0}},
              {{1.0, kCapacity / 2 - 8}, {5.0, 0}}};
  const MckpResult r = solve_mckp(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);
  EXPECT_EQ(r.selection, (std::vector<int>{0, 0}));
  const IlpResult bb = solve_binary_ilp(mckp_to_ilp(p));
  ASSERT_TRUE(bb.feasible);
  EXPECT_NEAR(bb.objective, 2.0, 1e-9);
}

TEST(MckpTest, LargerCapacityNeverHurts) {
  const MckpProblem base = random_mckp(3, 5, 4, 50);
  MckpProblem wide = base;
  wide.capacity = 200;
  const MckpResult narrow = solve_mckp(base);
  const MckpResult broad = solve_mckp(wide);
  ASSERT_TRUE(broad.feasible);
  if (narrow.feasible) {
    EXPECT_LE(broad.cost, narrow.cost + 1e-9);
  }
}

TEST(MckpTest, RejectsMalformedInput) {
  MckpProblem p;
  p.capacity = -1;
  p.groups = {{{1.0, 1}}};
  EXPECT_THROW(solve_mckp(p), Error);
  p.capacity = 10;
  p.groups = {{}};
  EXPECT_THROW(solve_mckp(p), Error);
  p.groups = {{{1.0, -5}}};
  EXPECT_THROW(solve_mckp(p), Error);
}

TEST(MckpToIlpTest, StructureIsCorrect) {
  MckpProblem p;
  p.capacity = 7;
  p.groups = {{{1.0, 2}, {2.0, 3}}, {{3.0, 4}}};
  const LinearProgram lp = mckp_to_ilp(p);
  EXPECT_EQ(lp.num_vars(), 3u);
  ASSERT_EQ(lp.constraints.size(), 3u);  // budget + 2 exactly-one rows
  EXPECT_EQ(lp.constraints[0].relation, Relation::kLessEqual);
  EXPECT_EQ(lp.constraints[0].rhs, 7.0);
  EXPECT_EQ(lp.constraints[1].relation, Relation::kEqual);
  EXPECT_EQ(lp.constraints[1].rhs, 1.0);
}

}  // namespace
}  // namespace ucudnn::ilp
