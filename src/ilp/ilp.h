// LP/ILP substrate replacing GLPK (see DESIGN.md §2).
//
// Three solvers, cross-validated in tests:
//  * solve_lp         — dense two-phase primal simplex over
//                       min cᵀx, Ax {<=,=,>=} b, x >= 0.
//  * solve_binary_ilp — depth-first branch-and-bound on the LP relaxation
//                       for x ∈ {0,1}ⁿ problems.
//  * solve_mckp       — exact dynamic program for the multiple-choice
//                       knapsack form the WD optimizer emits: min Σ cost,
//                       one item per group, Σ weight ≤ capacity. It keeps
//                       the (weight, cost) Pareto front of partial sums,
//                       group by group, and builds each front by merging
//                       the previous one shifted by every item.
#pragma once

#include <cstdint>
#include <vector>

namespace ucudnn::ilp {

enum class Relation { kLessEqual, kEqual, kGreaterEqual };

struct Constraint {
  std::vector<double> coeffs;  // one per variable (dense)
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// min objectiveᵀ x subject to constraints, x >= 0.
struct LinearProgram {
  std::vector<double> objective;
  std::vector<Constraint> constraints;

  std::size_t num_vars() const noexcept { return objective.size(); }
};

struct LpResult {
  bool feasible = false;
  bool unbounded = false;
  double objective = 0.0;
  std::vector<double> x;
};

/// Two-phase primal simplex (Bland's rule; immune to cycling).
LpResult solve_lp(const LinearProgram& lp);

struct IlpOptions {
  std::int64_t max_nodes = 1'000'000;  // branch-and-bound node budget
};

struct IlpResult {
  bool feasible = false;
  double objective = 0.0;
  std::vector<int> x;            // 0/1 assignment
  std::int64_t nodes_explored = 0;
};

/// Exact 0-1 ILP via branch-and-bound with simplex relaxations. Variables
/// are implicitly bounded by x <= 1 (enforced with added constraints).
IlpResult solve_binary_ilp(const LinearProgram& lp, const IlpOptions& options = {});

// ------------------------- multiple-choice knapsack -------------------------

struct MckpItem {
  double cost = 0.0;        // execution time
  std::int64_t weight = 0;  // workspace bytes
};

struct MckpProblem {
  std::vector<std::vector<MckpItem>> groups;  // pick exactly one per group
  std::int64_t capacity = 0;
};

struct MckpResult {
  bool feasible = false;
  double cost = 0.0;
  std::vector<int> selection;  // chosen item index per group
};

/// Exact DP over Pareto fronts. After each group it keeps the partial sums
/// that fit the capacity, sorted by weight, each strictly cheaper than the
/// last one kept; the next front is a k-way merge of the previous one
/// shifted by each item's (weight, cost). Weights count in whole bytes, so
/// the optimum is exact at any capacity. A front has at most
/// min(capacity + 1, Π group sizes) entries. Ties on (weight, cost) go to
/// the lower item index, so the selection is the same on every run.
MckpResult solve_mckp(const MckpProblem& problem);

/// Builds the equivalent 0-1 ILP (used for cross-validation and as the
/// GLPK-style solve path): variables are the flattened group items.
LinearProgram mckp_to_ilp(const MckpProblem& problem);

}  // namespace ucudnn::ilp
