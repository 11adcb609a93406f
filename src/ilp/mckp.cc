// Exact multiple-choice knapsack: a dynamic program over Pareto fronts of
// partial sums, the WD solve path.
//
// After group g the front holds the (total weight, total cost) sums of one
// item from each of groups 0..g that fit the capacity, sorted by weight,
// each strictly cheaper than the one before it. Each item of the next group
// shifts the front by its (weight, cost), which gives one sorted copy per
// item; a k-way merge over those copies, with a heap of one cursor per
// item, builds the next front in one pass and needs no sort. Every entry
// keeps (parent index, item), so the optimum, the last entry of the last
// front, unwinds to a selection. Weights count in whole bytes: the result
// is exact at any capacity.
#include <algorithm>
#include <tuple>

#include "common/status.h"
#include "ilp/ilp.h"

namespace ucudnn::ilp {
namespace {

// A front entry, and also a merge cursor: the entry that `item` shifted onto
// the previous front's entry `parent` produces.
struct Entry {
  std::int64_t weight = 0;
  double cost = 0.0;
  std::size_t parent = 0;
  int item = -1;
};

// Heap order (std heaps pop the largest): lightest first, then cheapest,
// then the lowest item index, so ties resolve the same way on every run.
bool pops_after(const Entry& a, const Entry& b) {
  return std::tie(a.weight, a.cost, a.item) >
         std::tie(b.weight, b.cost, b.item);
}

}  // namespace

MckpResult solve_mckp(const MckpProblem& problem) {
  const std::size_t groups = problem.groups.size();
  if (groups == 0) return MckpResult{true, 0.0, {}};
  check_param(problem.capacity >= 0, "negative knapsack capacity");

  const std::vector<Entry> empty_sum(1);
  std::vector<std::vector<Entry>> fronts(groups);
  std::vector<Entry> heap;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& group = problem.groups[g];
    const std::vector<Entry>& prev = g == 0 ? empty_sum : fronts[g - 1];
    std::vector<Entry>& front = fronts[g];
    check_param(!group.empty(), "empty MCKP group");
    // Pushes item's cursor at prev[parent] or later. Entries no cheaper than
    // the last one kept stay dominated (that cost only falls), so the cursor
    // skips them; past the capacity or the end of prev, the copy is done.
    const auto push = [&](std::size_t parent, int item) {
      const MckpItem& it = group[static_cast<std::size_t>(item)];
      while (!front.empty() && parent < prev.size() &&
             prev[parent].cost + it.cost >= front.back().cost) {
        ++parent;
      }
      if (parent >= prev.size()) return;
      if (it.weight > problem.capacity - prev[parent].weight) return;
      heap.push_back({prev[parent].weight + it.weight,
                      prev[parent].cost + it.cost, parent, item});
      std::push_heap(heap.begin(), heap.end(), pops_after);
    };
    for (std::size_t item = 0; item < group.size(); ++item) {
      check_param(group[item].weight >= 0, "negative item weight");
      push(0, static_cast<int>(item));
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), pops_after);
      const Entry next = heap.back();
      heap.pop_back();
      if (front.empty() || next.cost < front.back().cost) {
        front.push_back(next);
      }
      push(next.parent + 1, next.item);
    }
  }
  if (fronts.back().empty()) return {};  // infeasible

  MckpResult result{true, fronts.back().back().cost,
                    std::vector<int>(groups)};
  std::size_t index = fronts.back().size() - 1;
  for (std::size_t g = groups; g-- > 0;) {
    result.selection[g] = fronts[g][index].item;
    index = fronts[g][index].parent;
  }
  return result;
}

}  // namespace ucudnn::ilp
