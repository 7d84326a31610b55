#include "sim/sync.hpp"

namespace csar::sim {

Task<void> when_all(Simulation& sim, std::vector<Task<void>> tasks) {
  co_await when_all(sim, tasks.size(),
                    [&tasks](std::size_t i) { return std::move(tasks[i]); });
}

}  // namespace csar::sim
