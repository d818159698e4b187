#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace faultroute::scenario {

/// A declarative scenario: the cross-product of topology × p × router ×
/// workload sweeps, run for `trials` independent environments per cell.
///
/// Specs are written in a small `key = value` grammar (one assignment per
/// line or `;`-separated, `#` comments to end of line) and parsed by
/// `parse_scenario` / `load_scenario_file`. The full grammar reference is
/// `docs/SCENARIOS.md`; the sweep axes reuse the registry string specs of
/// `sim/registry.hpp`.
///
/// Keys (sweep axes take comma-separated lists):
///   name      = hypercube-phase          # report label (default "scenario")
///   topology  = hypercube:10,torus:2:32  # required, >= 1 registry spec
///   router    = landmark,greedy          # default landmark
///   workload  = permutation,poisson:2    # default permutation
///   p         = 0.25,0.5  |  0.2:0.8:7   # list or lo:hi:points linspace
///   messages  = 1024                     # messages per cell      (>= 1)
///   trials    = 3                        # environments per cell  (>= 1)
///   seed      = 2005                     # base seed of the whole run
///   threads   = 0                        # worker threads over cells (0 = hw);
///                                        # a lone pending cell routes on them
///   capacity  = 1                        # edge capacity, msgs/step (>= 1)
///   budget    = 0                        # probe budget per message (0 = off)
///   max_steps = 0                        # delivery-step safety cap (0 = off)
///   snapshot_dir = snapshots             # mmap CSR snapshots from this dir (default off)
struct ScenarioSpec {
  std::string name = "scenario";
  std::vector<std::string> topologies;
  std::vector<std::string> routers = {"landmark"};
  std::vector<std::string> workloads = {"permutation"};
  std::vector<double> p_values = {0.5};
  std::uint64_t messages = 1024;
  std::uint64_t trials = 1;
  std::uint64_t seed = 2005;
  unsigned threads = 0;
  std::uint64_t edge_capacity = 1;
  std::uint64_t probe_budget = 0;  // 0 = unbounded
  std::uint64_t max_steps = 0;     // 0 = unbounded
  /// When non-empty, the runner resolves each topology's CSR adjacency from
  /// this directory of on-disk snapshots (graph/snapshot.hpp, built with
  /// `faultroute snapshot build`): present snapshots are mmap'd instead of
  /// materialized, absent ones fall back to the normal build, corrupt ones
  /// fail the run. Purely an acceleration — results and report bytes are
  /// identical with or without it, which is why the key is absent from the
  /// report header and from checkpoint fingerprints.
  std::string snapshot_dir;

  /// Cells of the cross-product (topologies × p × routers × workloads ×
  /// trials). Cells are indexed row-major in that key order, trials fastest;
  /// the index is the basis of the per-cell seeding contract (see runner.hpp).
  /// Only meaningful on a validated spec — validate_scenario caps the
  /// product (overflow-checked) at 2^20 cells.
  [[nodiscard]] std::uint64_t num_cells() const {
    return topologies.size() * p_values.size() * routers.size() * workloads.size() * trials;
  }
};

/// Applies the assignments in `text` on top of `spec` without validating the
/// result (so a file can be loaded first and overrides applied on top).
/// Throws std::invalid_argument on syntax errors, unknown keys, malformed
/// values, or a key assigned twice within one `text`.
void apply_scenario_assignments(ScenarioSpec& spec, const std::string& text);

/// Checks cross-field invariants: at least one topology, every p in [0, 1],
/// messages/trials/capacity >= 1, and a cell count that fits the reporting
/// machinery. Throws std::invalid_argument with the offending key on failure.
/// Registry specs (topology/router/workload strings) are validated by the
/// runner, which constructs them before any cell executes.
void validate_scenario(const ScenarioSpec& spec);

/// parse + validate convenience for a complete spec text.
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text);

/// Reads `path` and parses its contents; `name` defaults to the file stem
/// when the spec does not set it. Throws std::runtime_error if the file
/// cannot be read.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace faultroute::scenario
