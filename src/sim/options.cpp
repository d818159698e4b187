#include "sim/options.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/strict_parse.hpp"

namespace faultroute::sim {

int Options::trials_or(int full_default) const {
  if (trials) return *trials;
  if (quick) return std::max(5, full_default / 4);
  return full_default;
}

std::optional<std::string> Options::csv_path(const std::string& table_name) const {
  if (!csv_dir) return std::nullopt;
  return *csv_dir + "/" + table_name + ".csv";
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg.rfind("--trials=", 0) == 0) {
      const auto trials = strict_i64(arg.substr(9));
      if (!trials || *trials < 1 || *trials > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("--trials: expected a positive integer, got '" +
                                    arg.substr(9) + "'");
      }
      options.trials = static_cast<int>(*trials);
    } else if (arg.rfind("--seed=", 0) == 0) {
      const auto seed = strict_u64(arg.substr(7));
      if (!seed) {
        throw std::invalid_argument("--seed: expected an unsigned integer, got '" +
                                    arg.substr(7) + "'");
      }
      options.seed = *seed;
    } else if (arg.rfind("--csv=", 0) == 0) {
      options.csv_dir = arg.substr(6);
    } else {
      throw std::invalid_argument("unknown option: " + arg +
                                  " (supported: --quick --trials=N --seed=S --csv=DIR)");
    }
  }
  return options;
}

}  // namespace faultroute::sim
