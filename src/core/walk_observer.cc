#include "src/core/walk_observer.h"

#include <cinttypes>

#include "src/core/engine.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace fm {

ProgressReporter::ProgressReporter(double interval_s, std::FILE* out)
    : interval_s_(interval_s), out_(out != nullptr ? out : stderr) {}

void ProgressReporter::OnRunBegin(const WalkRunInfo& info) {
  FM_CHECK_MSG(info.stats != nullptr, "WalkRunInfo carries no run tally");
  stats_ = info.stats;
  total_episodes_ = info.episodes;
  steps_per_episode_ = info.steps;
  ticks_done_ = 0;
  lines_printed_ = 0;
  start_ns_ = NowNs();
  last_print_ns_ = start_ns_;
}

void ProgressReporter::OnStepEnd(uint64_t episode, uint32_t step,
                                 Wid live_walkers) {
  ++ticks_done_;
  const uint64_t now = NowNs();
  if (static_cast<double>(now - last_print_ns_) < interval_s_ * 1e9) {
    return;
  }
  last_print_ns_ = now;
  PrintLine(episode, step, live_walkers, /*final_line=*/false);
}

void ProgressReporter::OnRunEnd() {
  PrintLine(total_episodes_ > 0 ? total_episodes_ - 1 : 0,
            steps_per_episode_ > 0 ? steps_per_episode_ - 1 : 0,
            /*live_walkers=*/0, /*final_line=*/true);
}

void ProgressReporter::PrintLine(uint64_t episode, uint32_t step,
                                 Wid live_walkers, bool final_line) {
  const uint64_t walker_steps = stats_->total_steps;
  const double elapsed_s = static_cast<double>(NowNs() - start_ns_) / 1e9;
  const double rate =
      elapsed_s > 0 ? static_cast<double>(walker_steps) / elapsed_s : 0;
  if (final_line) {
    std::fprintf(out_,
                 "[fm] done: %" PRIu64 " walker-steps in %.1fs "
                 "(%.2fM steps/s)\n",
                 walker_steps, elapsed_s, rate / 1e6);
  } else {
    const uint64_t total_ticks =
        total_episodes_ * static_cast<uint64_t>(steps_per_episode_);
    const double frac = total_ticks > 0 ? static_cast<double>(ticks_done_) /
                                              static_cast<double>(total_ticks)
                                        : 0;
    const double eta_s = frac > 0 ? elapsed_s * (1.0 - frac) / frac : 0;
    std::fprintf(out_,
                 "[fm] ep %" PRIu64 "/%" PRIu64 " step %u/%u live %" PRIu64
                 " %.2fM steps/s ETA %.0fs\n",
                 episode + 1, total_episodes_, step + 1, steps_per_episode_,
                 live_walkers, rate / 1e6, eta_s);
  }
  std::fflush(out_);
  ++lines_printed_;
}

}  // namespace fm
