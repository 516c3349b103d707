// Timing decorator around a campaign backend: times every cell the
// runner hands it, through the backend's stateless run() and through
// each per-worker context's run(). The cell times feed the study's job
// latency; with a tracer attached each cell also becomes a "sim" span
// whose parent is the runner span that caused it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "harness.hpp"

namespace e2e {

class TimedBackend : public sci::exec::Backend {
 public:
  TimedBackend(sci::exec::Backend& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Parent span of the cells of the next runner.run().
  void set_parent(std::uint64_t parent) { parent_ = parent; }

  /// Seconds per cell since the last call, ordered by the cell's seed,
  /// so a campaign lists its cells in the same order on every run.
  [[nodiscard]] std::vector<double> take_cell_seconds() {
    std::vector<std::pair<std::uint64_t, double>> cells;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cells = std::exchange(cells_, {});
    }
    std::sort(cells.begin(), cells.end());
    std::vector<double> seconds;
    for (const auto& cell : cells) seconds.push_back(cell.second);
    return seconds;
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }

  [[nodiscard]] sci::exec::CellResult run(const sci::exec::Config& config,
                                          std::uint64_t seed) override {
    const double t0 = now_s();
    sci::exec::CellResult result = inner_.run(config, seed);
    finish(seed, t0);
    return result;
  }

  [[nodiscard]] std::unique_ptr<sci::exec::BackendContext> make_context() override {
    auto inner = inner_.make_context();
    if (inner == nullptr) return nullptr;
    return std::make_unique<Context>(*this, std::move(inner));
  }

 private:
  class Context : public sci::exec::BackendContext {
   public:
    Context(TimedBackend& owner, std::unique_ptr<sci::exec::BackendContext> inner)
        : owner_(owner), inner_(std::move(inner)) {}
    [[nodiscard]] sci::exec::CellResult run(const sci::exec::Config& config,
                                            std::uint64_t seed) override {
      const double t0 = now_s();
      sci::exec::CellResult result = inner_->run(config, seed);
      owner_.finish(seed, t0);
      return result;
    }

   private:
    TimedBackend& owner_;
    std::unique_ptr<sci::exec::BackendContext> inner_;
  };

  void finish(std::uint64_t seed, double t0) {
    const double t1 = now_s();
    if (tracer_ != nullptr) tracer_->add(parent_, "sim.cell", "sim", t0, t1);
    std::lock_guard<std::mutex> lock(mutex_);
    cells_.emplace_back(seed, t1 - t0);
  }

  sci::exec::Backend& inner_;
  Tracer* tracer_;
  std::uint64_t parent_ = 0;
  std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, double>> cells_;
};

}  // namespace e2e
