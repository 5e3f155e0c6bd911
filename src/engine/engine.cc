#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "clustering/simd/simd.h"

namespace uclust::engine {

namespace {

// Applies EngineConfig::simd_isa to the process-global kernel dispatcher.
// Unknown or unavailable requests fall back to auto (with a stderr warning)
// rather than failing construction: the fallback is value-identical, only
// slower/faster.
void ApplySimdIsa(const std::string& name) {
  clustering::simd::Isa isa;
  if (!clustering::simd::IsaFromString(name, &isa)) {
    std::fprintf(stderr,
                 "engine: unknown simd_isa '%s', using auto (%s)\n",
                 name.c_str(),
                 clustering::simd::IsaName(
                     clustering::simd::DetectBestIsa()).c_str());
    clustering::simd::ForceIsa(clustering::simd::Isa::kAuto);
    return;
  }
  if (!clustering::simd::ForceIsa(isa)) {
    std::fprintf(stderr,
                 "engine: simd_isa '%s' not available on this "
                 "build/cpu, using auto (%s)\n",
                 name.c_str(),
                 clustering::simd::IsaName(
                     clustering::simd::DetectBestIsa()).c_str());
    clustering::simd::ForceIsa(clustering::simd::Isa::kAuto);
  }
}

}  // namespace

Engine::Engine(const EngineConfig& config) {
  block_size_ = std::max<std::size_t>(config.block_size, 1);
  memory_budget_bytes_ = config.memory_budget_bytes;
  ApplySimdIsa(config.simd_isa);
  int threads = config.num_threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(threads, 1);
  if (threads > 1) pool_ = std::make_shared<ThreadPool>(threads - 1);
}

const Engine& Engine::Serial() {
  static const Engine* serial = new Engine();
  return *serial;
}

std::string Engine::simd_isa() const {
  return clustering::simd::IsaName(clustering::simd::ActiveIsa());
}

namespace {

// Strict integer grammar shared by every integer knob. Unlike ArgParser's
// lenient getters, a malformed value is an error, not a silent default.
common::Status ParseKnobInt(const std::string& key, const std::string& value,
                            int64_t min, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || v < min) {
    return common::Status::InvalidArgument(
        "engine knob '" + key + "': expected an integer >= " +
        std::to_string(min) + ", got '" + value + "'");
  }
  *out = static_cast<int64_t>(v);
  return common::Status::Ok();
}

}  // namespace

common::Status ApplyEngineKnob(const std::string& key,
                               const std::string& value, EngineConfig* cfg) {
  int64_t n = 0;
  if (key == "threads") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->num_threads = static_cast<int>(n);
  } else if (key == "block_size") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 1, &n));
    cfg->block_size = static_cast<std::size_t>(n);
  } else if (key == "memory_budget_bytes") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->memory_budget_bytes = static_cast<std::size_t>(n);
  } else if (key == "memory_budget_mb") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->memory_budget_bytes =
        static_cast<std::size_t>(n) * (std::size_t{1} << 20);
  } else if (key == "simd_isa") {
    clustering::simd::Isa isa;
    if (!clustering::simd::IsaFromString(value, &isa)) {
      return common::Status::InvalidArgument(
          "engine knob 'simd_isa': expected auto, scalar, avx2, or neon, "
          "got '" + value + "'");
    }
    cfg->simd_isa = value;
  } else {
    return common::Status::InvalidArgument("unknown engine knob '" + key +
                                           "'");
  }
  return common::Status::Ok();
}

const std::vector<std::string>& EngineKnobNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "threads",
      "block_size",
      "memory_budget_mb",
      "memory_budget_bytes",
      "simd_isa",
  };
  return *names;
}

}  // namespace uclust::engine
