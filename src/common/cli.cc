#include "common/cli.h"

#include <cstdio>
#include <cstdlib>

#include "engine/engine.h"

namespace uclust::common {
namespace {

// A malformed numeric flag ends the process: running on the default
// instead (`--base_n=2k` silently ran 50000) hides the typo.
[[noreturn]] void DieNotANumber(const std::string& key,
                                const std::string& value) {
  std::fprintf(stderr, "--%s: expected a number, got '%s'\n", key.c_str(),
               value.c_str());
  std::exit(1);
}

}  // namespace

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool ArgParser::Has(const std::string& key) const {
  read_.insert(key);
  return values_.count(key) > 0;
}

std::string ArgParser::GetString(const std::string& key,
                                 const std::string& def) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int64_t ArgParser::GetInt(const std::string& key, int64_t def) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    DieNotANumber(key, it->second);
  }
  return static_cast<int64_t>(v);
}

double ArgParser::GetDouble(const std::string& key, double def) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    DieNotANumber(key, it->second);
  }
  return v;
}

bool ArgParser::GetBool(const std::string& key, bool def) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void ArgParser::RejectUnknownFlags() const {
  bool unknown = false;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) > 0) continue;
    std::fprintf(stderr, "--%s: unknown flag\n", key.c_str());
    unknown = true;
  }
  if (unknown) std::exit(1);
}

Status ParseEngineFlags(const ArgParser& args, engine::EngineConfig* config) {
  for (const std::string& key : engine::EngineKnobNames()) {
    if (!args.Has(key)) continue;
    UCLUST_RETURN_NOT_OK(
        engine::ApplyEngineKnob(key, args.GetString(key, ""), config));
  }
  return Status::Ok();
}

Status ParseEngineFlags(int argc, char** argv, engine::EngineConfig* config) {
  return ParseEngineFlags(ArgParser(argc, argv), config);
}

}  // namespace uclust::common
