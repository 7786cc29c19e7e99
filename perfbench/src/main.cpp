// perfbench: the repository's benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--source ID] [--corrupt count|estimate|image|hhh]
//
// Runs one workload against the library's public API. With --trace 0 it
// reports the end-to-end metrics, with --trace 1 the per-layer ledger. The
// last stdout line is the result object; the line before it carries the
// provenance and the detail (raw and calibrated figures, exact counts).
// --corrupt deliberately corrupts one output before its correctness check,
// so the smoke tests can prove the checks fire.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/simd.hpp"

#ifndef NDEBUG
#error "perfbench measures release builds only (-O3 -DNDEBUG)"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hh_dense|flood_sampled|hhh2d_poll\n"
               "                 --seed N --seconds S --trace 0|1 [--source ID]\n"
               "                 [--corrupt count|estimate|image|hhh]\n");
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_result(const run_args& args, const checks& chk, const report& out,
                  const std::string& source) {
  std::string detail = "{\"provenance\": {";
  detail += "\"workload\": " + json_string(args.workload);
  detail += ", \"seed\": " + std::to_string(args.seed);
  detail += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  detail += ", \"cpu\": " + json_string(cpu_model());
#if defined(__clang__)
  detail += ", \"compiler\": " + json_string("clang " __clang_version__);
#else
  detail += ", \"compiler\": " + json_string("g++ " __VERSION__);
#endif
  detail += ", \"flags\": " + json_string(PERFBENCH_CXX_FLAGS);
  detail += ", \"simd_tier\": " + json_string(memento::simd::tier_name(memento::simd::active()));
  const char* isa = std::getenv("MEMENTO_ISA");
  detail += ", \"MEMENTO_ISA\": " + json_string(isa ? isa : "");
  detail += ", \"source\": " + json_string(source);
  detail += "}, \"detail\": {";
  for (std::size_t i = 0; i < out.detail.size(); ++i) {
    if (i) detail += ", ";
    detail += json_string(out.detail[i].first) + ": " + out.detail[i].second;
  }
  detail += "}}";
  std::printf("%s\n", detail.c_str());

  const auto& metrics = args.trace ? out.per_layer : out.end_to_end;
  std::string line = "{\"correct\": ";
  line += chk.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(chk.attempted);
  line += ", \"failed\": " + std::to_string(chk.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  run_args args;
  std::string source = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (!std::strcmp(a, "--workload")) {
      args.workload = v;
    } else if (!std::strcmp(a, "--seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (!std::strcmp(a, "--seconds")) {
      args.seconds = std::strtod(v, nullptr);
      have_seconds = args.seconds > 0.0;
    } else if (!std::strcmp(a, "--trace")) {
      args.trace = std::strcmp(v, "1") == 0;
      have_trace = args.trace || std::strcmp(v, "0") == 0;
    } else if (!std::strcmp(a, "--source")) {
      source = v;
    } else if (!std::strcmp(a, "--corrupt")) {
      const std::string c = v;
      if (c == "count") {
        args.corrupt = corruption::count;
      } else if (c == "estimate") {
        args.corrupt = corruption::estimate;
      } else if (c == "image") {
        args.corrupt = corruption::image;
      } else if (c == "hhh") {
        args.corrupt = corruption::hhh;
      } else {
        usage();
      }
    } else {
      usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage();

  checks chk;
  chk.corrupt = args.corrupt;
  report out;
  if (args.workload == "hh_dense") {
    run_hh_dense(args, chk, out);
  } else if (args.workload == "flood_sampled") {
    run_flood_sampled(args, chk, out);
  } else if (args.workload == "hhh2d_poll") {
    run_hhh2d_poll(args, chk, out);
  } else {
    usage();
  }
  print_result(args, chk, out, source);
  return 0;
}
