// fmgen — synthetic graph generator front end (writes CSR or text edge lists the
// fmwalk tool consumes).
//
// Usage:
//   fmgen --kind=powerlaw --v=1000000 --avgdeg=16 --alpha=0.85 --out=g.csr
//   fmgen --kind=rmat --scale=20 --edgefactor=16 --out=g.csr
//   fmgen --kind=uniform --v=100000 --deg=8 --out=g.txt
//   fmgen --dataset=TW --fmscale=2 --out=tw.csr     # paper stand-in at 2x size
//
// Output format follows the --out extension: ".csr" binary CSR, anything else a
// text edge list.
//
// A malformed number (not the whole value, or outside the flag's type, such
// as a --v past the 32-bit vertex ids) exits 2 with one "error:" line; a
// missing or unknown flag exits 2 with the usage text. A value the generators
// cannot use (--avgdeg not finite and > 0, --alpha not finite and >= 0,
// --scale outside [1, 31], --fmscale not finite and > 0, --shuffle with
// --weights) or a failed write exits 1 with one "error:" line.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/fm.h"
#include "tools/cli_flags.h"

namespace {

using namespace fm;

struct Args {
  std::string kind;
  std::string out;
  std::string dataset;
  Vid v = 0;
  Degree deg = 0;
  Degree maxdeg = 0;
  uint32_t scale = 16;
  uint32_t edgefactor = 16;
  uint64_t seed = 1;
  double avgdeg = 8.0;
  double alpha = 0.8;
  double locality = 0.0;
  double fmscale = 1.0;
  bool weights = false;
  bool shuffle = false;
};

int Usage(const char* self) {
  std::fprintf(
      stderr,
      "usage: %s --out=FILE (.csr binary | anything-else text) and one of:\n"
      "  --kind=powerlaw --v=N [--avgdeg=F] [--alpha=F] [--maxdeg=N] "
      "[--locality=F] [--weights] [--shuffle]\n"
      "  --kind=rmat --scale=N [--edgefactor=N]\n"
      "  --kind=uniform --v=N --deg=N\n"
      "  --dataset=YT|TW|FS|UK|YH [--fmscale=F]\n"
      "common: [--seed=N]\n",
      self);
  return 2;
}

// The generators' preconditions, which they check with an abort: the message
// for the first one `args` breaks, or nullptr.
const char* UnusableInput(const Args& args) {
  if (!args.dataset.empty()) {
    return std::isfinite(args.fmscale) && args.fmscale > 0
               ? nullptr
               : "--fmscale must be finite and > 0";
  }
  if (args.kind == "powerlaw") {
    if (!(std::isfinite(args.avgdeg) && args.avgdeg > 0)) {
      return "--avgdeg must be finite and > 0";
    }
    if (!(std::isfinite(args.alpha) && args.alpha >= 0)) {
      return "--alpha must be finite and >= 0";
    }
    if (args.shuffle && args.weights) {
      return "--shuffle and --weights cannot be combined";
    }
  }
  if (args.kind == "rmat" && (args.scale < 1 || args.scale > 31)) {
    return "--scale must be in [1, 31]";
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    const char* a = argv[i];
    bool number_ok = true;
    if (ParseFlag(a, "--kind", &value)) {
      args.kind = value;
    } else if (ParseFlag(a, "--out", &value)) {
      args.out = value;
    } else if (ParseFlag(a, "--dataset", &value)) {
      args.dataset = value;
    } else if (ParseFlag(a, "--v", &value)) {
      number_ok = ParseNumber(a, value, &args.v);
    } else if (ParseFlag(a, "--deg", &value)) {
      number_ok = ParseNumber(a, value, &args.deg);
    } else if (ParseFlag(a, "--maxdeg", &value)) {
      number_ok = ParseNumber(a, value, &args.maxdeg);
    } else if (ParseFlag(a, "--scale", &value)) {
      number_ok = ParseNumber(a, value, &args.scale);
    } else if (ParseFlag(a, "--edgefactor", &value)) {
      number_ok = ParseNumber(a, value, &args.edgefactor);
    } else if (ParseFlag(a, "--seed", &value)) {
      number_ok = ParseNumber(a, value, &args.seed);
    } else if (ParseFlag(a, "--avgdeg", &value)) {
      number_ok = ParseNumber(a, value, &args.avgdeg);
    } else if (ParseFlag(a, "--alpha", &value)) {
      number_ok = ParseNumber(a, value, &args.alpha);
    } else if (ParseFlag(a, "--locality", &value)) {
      number_ok = ParseNumber(a, value, &args.locality);
    } else if (ParseFlag(a, "--fmscale", &value)) {
      number_ok = ParseNumber(a, value, &args.fmscale);
    } else if (std::strcmp(a, "--weights") == 0) {
      args.weights = true;
    } else if (std::strcmp(a, "--shuffle") == 0) {
      args.shuffle = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return Usage(argv[0]);
    }
    if (!number_ok) {
      return 2;
    }
  }
  if (args.out.empty() || (args.kind.empty() == args.dataset.empty())) {
    return Usage(argv[0]);
  }
  if (const char* error = UnusableInput(args)) {
    std::fprintf(stderr, "error: %s\n", error);
    return 1;
  }

  try {
    CsrGraph graph;
    Timer timer;
    if (!args.dataset.empty()) {
      graph = LoadDataset(DatasetByName(args.dataset), args.fmscale);
    } else if (args.kind == "powerlaw") {
      if (args.v == 0) {
        return Usage(argv[0]);
      }
      PowerLawConfig config;
      config.degrees.num_vertices = args.v;
      config.degrees.avg_degree = args.avgdeg;
      config.degrees.alpha = args.alpha;
      config.degrees.max_degree =
          args.maxdeg != 0 ? args.maxdeg : static_cast<Degree>(args.v / 16);
      config.locality = args.locality;
      config.random_weights = args.weights;
      config.shuffle_labels = args.shuffle;
      config.seed = args.seed;
      graph = GeneratePowerLawGraph(config);
    } else if (args.kind == "rmat") {
      RmatConfig config;
      config.scale = args.scale;
      config.edge_factor = args.edgefactor;
      config.seed = args.seed;
      graph = GenerateRmatGraph(config);
    } else if (args.kind == "uniform") {
      if (args.v == 0 || args.deg == 0) {
        return Usage(argv[0]);
      }
      graph = GenerateUniformDegreeGraph(args.v, args.deg, args.seed);
    } else {
      std::fprintf(stderr, "unknown --kind=%s\n", args.kind.c_str());
      return Usage(argv[0]);
    }
    std::fprintf(stderr, "generated |V|=%u |E|=%llu%s in %.2fs\n",
                 graph.num_vertices(),
                 static_cast<unsigned long long>(graph.num_edges()),
                 graph.weighted() ? " weighted" : "", timer.Elapsed());

    const std::string& out = args.out;
    if (out.size() > 4 && out.substr(out.size() - 4) == ".csr") {
      SaveCsrBinary(graph, out);
    } else {
      SaveEdgeListText(graph, out);
    }
    std::fprintf(stderr, "wrote %s (%.1f MB CSR-equivalent)\n", out.c_str(),
                 graph.CsrBytes() / 1048576.0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
